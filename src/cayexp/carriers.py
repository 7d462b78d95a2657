"""Concrete finite groups the spectral verifier can enumerate.

A carrier provides deterministic element enumeration, group arithmetic, and
action tables (index-level right-multiplication maps) for building Cayley
operators. Three kinds cover the whole pipeline: permutation groups,
quotients H/N by canonical coset representatives, and products of cyclic
groups given by per-coordinate moduli.

Every carrier has one array protocol, over which multiset bookkeeping is
written once: ``codes(ms)`` (the element array, in element order),
``inv_codes`` and ``mul_codes`` (row-by-row inverses and products), ``keys``
(one sortable scalar per element, ordered like the elements) and ``tally``
(the canonical ``Multiset`` of an element array, repeats merged). The
construction's pushforwards are written on it too: a map between vector
groups is arithmetic on coordinate rows (``abexp.vector_map``), and a map
into a quotient multiplies gathered image rows with ``mul_codes``; either
ends in one ``tally`` of the images with the source's multiplicities.

A vector group codes an element as its mixed-radix index
(``ravel_multi_index``), its own key; its multisets keep their codes
(``Multiset`` code storage). A permutation group codes an element as its
row of images, keyed by ``_row_keys``; its multisets hold ``Perm`` tuples.
A quotient H/N codes a coset as the image row of its canonical
representative, and makes inverses and products canonical per kernel level
(``QuotientCarrier._canonical``). None of this needs the element table: an
(order, degree) image array in lexicographic order, built from the BSGS
transversals and searched by base-point images, from which action tables
are numpy gathers (for a quotient, relabelled by coset).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsgs import BSGS, CapacityError, schreier_sims
from .multiset import NOT_SYMMETRIC, Multiset, NonSymmetricError
from .perm import DegreeMismatch, GenSet, Perm
from .series import QuotientContext


@dataclass(frozen=True)
class AbelianShape:
    """Product of cyclic prime-power groups: prod_i Z_{p_i^e_i}^{n_i}."""

    factors: tuple[tuple[int, int, int], ...]   # (prime, exponent, copies)

    def __post_init__(self):
        primes = [p for p, _, _ in self.factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("primes must be strictly increasing")
        for p, e, n in self.factors:
            if e < 1 or n < 1:
                raise ValueError("exponents and copies must be >= 1")
            if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
                raise ValueError(f"{p} is not prime")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        out = []
        for p, e, n in self.factors:
            out.extend([p**e] * n)
        return tuple(out)

    @property
    def width(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n


class _ArrayProtocol:
    """What the three carriers share: tallies and the symmetry check, over
    each carrier's codes, inv_codes, keys and from_codes."""

    def tally(self, codes: np.ndarray, weights: np.ndarray | None = None,
              cert: float | None = None) -> Multiset:
        """The multiset of the given codes; repeated codes merge.

        Multiplicities are the occurrence counts, or the sums of the
        integer weights (exact: Python ints where an int64 sum could
        overflow).
        """
        keys = self.keys(codes)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], keys[1:] != keys[:-1])))
        if weights is None:
            mults = np.diff(np.append(starts, len(keys)))
        else:
            if (weights.dtype != object
                    and len(weights) * int(weights.max(initial=0)) >= 2**63):
                weights = weights.astype(object)
            mults = np.add.reduceat(weights[order], starts)
        return self.from_codes(codes[order[starts]], mults, cert)

    def is_symmetric(self, ms: Multiset) -> bool:
        """Inverse-closed with matching multiplicities: the inverses' keys
        looked up among the elements' keys in one search. Needs no element
        table, so it holds for groups above the cap alike."""
        codes = self.codes(ms)
        return _inverse_closed(self.keys(codes),
                               self.keys(self.inv_codes(codes)),
                               ms.mult_array())


class VectorCarrier(_ArrayProtocol):
    """Additive group prod_t Z_{m_t}; elements are coordinate tuples."""

    def __init__(self, moduli: tuple[int, ...]):
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be >= 1")
        self.moduli = tuple(int(m) for m in moduli)

    @staticmethod
    def of(shape: AbelianShape) -> "VectorCarrier":
        return VectorCarrier(shape.moduli)

    @cached_property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def identity(self):
        return (0,) * len(self.moduli)

    def mul(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inv(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def elements(self, cap: int = 10**6) -> list:
        if self.order > cap:
            raise CapacityError(f"group order {self.order} exceeds cap {cap}")
        grids = np.indices(self.moduli).reshape(len(self.moduli), -1).T
        return [tuple(int(c) for c in row) for row in grids]

    # -- integer codes -------------------------------------------------------
    #
    # The code of a reduced coordinate tuple is its mixed-radix index, so
    # code order is lexicographic tuple order: sorting, merging and
    # tie-breaking by code is the same as by element. Codes are int64 while
    # the group order fits, Python ints in an object array beyond.

    def rows(self, elems) -> np.ndarray:
        """(len(elems), width) int64 coordinates of reduced tuples.

        A tuple of the wrong width or with a coordinate outside [0, m_t)
        raises ValueError, so it never takes the code path.
        """
        width = len(self.moduli)
        if set(map(len, elems)) - {width}:
            raise ValueError(f"element width differs from {width}")
        rows = np.fromiter(itertools.chain.from_iterable(elems),
                           dtype=np.int64, count=len(elems) * width)
        rows = rows.reshape(len(elems), width)
        if np.any((rows < 0) | (rows >= np.array(self.moduli))):
            raise ValueError("coordinate outside its modulus")
        return rows

    def ravel(self, rows: np.ndarray) -> np.ndarray:
        """Codes of reduced coordinate rows."""
        if self.order < 2**63:
            return np.ravel_multi_index(tuple(rows.T), self.moduli)
        code = np.zeros(len(rows), dtype=object)
        for t, m in enumerate(self.moduli):
            code = code * m + rows[:, t].astype(object)
        return code

    def unravel(self, codes: np.ndarray) -> np.ndarray:
        """Coordinate rows of codes (the inverse of ravel)."""
        if codes.dtype != object:
            return np.stack(np.unravel_index(codes, self.moduli), axis=1)
        rows = np.empty((len(codes), len(self.moduli)), dtype=np.int64)
        for t in reversed(range(len(self.moduli))):
            m = self.moduli[t]
            rows[:, t] = codes % m
            codes = codes // m
        return rows

    def codes(self, items) -> np.ndarray:
        """Codes of a multiset's elements, or of a sequence of reduced tuples.

        A multiset in code storage over these moduli hands over its stored
        codes (read-only); anything else is coded from its tuples.
        """
        if isinstance(items, Multiset):
            if items.space is not None and items.space.moduli == self.moduli:
                return items.codes
            items = items.elems
        return self.ravel(self.rows(items))

    def inv_codes(self, codes: np.ndarray) -> np.ndarray:
        """Codes of the inverses (negated coordinates)."""
        return self.ravel(-self.unravel(codes) % np.array(self.moduli))

    def mul_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Codes of the sums a[i] + b[i]."""
        return self.ravel((self.unravel(a) + self.unravel(b))
                          % np.array(self.moduli))

    def keys(self, codes: np.ndarray) -> np.ndarray:
        """Codes sort like their elements, so they are their own keys."""
        return codes

    def from_codes(self, codes: np.ndarray, mults,
                   cert: float | None = None) -> Multiset:
        """The multiset on strictly increasing codes with positive mults.

        Canonical storage directly: the codes are already in element order,
        so nothing is merged or re-sorted. The multiset keeps the codes and
        the multiplicities as (read-only) arrays and makes its element
        tuples only if they are read.
        """
        counts = np.asarray(mults)
        if counts.dtype != object:
            counts = counts.astype(np.int64, copy=False)
            if len(counts) * int(counts.max(initial=0)) >= 2**63:
                counts = counts.astype(object)   # the total may not fit
        codes, counts = codes.view(), counts.view()
        codes.flags.writeable = counts.flags.writeable = False
        return Multiset._coded(self, codes, counts, cert)

    def action_tables(self, ms: Multiset) -> tuple[np.ndarray, np.ndarray]:
        n = self.order
        shape = self.moduli
        base = np.indices(shape).reshape(len(shape), -1)
        tables = np.empty((ms.support, n), dtype=np.int64)
        for j, v in enumerate(self.unravel(self.codes(ms)).tolist()):
            shifted = [(base[t] + v[t]) % shape[t] for t in range(len(shape))]
            tables[j] = np.ravel_multi_index(shifted, shape)
        return tables, _weights(ms)


class PermCarrier(_ArrayProtocol):
    """A permutation group enumerated in lexicographic image order.

    The group is held as an (order, degree) array of 0-based images, built
    as a vectorised product of the BSGS transversals; row i is the i-th
    element in lexicographic order, so row 0 is the identity. A group
    element is determined by its images of the base points (Seress,
    *Permutation Group Algorithms*, 2003), and two distinct elements first
    differ at a base point: the base is ascending and the group at a level
    is the pointwise stabilizer of every point below its base point. Rows
    sorted by their base images are therefore sorted lexicographically.
    Lookups key a row by its base images packed as bit fields of one int64,
    the first base point most significant, and binary-search the sorted
    keys; where the fields do not fit in 63 bits the key is the images as
    big-endian bytes viewed as one void scalar. Both keys are
    collision-free and sort like the base images. Action tables are built
    a chunk of rows at a time, by one gather and one search per chunk.
    ``Perm`` objects are made only when asked for.
    """

    def __init__(self, bsgs: BSGS, cap: int = 10**6):
        self.bsgs = bsgs
        self.cap = cap
        self._dtype = np.min_scalar_type(bsgs.degree - 1)

    @staticmethod
    def of(g: GenSet, cap: int = 10**6) -> "PermCarrier":
        return PermCarrier(schreier_sims(g), cap)

    @property
    def order(self) -> int:
        return self.bsgs.order()

    def identity(self) -> Perm:
        return Perm.identity(self.bsgs.degree)

    def mul(self, a: Perm, b: Perm) -> Perm:
        return a * b

    def inv(self, a: Perm) -> Perm:
        return a.inv()

    def codes(self, items) -> np.ndarray:
        """(k, degree) image rows of a multiset's elements, or of a
        sequence of permutations; another degree raises DegreeMismatch."""
        perms = items.elems if isinstance(items, Multiset) else items
        deg = self.bsgs.degree
        if set(map(len, (p.img for p in perms))) - {deg}:
            raise DegreeMismatch(f"element degree differs from {deg}")
        return np.array([p.img for p in perms],
                        dtype=self._dtype).reshape(-1, deg)

    def inv_codes(self, rows: np.ndarray) -> np.ndarray:
        """Rows of the inverses: a row's argsort is its inverse's images."""
        return np.argsort(rows, axis=1).astype(self._dtype)

    def mul_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Rows of the products a[i] * b[i]: (p * q)[x] = q[p[x]]."""
        return np.take_along_axis(b, a, axis=1)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        return _row_keys(rows, self.bsgs.degree)

    def from_codes(self, rows: np.ndarray, mults,
                   cert: float | None = None) -> Multiset:
        """The multiset on strictly increasing rows with positive mults."""
        return Multiset(tuple(map(Perm, rows.tolist())),
                        tuple(np.asarray(mults).tolist()), cert)

    @property
    def _key_points(self) -> list[int]:
        # the trivial group has no base; any point keys its one element
        return self.bsgs.base or [0]

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(images, base images, keys) with rows in lexicographic order."""
        n = self.order
        if n > self.cap:
            raise CapacityError(f"group order {n} exceeds cap {self.cap}")
        deg = self.bsgs.degree
        img = np.arange(deg, dtype=self._dtype)[None, :]
        for lv in reversed(self.bsgs.levels):
            reps = np.array([u.img for u in lv.transversal.values()],
                            dtype=self._dtype)
            img = reps[:, img].reshape(-1, deg)   # (p * u)[x] = u[p[x]]
        cols = np.ascontiguousarray(img[:, self._key_points])
        keys = _row_keys(cols, deg)
        order = np.argsort(keys, kind="stable")
        return img[order], cols[order], keys[order]

    def _find(self, cols: np.ndarray) -> np.ndarray:
        """Indices of the elements with the given base-image rows."""
        keys = self._table[2]
        want = _row_keys(cols, self.bsgs.degree)
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if np.any(keys[pos] != want):
            raise KeyError("element is not in the group")
        return pos

    def _indices(self, perms) -> np.ndarray:
        """Indices of group elements; foreign elements raise KeyError."""
        rows = self.codes(perms)
        pos = self._find(rows[:, self._key_points])
        if np.any(self._table[0][pos] != rows):
            raise KeyError("element is not in the group")
        return pos

    @cached_property
    def _elements(self) -> list[Perm]:
        return self.perms(slice(None))

    def elements(self, cap: int | None = None) -> list[Perm]:
        if cap is not None and self.order > cap:
            raise CapacityError(f"group order {self.order} exceeds cap {cap}")
        return self._elements

    def perms(self, indices) -> list[Perm]:
        """The elements at the given indices, without building elements()."""
        return [Perm(r) for r in self._table[0][indices].tolist()]

    def index_of(self, p: Perm) -> int:
        return int(self._indices([p])[0])

    def _products(self, support: np.ndarray, rows) -> np.ndarray:
        """Indices of e * s: a row per support index s, a column per
        element index e in rows."""
        images, cols, _ = self._table
        cols = cols[rows]
        n, k = cols.shape
        sup = images[support]
        out = np.empty((len(sup), n), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES // n)
        for j in range(0, len(sup), step):
            # (e * s)[b] = s[e[b]] for every element e and support row s
            prods = sup[j:j + step, cols].reshape(-1, k)
            out[j:j + step] = self._find(prods).reshape(-1, n)
        return out

    def action_tables(self, ms: Multiset) -> tuple[np.ndarray, np.ndarray]:
        tables = self._products(self._indices(ms), slice(None))
        return tables, _weights(ms)


def _inverse_closed(keys: np.ndarray, inv_keys: np.ndarray,
                    counts: np.ndarray) -> bool:
    """Whether distinct elements with these keys, inverses and counts are
    closed under inverses with matching counts: sorted by key, the
    elements and their inverses must list the same keys and counts."""
    by_key, by_inv = np.argsort(keys), np.argsort(inv_keys)
    return (np.array_equal(keys[by_key], inv_keys[by_inv])
            and np.array_equal(counts[by_key], counts[by_inv]))


def _weights(ms: Multiset) -> np.ndarray:
    """The multiplicities normalized to sum 1 (the action tables' weights)."""
    weights = np.array(ms.mults, dtype=np.float64)
    return weights / weights.sum()


# table entries looked up per chunk of action-table rows: bounds the
# gathered base images and their keys to a few MB for any support size
_CHUNK_ENTRIES = 1 << 16


def _row_keys(cols: np.ndarray, degree: int) -> np.ndarray:
    """One sortable key per row of points in range(degree).

    The entries packed as bit fields of an int64, first entry most
    significant, when they fit in 63 bits; otherwise the entries as
    big-endian bytes viewed as one void scalar. Either way keys compare
    like the rows, lexicographically.
    """
    bits = (degree - 1).bit_length()
    if cols.shape[1] * bits <= 63:
        keys = np.zeros(len(cols), dtype=np.int64)
        for col in cols.T:
            keys <<= bits
            keys |= col
        return keys
    be = np.ascontiguousarray(cols, dtype=cols.dtype.newbyteorder(">"))
    return be.view(np.dtype((np.void, be.itemsize * be.shape[1]))).ravel()


class QuotientCarrier(_ArrayProtocol):
    """H/N as coset labels on the rows of H's permutation carrier.

    A coset is its canonical (minimum-image) representative. H's rows are
    in lexicographic order, so cosets are numbered in the order of their
    representatives, and coset 0 is N itself. Multisets on H/N hold
    canonical representatives; the array protocol codes them as their
    image rows in H and makes inverses and products canonical.
    """

    def __init__(self, ctx: QuotientContext, cap: int = 10**6):
        self.ctx = ctx
        self.parent = PermCarrier(ctx.parent, cap)

    @property
    def order(self) -> int:
        return self.ctx.order

    def identity(self) -> Perm:
        return self.ctx.identity()

    def mul(self, a: Perm, b: Perm) -> Perm:
        return self.ctx.mul(a, b)

    def inv(self, a: Perm) -> Perm:
        return self.ctx.inv(a)

    def _canonical(self, rows: np.ndarray) -> np.ndarray:
        """The canonical representatives of the cosets of image rows.

        ``QuotientContext.canonicalize`` on every row at once: per kernel
        level one argmin over the orbit's images, one row gather.
        """
        for lv in self.ctx.kernel.levels:
            trans = np.array([u.img for u in lv.transversal.values()],
                             dtype=rows.dtype)
            pick = np.argmin(rows[:, list(lv.transversal)], axis=1)
            # (u * p)[x] = p[u[x]]; u moves the base point to p's argmin
            rows = np.take_along_axis(rows, trans[pick], axis=1)
        return rows

    def codes(self, items) -> np.ndarray:
        return self.parent.codes(items)

    def inv_codes(self, rows: np.ndarray) -> np.ndarray:
        return self._canonical(self.parent.inv_codes(rows))

    def mul_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._canonical(self.parent.mul_codes(a, b))

    def keys(self, rows: np.ndarray) -> np.ndarray:
        return self.parent.keys(rows)

    def from_codes(self, rows: np.ndarray, mults,
                   cert: float | None = None) -> Multiset:
        return self.parent.from_codes(rows, mults, cert)

    @cached_property
    def _cosets(self) -> tuple[np.ndarray, np.ndarray]:
        """(coset of every parent row, parent row of each representative)."""
        canon = self._canonical(self.parent._table[0])
        rows = self.parent._find(canon[:, self.parent._key_points])
        reps, labels = np.unique(rows, return_inverse=True)
        return labels, reps

    def elements(self, cap: int | None = None) -> list[Perm]:
        if cap is not None and self.order > cap:
            raise CapacityError(f"group order {self.order} exceeds cap {cap}")
        return self.perms(slice(None))

    def perms(self, indices) -> list[Perm]:
        """The canonical representatives of the cosets at the indices."""
        return self.parent.perms(self._cosets[1][indices])

    def action_tables(self, ms: Multiset) -> tuple[np.ndarray, np.ndarray]:
        labels, reps = self._cosets
        rows = self.parent._products(self.parent._indices(ms), reps)
        return labels[rows], _weights(ms)

    def image_multiset(self, ms: Multiset,
                       cert: float | None = None) -> Multiset:
        """Push a multiset on H down to canonical representatives on H/N."""
        return self.tally(self._canonical(self.codes(ms)), ms.mult_array(),
                          cert)


Carrier = PermCarrier | QuotientCarrier | VectorCarrier


def require_symmetric(carrier: Carrier, ms: Multiset) -> None:
    """Raise NonSymmetricError unless the multiset is inverse-closed with
    matching multiplicities in the carrier's group."""
    if not carrier.is_symmetric(ms):
        raise NonSymmetricError(NOT_SYMMETRIC)


def multiset_order_check(carrier, ms: Multiset) -> bool:
    """True when the multiset's elements all lie in the carrier's group
    (for a quotient, its parent group): one batched table lookup."""
    if isinstance(carrier, VectorCarrier):
        width = len(carrier.moduli)
        if ms.space is not None:
            return len(ms.space.moduli) == width
        return all(len(v) == width for v in ms.elems)
    if isinstance(carrier, QuotientCarrier):
        carrier = carrier.parent
    try:
        carrier._indices(ms.elems)
    except KeyError:
        return False
    return True
