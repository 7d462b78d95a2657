"""Concrete finite groups the spectral verifier can enumerate.

A carrier provides a deterministic element order, group arithmetic on
element arrays, and action tables (index-level right-multiplication maps)
for building Cayley operators. Three kinds cover the whole pipeline:
permutation groups, quotients H/N by canonical coset representatives, and
products of cyclic groups given by per-coordinate moduli.

Every carrier has one array protocol, over which multiset bookkeeping is
written once: ``codes(ms)`` (the element array, in element order),
``inv_codes`` and ``mul_codes`` (row-by-row inverses and products), ``keys``
(one sortable scalar per element, ordered like the elements), ``tally``
(the canonical ``Multiset`` of an element array, repeats merged) and
``from_codes`` (the ``Multiset`` that stores an ascending element array;
``decode`` makes its elements only when they are read). The
construction's pushforwards are written on it too: a map between vector
groups is arithmetic on coordinate rows (``abexp.vector_map``), and a map
into a quotient multiplies gathered image rows with ``mul_codes``; either
ends in one ``tally`` of the images with the source's multiplicities.

A vector group codes an element as its mixed-radix index
(``ravel_multi_index``), its own key. A permutation codes as its row of
images, keyed by ``_row_keys``: ``PermRows`` is that much of the protocol,
which needs only the degree; the permutation and quotient carriers
extend it. A
quotient H/N codes a coset as the image row of its canonical
representative, and makes inverses and products canonical per kernel level
(``QuotientCarrier._canonical``); no element is canonicalized alone. Every
multiset stores codes (see ``multiset``), and ``codes(ms)`` hands them over
when they are the carrier's own kind: codes of the same moduli, or image
rows of the same degree; vector codes of other moduli are recoded from their
coordinates. None of this needs the element table: an (order, degree) image
array in lexicographic order, searched by base-point images, from which
action tables are numpy gathers. A permutation group builds it from its
BSGS transversals; a quotient enumerates its own coset representatives by
closure and never lists H. The carriers list no elements; a group or
quotient above ``TABLE_CAP`` gets no table: asking for one raises
``MethodCapacityError``, the package's one capacity error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsgs import BSGS, schreier_sims
from .multiset import NOT_SYMMETRIC, Multiset, NonSymmetricError
from .perm import DegreeMismatch, GenSet, Perm
from .series import QuotientContext


class MethodCapacityError(ValueError):
    """Group too large for the requested table or measurement method."""


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
    """What the three carriers share: code storage, tallies and the
    symmetry check, over each carrier's codes, inv_codes, keys and
    decode."""

    def from_codes(self, codes: np.ndarray, mults,
                   cert: float | None = None) -> Multiset:
        """The multiset on codes strictly increasing in key order, with
        positive mults.

        Canonical storage directly: the codes are already in element order,
        so nothing is merged or re-sorted. The multiset keeps the codes and
        the multiplicities as (read-only) arrays and decodes its elements
        only if they are read.
        """
        counts = np.asarray(mults)
        if counts.dtype != object:
            counts = counts.astype(np.int64, copy=False)
            if len(counts) * int(counts.max(initial=0)) >= 2**63:
                counts = counts.astype(object)   # the total may not fit
        codes, counts = codes.view(), counts.view()
        codes.flags.writeable = counts.flags.writeable = False
        return Multiset(self, codes, counts, cert)

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
        return self._reduced(rows.reshape(len(elems), width))

    def _reduced(self, rows: np.ndarray) -> np.ndarray:
        """The coordinate rows; a coordinate outside [0, m_t) raises
        ValueError."""
        if np.any((rows < 0) | (rows >= np.array(self.moduli))):
            raise ValueError("coordinate outside its modulus")
        return rows

    def ravel(self, rows: np.ndarray) -> np.ndarray:
        """Codes of reduced coordinate rows."""
        if not self.moduli:                 # Z^0: one element, code 0
            return np.zeros(len(rows), dtype=np.int64)
        if self.order < 2**63:
            return np.ravel_multi_index(tuple(rows.T), self.moduli)
        code = np.zeros(len(rows), dtype=object)
        for t, m in enumerate(self.moduli):
            code = code * m + rows[:, t].astype(object)
        return code

    def unravel(self, codes: np.ndarray) -> np.ndarray:
        """Coordinate rows of codes (the inverse of ravel)."""
        if codes.dtype != object and self.moduli:
            return np.stack(np.unravel_index(codes, self.moduli), axis=1)
        rows = np.empty((len(codes), len(self.moduli)), dtype=np.int64)
        for t in reversed(range(len(self.moduli))):
            m = self.moduli[t]
            rows[:, t] = codes % m
            codes = codes // m
        return rows

    def codes(self, items) -> np.ndarray:
        """Codes of a multiset's elements, or of a sequence of reduced tuples.

        A multiset of codes over these moduli hands them over (read-only);
        one over other moduli is recoded from its coordinates, which must be
        reduced here and as wide; one holding image rows raises ValueError.
        """
        if not isinstance(items, Multiset):
            return self.ravel(self.rows(items))
        space = items.space
        if not isinstance(space, VectorCarrier):
            raise ValueError("multiset holds permutation image rows, "
                             "not vector codes")
        if space.moduli == self.moduli:
            return items.codes
        if len(space.moduli) != len(self.moduli):
            raise ValueError(f"element width differs from {len(self.moduli)}")
        return self.ravel(self._reduced(items.coordinates()))

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

    def decode(self, codes: np.ndarray) -> tuple:
        """The coordinate tuples of codes."""
        return tuple(map(tuple, self.unravel(codes).tolist()))

    def coordinates(self, codes: np.ndarray) -> np.ndarray:
        """(len(codes), width) int64 coordinates of codes."""
        return self.unravel(codes)

    def action_tables(self, ms: Multiset) -> tuple[np.ndarray, np.ndarray]:
        n = self.order
        shape = self.moduli
        base = np.indices(shape).reshape(len(shape), -1)
        tables = np.empty((ms.support, n), dtype=np.int64)
        for j, v in enumerate(self.unravel(self.codes(ms)).tolist()):
            shifted = [(base[t] + v[t]) % shape[t] for t in range(len(shape))]
            tables[j] = np.ravel_multi_index(shifted, shape)
        return tables, _weights(ms)


class PermRows(_ArrayProtocol):
    """Permutations of {0..degree-1} as (k, degree) image rows, keyed by
    ``_row_keys``: the part of the array protocol that needs only the
    degree. ``multiset(pairs)`` stores permutations here; the permutation
    and quotient carriers extend it with a group.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self._dtype = np.min_scalar_type(degree - 1)

    def codes(self, items) -> np.ndarray:
        """(k, degree) image rows of a multiset's elements, or of a
        sequence of permutations; another degree raises DegreeMismatch.

        A multiset's stored rows are handed over (read-only); one holding
        vector codes raises ValueError.
        """
        deg = self.degree
        if isinstance(items, Multiset):
            if not isinstance(items.space, PermRows):
                raise ValueError("multiset holds vector codes, "
                                 "not permutation image rows")
            if items.space.degree != deg:
                raise DegreeMismatch(f"element degree differs from {deg}")
            return items.codes.astype(self._dtype, copy=False)
        if set(map(len, (p.img for p in items))) - {deg}:
            raise DegreeMismatch(f"element degree differs from {deg}")
        return np.array([p.img for p in items],
                        dtype=self._dtype).reshape(-1, deg)

    def inv_codes(self, rows: np.ndarray) -> np.ndarray:
        """Rows of the inverses: a row's argsort is its inverse's images."""
        return np.argsort(rows, axis=1).astype(self._dtype)

    def mul_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Rows of the products a[i] * b[i]: (p * q)[x] = q[p[x]]."""
        return np.take_along_axis(b, a, axis=1)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        return _row_keys(rows, self.degree)

    def decode(self, rows: np.ndarray) -> tuple[Perm, ...]:
        """The permutations of image rows."""
        return tuple(map(Perm, rows.tolist()))

    def coordinates(self, rows: np.ndarray) -> np.ndarray:
        """Image rows as int64."""
        return rows.astype(np.int64)


# group orders above this build no element table (nor action tables)
TABLE_CAP = 10**6


class _Numbered(PermRows):
    """A permutation group or quotient numbered by its element table.

    ``_table`` is (image rows, their images at the key points, the
    ``_row_keys`` of those), sorted by key; ``_key_points`` are the base
    points of the group (of H, for H/N). An element of the group is
    determined by its images of the base points (Seress, *Permutation Group
    Algorithms*, 2003), and two distinct elements first differ at a base
    point: the base is ascending and the group at a level is the pointwise
    stabilizer of every point below its base point. So rows sorted by key
    are sorted lexicographically, and row 0 is the identity.
    """

    def _canonical(self, rows: np.ndarray) -> np.ndarray:
        """A group element is its own representative."""
        return rows

    def _find(self, cols: np.ndarray) -> np.ndarray:
        """Indices of the elements with the given base-image rows."""
        keys = self._table[2]
        want = _row_keys(cols, self.degree)
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if np.any(keys[pos] != want):
            raise KeyError("element is not in the group")
        return pos

    def _indices(self, items) -> np.ndarray:
        """Indices of group elements; foreign elements raise KeyError."""
        rows = self._canonical(self.codes(items))
        pos = self._find(rows[:, self._key_points])
        # a foreign row can share its base images with an element
        if np.any(self._table[0][pos] != rows):
            raise KeyError("element is not in the group")
        return pos

    def image_rows(self, indices) -> np.ndarray:
        """The image rows of the elements at the given indices."""
        return self._table[0][indices]


class PermCarrier(_Numbered):
    """A permutation group whose element table is a vectorised product of
    its BSGS transversals; action tables take one gather of base images and
    one search per chunk of rows. ``Perm`` objects are made only when asked
    for."""

    def __init__(self, bsgs: BSGS):
        super().__init__(bsgs.degree)
        self.bsgs = bsgs

    @staticmethod
    def of(g: GenSet) -> "PermCarrier":
        return PermCarrier(schreier_sims(g))

    @property
    def order(self) -> int:
        return self.bsgs.order()

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @property
    def _key_points(self) -> list[int]:
        # the trivial group has no base; any point keys its one element
        return self.bsgs.base or [0]

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.order
        if n > TABLE_CAP:
            raise MethodCapacityError(
                f"group order {n} exceeds the element-table cap {TABLE_CAP}")
        deg = self.degree
        img = np.arange(deg, dtype=self._dtype)[None, :]
        for lv in reversed(self.bsgs.levels):
            reps = np.array([u.img for u in lv.transversal.values()],
                            dtype=self._dtype)
            img = reps[:, img].reshape(-1, deg)   # (p * u)[x] = u[p[x]]
        cols = np.ascontiguousarray(img[:, self._key_points])
        keys = _row_keys(cols, deg)
        order = np.argsort(keys, kind="stable")
        return img[order], cols[order], keys[order]

    def _products(self, support: np.ndarray) -> np.ndarray:
        """Indices of e * s: a row per support index s, a column per
        element index e."""
        images, cols, _ = self._table
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
        return self._products(self._indices(ms)), _weights(ms)


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
    weights = ms.mult_array().astype(np.float64)
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


class QuotientCarrier(_Numbered):
    """H/N numbered by its own cosets.

    A coset is its canonical (minimum-image) representative, an element of
    H. The element table holds the representatives, enumerated by closure
    under H's generators and numbered in lexicographic order, so coset 0 is
    N itself; H's elements are never listed. Multisets on H/N hold
    canonical representatives; the array protocol codes them as their
    image rows in H and makes inverses and products canonical.
    """

    def __init__(self, ctx: QuotientContext):
        super().__init__(ctx.parent.degree)
        self.ctx = ctx

    @property
    def order(self) -> int:
        return self.ctx.order

    def identity(self) -> Perm:
        """N's canonical representative: the identity is the
        lexicographically least permutation."""
        return Perm.identity(self.degree)

    @property
    def _key_points(self) -> list[int]:
        # a representative is an element of H: H's base images determine it
        return self.ctx.parent.base or [0]

    def _canonical(self, rows: np.ndarray) -> np.ndarray:
        """The canonical representatives of the cosets of image rows.

        Per kernel level, one argmin and one row gather: (u * p)[b] =
        p[u[b]] for u in the level's transversal, so the orbit point with
        the least image gives the least image at the base point b; u fixes
        every point below b, so the images chosen there stay.
        """
        for lv in self.ctx.kernel.levels:
            trans = np.array([u.img for u in lv.transversal.values()],
                             dtype=rows.dtype)
            pick = np.argmin(rows[:, list(lv.transversal)], axis=1)
            # (u * p)[x] = p[u[x]]; u moves the base point to p's argmin
            rows = np.take_along_axis(rows, trans[pick], axis=1)
        return rows

    def inv_codes(self, rows: np.ndarray) -> np.ndarray:
        return self._canonical(super().inv_codes(rows))

    def mul_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._canonical(super().mul_codes(a, b))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The representatives by closure: the frontier times each of H's
        generators, made canonical, keeping the cosets not seen before."""
        n = self.order
        if n > TABLE_CAP:
            raise MethodCapacityError(
                f"quotient order {n} exceeds the element-table cap "
                f"{TABLE_CAP}")
        deg, points = self.degree, self._key_points
        gens = self.codes(self.ctx.parent.gens.nontrivial_gens())
        frontier = self.codes([self.identity()])
        found, seen = [frontier], set(_row_keys(frontier[:, points],
                                                deg).tolist())
        while len(frontier):
            prods = self.mul_codes(np.repeat(frontier, len(gens), axis=0),
                                   np.tile(gens, (len(frontier), 1)))
            keys, first = np.unique(_row_keys(prods[:, points], deg),
                                    return_index=True)
            keys = keys.tolist()
            fresh = [i for k, i in zip(keys, first.tolist()) if k not in seen]
            frontier = prods[fresh]
            seen.update(keys)
            found.append(frontier)
        img = np.concatenate(found)
        cols = np.ascontiguousarray(img[:, points])
        keys = _row_keys(cols, deg)
        order = np.argsort(keys, kind="stable")
        return img[order], cols[order], keys[order]

    def action_tables(self, ms: Multiset) -> tuple[np.ndarray, np.ndarray]:
        """Indices of e * s: a row per support element s, a column per
        coset representative e."""
        reps = self._table[0]
        n = len(reps)
        sup = self.image_rows(self._indices(ms))
        out = np.empty((len(sup), n), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES // n)
        for j in range(0, len(sup), step):
            # (e * s)[x] = s[e[x]] for every representative e and row s
            prods = np.take(sup[j:j + step], reps, axis=1)
            prods = self._canonical(prods.reshape(-1, self.degree))
            out[j:j + step] = self._find(
                prods[:, self._key_points]).reshape(-1, n)
        return out, _weights(ms)

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
    (for a quotient H/N, in H): one batched table lookup."""
    if isinstance(carrier, VectorCarrier):
        return (isinstance(ms.space, VectorCarrier)
                and len(ms.space.moduli) == len(carrier.moduli))
    try:
        carrier._indices(ms)
    except KeyError:
        return False
    return True
