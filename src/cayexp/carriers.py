"""Concrete finite groups the spectral verifier can enumerate.

A carrier provides a deterministic element order, group arithmetic on
element arrays, and action tables (index-level right-multiplication maps)
for building Cayley operators. Two kinds cover the whole pipeline:
quotients H/N of permutation groups by canonical coset representatives (a
permutation group G is G/1), and products of cyclic groups, made from
their per-coordinate moduli alone (``VectorCarrier(moduli)``; no other
description of an abelian group is kept).

Every carrier has one array protocol, over which multiset bookkeeping is
written once: ``codes(ms)`` (the element array, in element order),
``inv_codes`` and ``mul_codes`` (row-by-row inverses and products), ``keys``
(one sortable scalar per element, ordered like the elements), ``tally``
(the canonical ``Multiset`` of an element array, repeats merged),
``from_codes`` (the ``Multiset`` that stores an ascending element array;
``decode`` makes its elements only when they are read) and
``inverse_positions`` (the one inverse search, which ``is_symmetric`` and
combine's inverse-pair units read). The construction's pushforwards are
written on it too: a map between vector groups is arithmetic on
coordinate rows (``abexp.vector_map``), and a map into a quotient
multiplies gathered image rows with ``mul_codes``; either ends in one
``tally`` of the images with the source's multiplicities.

A vector group codes an element as its mixed-radix index, its own key. A
permutation codes as its row of images, keyed by ``_row_keys``:
``PermRows`` is that much of the protocol, which needs only the degree.
``QuotientCarrier(H, N)``, the package's one quotient object, extends it
with the BSGSs of H and N; ``series.quotient_context`` makes one after
checking that N is normal in H. A quotient H/N codes a coset as the image
row of its canonical representative, and makes inverses and products
canonical per kernel level (``QuotientCarrier._canonical``, nothing to do
over the trivial kernel); no element is canonicalized alone. Every
multiset stores codes (see ``multiset``), and ``codes(ms)`` hands them over
when they are the carrier's own kind: codes of the same moduli, or image
rows of the same degree; vector codes of other moduli are recoded from their
coordinates. None of this needs the element table: an (order, degree) image
array in lexicographic order, searched by base-point images, from which
action tables are numpy gathers. Over the trivial kernel it is the
product of H's BSGS transversals, read as the image rows the chain keeps
(``bsgs``); otherwise the quotient enumerates its own coset representatives
by closure and never lists H. The carriers list no
elements; a group or quotient above ``TABLE_CAP`` gets no table: asking
for one raises ``MethodCapacityError``, the package's one capacity error.
Its lookup (``_indices``, under every ``action_tables``) is the one
membership check of a permutation element; a vector element's is ``codes``.

A group or quotient within ``DENSE_CAP``, the order up to which
``spectra`` measures densely, also keeps its whole Cayley table (int32,
order x order), made on its first ``action_tables`` call and kept as long
as the carrier. It is composed, not searched: one search gives the rows
of H's generators, and breadth-first along them every other row is a
gather of a known one, row(g * s) = row(s)[row(g)] (``_cayley``); a
group is the quotient G/1 and composes alike. Its action tables are then
rows of that table. Above the cap each call searches the products of its
support alone, a chunk of rows at a time.

A permutation group has one carrier per ``GenSet`` object:
``PermCarrier.of(g)`` builds it on the first call and keeps it on g for as
long as g lives, so a construction, its re-check and the command line's
report share g's BSGS, element table and Cayley table, each made once
(``combine.fold_series`` merges onto G/1 on it when the chain's term 0 is
g's BSGS). ``general.general_expander`` keeps its measured starting set
there as well; every other measurement, a re-check's included, is made
anew. Shared, those tables are read-only,
as are the chain's transversal arrays; ``action_tables`` and
``image_rows`` hand out arrays of the caller's own.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .bsgs import BSGS, schreier_sims
from .multiset import NOT_SYMMETRIC, Multiset, NonSymmetricError
from .perm import DegreeMismatch, GenSet, Perm


class MethodCapacityError(ValueError):
    """Group too large for the requested table or measurement method."""


# numpy's array dimension limit is 64 (numpy >= 2.0), and ravel_multi_index
# needs one spare
_NUMPY_WIDTH = 63


class _ArrayProtocol:
    """What the carriers share: code storage, tallies and the symmetry
    check, over each carrier's codes, inv_codes, keys and decode."""

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

    def inverse_positions(self, ms: Multiset):
        """(codes, inverse codes, position of each inverse among the codes,
        whether it is there): one search of the codes' keys, which canonical
        storage keeps sorted. Needs no element table."""
        codes = self.codes(ms)
        keys = self.keys(codes)
        inv = self.inv_codes(codes)
        inv_keys = self.keys(inv)
        pos = np.minimum(np.searchsorted(keys, inv_keys), len(keys) - 1)
        return codes, inv, pos, keys[pos] == inv_keys

    def is_symmetric(self, ms: Multiset) -> bool:
        """Every inverse found, with its element's count, and the positions
        paired (two non-canonical representatives of one coset share an
        inverse; canonical codes always pair)."""
        _, _, pos, found = self.inverse_positions(ms)
        counts = ms.mult_array()
        return bool(found.all()
                    and np.array_equal(pos[pos], np.arange(len(pos)))
                    and np.array_equal(counts[pos], counts))


class VectorCarrier(_ArrayProtocol):
    """Additive group prod_t Z_{m_t}; elements are coordinate tuples."""

    def __init__(self, moduli: tuple[int, ...]):
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be >= 1")
        self.moduli = tuple(int(m) for m in moduli)

    @cached_property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def identity(self):
        return (0,) * len(self.moduli)

    @property
    def fft_shape(self) -> tuple[int, ...]:
        """The moduli above 1: the weight tensor's shape for an FFT. A
        size-1 axis is the identity there, and without them any width fits
        numpy's 64 dimensions below the exhaustive cap (the trivial group
        keeps one axis)."""
        return tuple(m for m in self.moduli if m > 1) or (1,)

    # -- integer codes -------------------------------------------------------
    #
    # The code of a reduced coordinate tuple is its mixed-radix index, so
    # code order is lexicographic tuple order: sorting, merging and
    # tie-breaking by code is the same as by element. Codes are int64 while
    # the group order fits, Python ints in an object array beyond. numpy's
    # index functions do the arithmetic up to _NUMPY_WIDTH coordinates, a
    # loop over the columns beyond (only modulus-1 columns keep such a
    # width's order below 2^63).

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
        """Codes of reduced coordinate rows (Z^0 codes its one element 0)."""
        fits = self.order < 2**63
        if fits and 0 < len(self.moduli) <= _NUMPY_WIDTH:
            return np.ravel_multi_index(tuple(rows.T), self.moduli)
        dtype = np.int64 if fits else object
        code = np.zeros(len(rows), dtype=dtype)
        for t, m in enumerate(self.moduli):
            code = code * m + rows[:, t].astype(dtype)
        return code

    def unravel(self, codes: np.ndarray) -> np.ndarray:
        """Coordinate rows of codes (the inverse of ravel)."""
        if codes.dtype != object and 0 < len(self.moduli) <= _NUMPY_WIDTH:
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
        base = self.unravel(np.arange(self.order))
        moduli = np.array(self.moduli)
        tables = np.empty((ms.support, self.order), dtype=np.int64)
        for j, v in enumerate(self.unravel(self.codes(ms))):
            tables[j] = self.ravel((base + v) % moduli)
        return tables, _weights(ms)


class PermRows(_ArrayProtocol):
    """Permutations of {0..degree-1} as (k, degree) image rows, keyed by
    ``_row_keys``: the part of the array protocol that needs only the
    degree. ``multiset(pairs)`` stores permutations here;
    ``QuotientCarrier`` extends it with a group.
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
# group orders up to this take spectra's dense route, and their carriers
# keep one whole Cayley table
DENSE_CAP = 10_000

OUTSIDE = "multiset contains elements outside the group"


def _weights(ms: Multiset) -> np.ndarray:
    """The multiplicities normalized to sum 1 (the action tables' weights)."""
    weights = ms.mult_array().astype(np.float64)
    return weights / weights.sum()


# element-table entries looked up per chunk of action-table rows: bounds
# the gathered images (base images only, over a trivial kernel) and their
# keys to a few MB for any support size
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


class QuotientCarrier(PermRows):
    """H/N numbered by its own cosets; a permutation group G is G/1
    (``PermCarrier``).

    A coset is its canonical (minimum-image) representative, an element of
    H; over the trivial kernel every element is its own. ``_table`` is
    (representative rows, their images at H's base points, the
    ``_row_keys`` of those), sorted by key. An element of H is determined
    by its images of the base points (Seress, *Permutation Group
    Algorithms*, 2003), and two distinct elements first differ at a base
    point: the base is ascending and the group at a level is the pointwise
    stabilizer of every point below its base point. So rows sorted by key
    are sorted lexicographically, and coset 0 is N itself. Multisets on H/N
    hold canonical representatives; the array protocol codes them as their
    image rows in H and makes inverses and products canonical.
    """

    def __init__(self, parent: BSGS, kernel: BSGS):
        super().__init__(parent.degree)
        self.parent, self.kernel = parent, kernel
        self.order = parent.order() // kernel.order()

    def identity(self) -> Perm:
        """N's canonical representative: the identity is the
        lexicographically least permutation."""
        return Perm.identity(self.degree)

    @property
    def _key_points(self) -> list[int]:
        # a representative is an element of H: H's base images determine
        # it; the trivial group has no base, and any point keys its element
        return self.parent.base or [0]

    def _canonical(self, rows: np.ndarray) -> np.ndarray:
        """The canonical representatives of the cosets of image rows.

        Per kernel level, one argmin and one row gather: (u * p)[b] =
        p[u[b]] for u in the level's transversal, so the orbit point with
        the least image gives the least image at the base point b; u fixes
        every point below b, so the images chosen there stay.
        """
        for lv in self.kernel.levels:
            pick = np.argmin(rows[:, lv.points], axis=1)
            # (u * p)[x] = p[u[x]]; u moves the base point to p's argmin
            rows = np.take_along_axis(rows, lv.rows[pick], axis=1)
        return rows

    def inv_codes(self, rows: np.ndarray) -> np.ndarray:
        return self._canonical(super().inv_codes(rows))

    def mul_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._canonical(super().mul_codes(a, b))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Over a trivial kernel, H's elements as the vectorised product of
        its BSGS transversals; otherwise the representatives by closure:
        the frontier times each of H's generators, made canonical, keeping
        the cosets not seen before, so H is never listed."""
        n = self.order
        if n > TABLE_CAP:
            raise MethodCapacityError(
                f"group order {n} exceeds the element-table cap {TABLE_CAP}")
        deg, points = self.degree, self._key_points
        if not self.kernel.levels:
            img = np.arange(deg, dtype=self._dtype)[None, :]
            for lv in reversed(self.parent.levels):
                # (p * u)[x] = u[p[x]]
                img = lv.rows[:, img].reshape(-1, deg)
        else:
            gens = self.codes(self.parent.gens.nontrivial_gens())
            frontier = self.codes([self.identity()])
            found, seen = [frontier], set(_row_keys(frontier[:, points],
                                                    deg).tolist())
            while len(frontier):
                prods = self.mul_codes(np.repeat(frontier, len(gens), axis=0),
                                       np.tile(gens, (len(frontier), 1)))
                keys, first = np.unique(_row_keys(prods[:, points], deg),
                                        return_index=True)
                keys = keys.tolist()
                fresh = [i for k, i in zip(keys, first.tolist())
                         if k not in seen]
                frontier = prods[fresh]
                seen.update(keys)
                found.append(frontier)
            img = np.concatenate(found)
        cols = np.ascontiguousarray(img[:, points])
        keys = _row_keys(cols, deg)
        order = np.argsort(keys, kind="stable")
        img, cols, keys = img[order], cols[order], keys[order]
        # read-only, like every table a carrier keeps: a group's carrier is
        # shared by everyone who asks ``PermCarrier.of`` for it
        img.flags.writeable = cols.flags.writeable = False
        keys.flags.writeable = False
        return img, cols, keys

    def _find(self, cols: np.ndarray) -> np.ndarray:
        """Indices of the elements with the given base-image rows."""
        keys = self._table[2]
        want = _row_keys(cols, self.degree)
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if np.any(keys[pos] != want):
            raise ValueError(OUTSIDE)
        return pos

    def _indices(self, items) -> np.ndarray:
        """Indices of the cosets of elements of H: the package's one
        membership lookup; a foreign element raises ValueError."""
        rows = self._canonical(self.codes(items))
        pos = self._find(rows[:, self._key_points])
        # a foreign row can share its base images with an element
        if np.any(self._table[0][pos] != rows):
            raise ValueError(OUTSIDE)
        return pos

    def image_rows(self, indices) -> np.ndarray:
        """The image rows of the elements at the given indices, as an
        array of the caller's own (a slice of the read-only table is
        copied)."""
        rows = self._table[0][indices]
        return rows if rows.flags.writeable else rows.copy()

    def _products(self, sup: np.ndarray, dtype) -> np.ndarray:
        """Indices of e * s: a row per image row s of ``sup``, a column per
        element e of the table. Per chunk of rows, one gather and one
        search: over a trivial kernel the gather takes base images alone
        (they determine an element of H), otherwise whole rows, then made
        canonical."""
        images, cols, _ = self._table
        n = len(images)
        trivial = not self.kernel.levels
        # np.take casts its indices to intp on every call: once here
        take = (cols if trivial else images).astype(np.intp)
        out = np.empty((len(sup), n), dtype=dtype)
        step = max(1, _CHUNK_ENTRIES // n)
        for j in range(0, len(sup), step):
            # (e * s)[x] = s[e[x]] for every element e and support row s
            prods = np.take(sup[j:j + step], take, axis=1)
            prods = prods.reshape(-1, take.shape[1])
            if not trivial:
                prods = self._canonical(prods)[:, self._key_points]
            out[j:j + step] = self._find(prods).reshape(-1, n)
        return out

    @cached_property
    def _cayley(self) -> np.ndarray:
        """The Cayley table C[j, i] = index of e_i * e_j, as int32: at most
        DENSE_CAP^2 entries, half the dense route's float64 matrix.

        Composed, not searched: row(g * s) = row(s)[row(g)], since
        e_i * g * s = (e_i * g) * s. One ``_products`` search gives the
        rows of H's generators. Row 0, of N itself, is the identity's, and
        breadth-first along the generators every other row is a gather of
        a known one: the products of the last layer with each generator
        that land on a coset not seen yet, written straight into the table
        a chunk of rows at a time.
        """
        n = self.order
        # searched before the table exists, so the search's chunk buffers
        # and the table are never held at once (a group with no nontrivial
        # generator searches its identity)
        steps = self._products(self.codes(
            self.parent.gens.nontrivial_gens() or [self.identity()]),
            np.int32)
        table = np.empty((n, n), dtype=np.int32)
        table[0] = np.arange(n)
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        chunk = max(1, _CHUNK_ENTRIES // n)
        flat = steps.ravel()
        while len(frontier):
            # the index of e_f * s is row(s)[f]; when several products land
            # on one coset, any of them may write its row, as all give the
            # same
            dst = steps[:, frontier].ravel()
            source = np.full(n, -1, dtype=np.intp)
            source[dst] = np.arange(len(dst))
            fresh = np.flatnonzero((source >= 0) & ~seen)
            step, at = np.divmod(source[fresh], len(frontier))
            seen[fresh] = True
            offset = step * n   # where each product's step row starts
            for j in range(0, len(fresh), chunk):
                rows = (table[frontier[at[j:j + chunk]]]
                        + offset[j:j + chunk, None])
                table[fresh[j:j + chunk]] = np.take(flat, rows)
            frontier = fresh
        table.flags.writeable = False
        return table

    def action_tables(self, ms: Multiset) -> tuple[np.ndarray, np.ndarray]:
        """Indices of e * s: a row per support element s, a column per
        element e of the table. Up to DENSE_CAP elements they are rows of
        the carrier's one Cayley table, built on the first call; above it
        they are searched for the support alone, a chunk of rows at a
        time."""
        idx = self._indices(ms)
        if self.order <= DENSE_CAP:
            tables = self._cayley[idx]
        else:
            tables = self._products(self.image_rows(idx), np.int64)
        return tables, _weights(ms)

    def image_multiset(self, ms: Multiset,
                       cert: float | None = None) -> Multiset:
        """Push a multiset on H down to canonical representatives on H/N."""
        return self.tally(self._canonical(self.codes(ms)), ms.mult_array(),
                          cert)


class PermCarrier(QuotientCarrier):
    """A permutation group G as the quotient G/1, built from G's BSGS.
    ``Perm`` objects are made only when asked for."""

    def __init__(self, bsgs: BSGS):
        # the trivial kernel: a BSGS with no levels, as schreier_sims gives
        super().__init__(bsgs, BSGS(GenSet(bsgs.degree)))

    @staticmethod
    def of(g: GenSet) -> "PermCarrier":
        """g's one carrier: built from ``schreier_sims(g)`` on the first
        call and kept on g itself, outside its compared fields, for as long
        as g lives. Every later call on the same object returns it, so g's
        BSGS (``parent``), element table and Cayley table are each made once;
        an equal but distinct ``GenSet`` gets a carrier of its own."""
        carrier = PermCarrier.kept(g)
        if carrier is None:
            carrier = PermCarrier(schreier_sims(g))
            object.__setattr__(g, "_carrier", carrier)
        return carrier

    @staticmethod
    def kept(g: GenSet) -> "PermCarrier | None":
        """g's carrier if ``of`` has built one, else None; builds nothing."""
        return vars(g).get("_carrier")

    # perfbench's tracer wraps the action_tables in each class's own
    # __dict__: bound here as well, a group's calls count apart from a
    # proper quotient's
    action_tables = QuotientCarrier.action_tables


Carrier = QuotientCarrier | VectorCarrier   # a PermCarrier is a quotient


def require_symmetric(carrier: Carrier, ms: Multiset) -> None:
    """Raise NonSymmetricError unless the multiset is inverse-closed with
    matching multiplicities in the carrier's group."""
    if not carrier.is_symmetric(ms):
        raise NonSymmetricError(NOT_SYMMETRIC)

