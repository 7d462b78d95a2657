"""Symmetric generating multisets with attached certified spectral bounds.

Elements are either Perm instances or integer coordinate tuples (abelian
vectors). Storage is canonical: distinct elements sorted ascending with
positive integer multiplicities, so equal multisets compare and serialize
identically.

A multiset has one storage form: a space (``space``), its ascending codes
and their multiplicity array. One built by a carrier (``from_codes``,
``tally``) holds that carrier: mixed-radix codes for a vector group, image
rows for a permutation group or a quotient. One built from pairs
(``multiset``) holds a space its elements choose: permutations are image
rows of a ``carriers.PermRows``, which knows only their degree, and
coordinate tuples are codes of the ``carriers.VectorCarrier`` whose moduli
are the column-wise maxima plus 1. The ``elems`` tuple is decoded (through
the space) and the ``mults`` tuple made only when they are read. Code order
is element order in every space, and equality and hashing are by element,
so the same pairs compare equal whichever space holds them.

Arithmetic that needs the group (inverses, products, unions, symmetry,
images under homomorphisms) is written on the carriers' array protocol (see
``carriers``); a multiset itself only scales and reduces its
multiplicities.
"""

from __future__ import annotations

import numpy as np

from .perm import Perm, format_perm, parse_degree_file, parse_perm


class NonSymmetricError(ValueError):
    pass


NOT_SYMMETRIC = ("multiset is not closed under inverses with matching "
                 "multiplicities")


class Multiset:
    __slots__ = ("_elems", "_mults", "_cert", "_space", "_codes", "_counts",
                 "_total")

    def __init__(self, space, codes: np.ndarray, counts: np.ndarray,
                 cert: float | None = None):
        """Ascending codes of ``space`` and their counts (read-only arrays,
        int64 counts only while their total fits)."""
        if not len(codes):
            raise ValueError("multiset must have total multiplicity >= 1")
        if counts.min() < 1:
            raise ValueError("multiplicities must be positive")
        self._space, self._codes, self._counts = space, codes, counts
        self._cert = cert
        self._elems = self._mults = self._total = None

    @property
    def elems(self) -> tuple:
        if self._elems is None:
            self._elems = self._space.decode(self._codes)
        return self._elems

    @property
    def mults(self) -> tuple:
        if self._mults is None:
            self._mults = tuple(self._counts.tolist())
        return self._mults

    @property
    def cert(self) -> float | None:
        return self._cert

    @property
    def space(self):
        """The carrier (or row space) whose codes are stored."""
        return self._space

    @property
    def codes(self) -> np.ndarray:
        """The stored ascending codes (or image rows) of ``space``."""
        return self._codes

    def mult_array(self) -> np.ndarray:
        """The multiplicities as an array: int64 while their total fits,
        Python ints (object) beyond."""
        return self._counts

    def with_mults(self, mults: np.ndarray,
                   cert: float | None = None) -> "Multiset":
        """The same elements with a new multiplicity array."""
        return self._space.from_codes(self._codes, mults, cert)

    def coordinates(self) -> np.ndarray:
        """(support, width) int64 rows of the elements, a vector's
        coordinates or a permutation's images."""
        return self._space.coordinates(self._codes)

    def __eq__(self, other):
        if not isinstance(other, Multiset):
            return NotImplemented
        return (self.elems, self.mults, self.cert) == \
            (other.elems, other.mults, other.cert)

    def __hash__(self):
        return hash((self.elems, self.mults, self.cert))

    def __repr__(self):
        return (f"Multiset(elems={self.elems!r}, mults={self.mults!r}, "
                f"cert={self.cert!r})")

    # -- multiset arithmetic ---------------------------------------------

    @property
    def total(self) -> int:
        if self._total is None:
            self._total = int(self._counts.sum())
        return self._total

    @property
    def support(self) -> int:
        return len(self._codes)

    def pairs(self):
        return zip(self.elems, self.mults)

    def counts(self) -> dict:
        return dict(self.pairs())

    def with_cert(self, bound: float | None) -> "Multiset":
        out = Multiset.__new__(Multiset)
        for name in Multiset.__slots__:
            setattr(out, name, getattr(self, name))
        out._cert = bound
        return out

    def scaled(self, k: int) -> "Multiset":
        """Multiply every multiplicity by k (spectrum-invariant)."""
        if k < 1:
            raise ValueError("scale factor must be positive")
        counts = self.mult_array()
        if counts.dtype != object and self.total * k >= 2**63:
            counts = counts.astype(object)
        return self.with_mults(counts * k, self.cert)

    def gcd_reduced(self) -> "Multiset":
        """Divide multiplicities by their gcd (spectrum-invariant)."""
        g = int(np.gcd.reduce(self.mult_array()))
        if g <= 1:
            return self
        return self.with_mults(self.mult_array() // g, self.cert)


def multiset(pairs, cert: float | None = None) -> Multiset:
    """The multiset of (element, multiplicity) pairs, repeats merged and
    zero multiplicities dropped.

    Permutations are stored as image rows of their degree (another degree
    raises DegreeMismatch), coordinate tuples as codes of the vector group
    whose moduli are the column-wise maximum plus 1, so code order is tuple
    order (mixed widths or a negative coordinate raise ValueError).
    """
    from .carriers import PermRows, VectorCarrier
    elems, mults = [], []
    for e, m in pairs:
        m = int(m)
        if m < 0:
            raise ValueError("negative multiplicity")
        if m:
            elems.append(e)
            mults.append(m)
    if not elems:
        raise ValueError("multiset must have total multiplicity >= 1")
    if isinstance(elems[0], Perm):
        space = PermRows(elems[0].degree)
    else:
        if len(set(map(len, elems))) > 1:
            raise ValueError("elements of mixed widths")
        top = np.array(elems, dtype=np.int64).max(axis=0, initial=0)
        space = VectorCarrier(tuple(top + 1))
    weights = np.array(mults, dtype=np.int64 if max(mults) < 2**63 else object)
    return space.tally(space.codes(elems), weights, cert)


# ---------------------------------------------------------------------------
# file formats

def format_perm_multiset(ms: Multiset, degree: int) -> str:
    lines = [f"degree {degree}"]
    for e, m in ms.pairs():
        lines.append(f"{m} {format_perm(e)}")
    return "\n".join(lines) + "\n"


def parse_perm_multiset(text: str) -> tuple[int, Multiset]:
    """Multiset file: a ``degree <n>`` header, then one ``<m> <perm>`` line
    per element."""
    degree, lines = parse_degree_file(text)
    pairs = []
    for ln in lines:
        m_str, _, rest = ln.partition(" ")
        pairs.append((parse_perm(rest, degree), int(m_str)))
    return degree, multiset(pairs)


def format_rows(template: str, table: np.ndarray,
                repeats: np.ndarray | None = None) -> str:
    """template % tuple(row) for every row of a 2-D table, concatenated;
    with repeats, row i is written repeats[i] times in a row, as for
    ``np.repeat(table, repeats, axis=0)``.

    The template is ASCII literal text with one ``%d`` per column of the
    table and no other ``%``; the table holds non-negative integers, of an
    integer dtype or, beyond int64, object dtype (Python ints). Negative
    values raise ValueError.

    The text is written as bytes, a column at a time: a column's digits fill
    a block as wide as its largest value, computed in the column's own
    dtype, the literals are broadcast blocks, and one concatenation joins
    them. Each row is formatted once: repeats copy its padded bytes and its
    pad mask. Where a column also holds shorter values, one boolean compress
    drops their leading pad slots.
    """
    pieces = template.split("%d")
    rows, cols = table.shape
    if len(pieces) != cols + 1 or "%" in "".join(pieces):
        raise ValueError(f"template {template!r} is not {cols} plain %d")
    if rows == 0 or not template:
        return ""
    blocks, padded, at = [], [], 0     # padded: (first slot, column, width)
    for k, piece in enumerate(pieces):
        if piece:
            lit = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
            blocks.append(np.broadcast_to(lit, (rows, len(lit))))
            at += len(lit)
        if k == cols:
            break
        col = table[:, k]
        lo, hi = col.min(), col.max()
        if lo < 0:
            raise ValueError("format_rows writes non-negative integers only")
        width = len(str(hi))
        digits = np.empty((rows, width), dtype=np.uint8)
        v = col
        for slot in range(width - 1, 0, -1):
            digits[:, slot] = v % 10
            v = v // 10
        digits[:, 0] = v
        digits += 48
        blocks.append(digits)
        if width > 1 and lo < 10 ** (width - 1):
            padded.append((at, col, width))
        at += width
    text = np.concatenate(blocks, axis=1)
    keep = np.ones(text.shape, dtype=bool) if padded else None
    for first, col, width in padded:
        for s in range(width - 1):
            keep[:, first + s] = col >= 10 ** (width - 1 - s)
    if repeats is not None:
        text = text.repeat(repeats, axis=0)
        keep = None if keep is None else keep.repeat(repeats, axis=0)
    if keep is not None:
        text = text[keep]
    return text.tobytes().decode("ascii")
