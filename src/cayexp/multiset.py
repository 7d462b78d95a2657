"""Symmetric generating multisets with attached certified spectral bounds.

Elements are either Perm instances or integer coordinate tuples (abelian
vectors). Storage is canonical: distinct elements sorted ascending with
positive integer multiplicities, so equal multisets compare and serialize
identically.

A multiset has one of two storage forms and the same behaviour in both. One
built from pairs, or by a permutation or quotient carrier, holds its element
and multiplicity tuples. A vector multiset built by
``VectorCarrier.from_codes`` or ``tally`` holds its carrier (``space``), its
ascending mixed-radix codes and its multiplicity array instead, and makes
the ``elems``/``mults`` tuples only when they are read. Code order is
lexicographic tuple order, so both forms list the same elements in the same
order; equality and hashing are by element.

Arithmetic that needs the group (inverses, products, unions, symmetry,
images under homomorphisms) is written on the carriers' array protocol (see
``carriers``); a multiset itself only scales and reduces its
multiplicities.
"""

from __future__ import annotations

import numpy as np

from .perm import format_perm, parse_perm


class NonSymmetricError(ValueError):
    pass


NOT_SYMMETRIC = ("multiset is not closed under inverses with matching "
                 "multiplicities")


class Multiset:
    __slots__ = ("_elems", "_mults", "_cert", "_space", "_codes", "_counts",
                 "_total")

    def __init__(self, elems, mults, cert: float | None = None):
        self._elems = elems
        self._mults = mults
        self._cert = cert
        self._space = self._codes = self._counts = self._total = None
        if not elems:
            raise ValueError("multiset must have total multiplicity >= 1")
        if min(mults, default=1) < 1:
            raise ValueError("multiplicities must be positive")

    @classmethod
    def _coded(cls, space, codes: np.ndarray, counts: np.ndarray,
               cert: float | None) -> "Multiset":
        """Code storage: ascending codes of ``space`` and their counts
        (read-only arrays, int64 counts only while their total fits)."""
        if not len(codes):
            raise ValueError("multiset must have total multiplicity >= 1")
        if counts.min() < 1:
            raise ValueError("multiplicities must be positive")
        out = cls.__new__(cls)
        out._elems = out._mults = out._total = None
        out._cert = cert
        out._space, out._codes, out._counts = space, codes, counts
        return out

    # -- the two storage forms -------------------------------------------

    @property
    def elems(self) -> tuple:
        if self._elems is None:
            cols = self._space.unravel(self._codes).T.tolist()
            self._elems = tuple(zip(*cols))
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
        """The VectorCarrier whose codes are stored, or None."""
        return self._space

    @property
    def codes(self) -> np.ndarray | None:
        """The stored ascending codes in ``space``, or None."""
        return self._codes

    def mult_array(self) -> np.ndarray:
        """The multiplicities as an array: int64 while their total fits,
        Python ints (object) beyond."""
        if self._counts is None:
            dtype = np.int64 if self.total < 2**63 else object
            counts = np.array(self._mults, dtype=dtype)
            counts.flags.writeable = False
            self._counts = counts
        return self._counts

    def with_mults(self, mults: np.ndarray,
                   cert: float | None = None) -> "Multiset":
        """The same elements with a new multiplicity array."""
        if self._codes is None:
            return Multiset(self._elems, tuple(mults.tolist()), cert)
        return self._space.from_codes(self._codes, mults, cert)

    def coordinates(self) -> np.ndarray:
        """(support, width) int64 coordinates of a vector multiset's
        elements: unravelled from its codes, or read from its tuples."""
        if self._codes is None:
            return np.array(self._elems, dtype=np.int64)
        return self._space.unravel(self._codes)

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
            self._total = sum(self._mults) if self._counts is None \
                else int(self._counts.sum())
        return self._total

    @property
    def support(self) -> int:
        return len(self._elems if self._codes is None else self._codes)

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
    acc: dict = {}
    for e, m in pairs:
        m = int(m)
        if m < 0:
            raise ValueError("negative multiplicity")
        if m:
            acc[e] = acc.get(e, 0) + m
    items = sorted(acc.items())
    return Multiset(tuple(e for e, _ in items), tuple(m for _, m in items),
                    cert)


# ---------------------------------------------------------------------------
# file formats

def format_perm_multiset(ms: Multiset, degree: int) -> str:
    lines = [f"degree {degree}"]
    for e, m in ms.pairs():
        lines.append(f"{m} {format_perm(e)}")
    return "\n".join(lines) + "\n"


def parse_perm_multiset(text: str) -> tuple[int, Multiset]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("degree"):
        raise ValueError("expected 'degree <n>' header")
    degree = int(lines[0].split()[1])
    pairs = []
    for ln in lines[1:]:
        m_str, _, rest = ln.partition(" ")
        pairs.append((parse_perm(rest, degree), int(m_str)))
    return degree, multiset(pairs)


def format_rows(template: str, table: np.ndarray) -> str:
    """template % row for every row of an integer table, concatenated."""
    return (template * len(table)) % tuple(table.ravel().tolist())


def format_vector_multiset(ms: Multiset, shape) -> str:
    head = "shape " + " ".join(
        f"{p}^{e}:{n}" for p, e, n in shape.factors)
    coords = ms.coordinates()
    row = "%d " + ",".join(["%d"] * coords.shape[1]) + "\n"
    return head + "\n" + format_rows(
        row, np.column_stack((ms.mult_array(), coords)))


def parse_vector_multiset(text: str):
    from .carriers import AbelianShape
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("shape"):
        raise ValueError("expected 'shape ...' header")
    factors = []
    for tok in lines[0].split()[1:]:
        pe, _, n = tok.partition(":")
        p, _, e = pe.partition("^")
        factors.append((int(p), int(e), int(n)))
    shape = AbelianShape(tuple(factors))
    pairs = []
    for ln in lines[1:]:
        m_str, _, rest = ln.partition(" ")
        vec = tuple(int(c) for c in rest.split(","))
        if len(vec) != shape.width:
            raise ValueError(f"vector width {len(vec)} != {shape.width}")
        pairs.append((vec, int(m_str)))
    return shape, multiset(pairs)
