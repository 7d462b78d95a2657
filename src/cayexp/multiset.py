"""Symmetric generating multisets with attached certified spectral bounds.

Elements are either Perm instances or integer coordinate tuples (abelian
vectors). Storage is canonical: distinct elements sorted ascending with
positive integer multiplicities, so equal multisets compare and serialize
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .perm import format_perm, parse_perm


class NonSymmetricError(ValueError):
    pass


@dataclass(frozen=True)
class Multiset:
    elems: tuple
    mults: tuple[int, ...]
    cert: float | None = None

    def __post_init__(self):
        if not self.elems:
            raise ValueError("multiset must have total multiplicity >= 1")
        if min(self.mults, default=1) < 1:
            raise ValueError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return sum(self.mults)

    @property
    def support(self) -> int:
        return len(self.elems)

    def pairs(self):
        return zip(self.elems, self.mults)

    def counts(self) -> dict:
        return dict(self.pairs())

    def with_cert(self, bound: float | None) -> "Multiset":
        return Multiset(self.elems, self.mults, bound)

    def scaled(self, k: int) -> "Multiset":
        """Multiply every multiplicity by k (spectrum-invariant)."""
        if k < 1:
            raise ValueError("scale factor must be positive")
        return Multiset(self.elems, tuple(m * k for m in self.mults),
                        self.cert)

    def gcd_reduced(self) -> "Multiset":
        """Divide multiplicities by their gcd (spectrum-invariant)."""
        g = math.gcd(*self.mults)
        if g <= 1:
            return self
        return Multiset(self.elems, tuple(m // g for m in self.mults),
                        self.cert)

    def expand(self) -> list:
        """Multiplicity-expanded element list, sorted (u_1, ..., u_total)."""
        out = []
        for e, m in self.pairs():
            out.extend([e] * m)
        return out

    def map_elems(self, fn, cert: float | None = None) -> "Multiset":
        """Image multiset under fn, multiplicities transported and merged."""
        acc: dict = {}
        for e, m in self.pairs():
            k = fn(e)
            acc[k] = acc.get(k, 0) + m
        return multiset(acc.items(), cert=cert)

    def add_identity(self, identity, extra: int) -> "Multiset":
        acc = self.counts()
        acc[identity] = acc.get(identity, 0) + extra
        return multiset(acc.items())

    def is_symmetric(self, inv_fn) -> bool:
        c = self.counts()
        return all(c.get(inv_fn(e), 0) == m for e, m in self.pairs())

    def require_symmetric(self, inv_fn) -> None:
        if not self.is_symmetric(inv_fn):
            raise NonSymmetricError(
                "multiset is not closed under inverses with matching "
                "multiplicities")

    def inverse_pairing(self, inv_fn) -> list[int]:
        """Pairing sigma on the expanded index range with u_sigma[i] = u_i^-1.

        The i-th copy of an element is paired with the i-th copy of its
        inverse, which makes sigma a deterministic involution.
        """
        expanded = self.expand()
        first_index = {}
        pos = 0
        for e, m in self.pairs():
            first_index[e] = pos
            pos += m
        sigma = [0] * len(expanded)
        counts = self.counts()
        for e, m in self.pairs():
            ie = first_index[e]
            inv = inv_fn(e)
            if inv not in counts or counts[inv] != m:
                raise NonSymmetricError(
                    "multiset is not closed under inverses with matching "
                    "multiplicities")
            iv = first_index[inv]
            for t in range(m):
                sigma[ie + t] = iv + t
        return sigma


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


def union(a: Multiset, b: Multiset, cert: float | None = None) -> Multiset:
    return multiset(list(a.pairs()) + list(b.pairs()), cert=cert)


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


def format_vector_multiset(ms: Multiset, shape) -> str:
    head = "shape " + " ".join(
        f"{p}^{e}:{n}" for p, e, n in shape.factors)
    lines = [head]
    for v, m in ms.pairs():
        lines.append(f"{m} {','.join(str(c) for c in v)}")
    return "\n".join(lines) + "\n"


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
