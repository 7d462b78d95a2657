"""Deterministic construction of small finite fields GF(p^m).

Fields here are quadratically bounded by construction (p^m = O(n^2) in the
pipeline), so the modulus search is an exhaustive scan: the lexicographically
first monic irreducible polynomial, ordered by coefficient tuple
(c_0, c_1, ..., c_{m-1}) of x^m + sum c_i x^i. Elements are coefficient
vectors in the power basis; the inner product is the coefficient dot product
mod p and is bilinear by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

SIZE_BOUND = 10**7


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _polymul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _polymod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod is monic of degree m (length m+1)
    a = list(a)
    m = len(mod) - 1
    for i in range(len(a) - 1, m - 1, -1):
        c = a[i] % p
        if c:
            for j in range(m + 1):
                a[i - m + j] = (a[i - m + j] - c * mod[j]) % p
    out = [v % p for v in a[:m]]
    out += [0] * (m - len(out))
    return tuple(out)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    m = len(poly) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for idx in range(p**d):
            divisor = _from_index(idx, d, p) + (1,)
            if not any(_polymod(poly, divisor, p)):
                return False
    return True


def _from_index(idx: int, length: int, p: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(idx % p)
        idx //= p
    return tuple(out)


@dataclass(frozen=True)
class FieldSpec:
    p: int
    m: int
    modulus: tuple[int, ...]   # length m+1, monic

    @property
    def size(self) -> int:
        return self.p ** self.m

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.m)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise ValueError(f"need {self.m} coefficients")
        return FieldElement(self, coeffs)

    def from_index(self, idx: int) -> "FieldElement":
        """Element whose coefficient vector is the base-p digits of idx."""
        if not 0 <= idx < self.size:
            raise ValueError("index out of range")
        return FieldElement(self, _from_index(idx, self.m, self.p))


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _check(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise ValueError("field spec mismatch")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple(
            (a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        prod = _polymul(self.coeffs, other.coeffs, self.spec.p)
        return FieldElement(self.spec, _polymod(prod, self.spec.modulus,
                                                self.spec.p))

    def scale(self, k: int) -> "FieldElement":
        p = self.spec.p
        return FieldElement(self.spec, tuple((k * c) % p for c in self.coeffs))


def construct_field(p: int, m: int) -> FieldSpec:
    """GF(p^m) with the lexicographically first monic irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    if p**m > SIZE_BOUND:
        raise ValueError(f"field size {p**m} exceeds bound {SIZE_BOUND}")
    return _construct_field_cached(p, m)


@lru_cache(maxsize=None)
def _construct_field_cached(p: int, m: int) -> FieldSpec:
    for idx in range(p**m):
        poly = _from_index(idx, m, p) + (1,)
        if _is_irreducible(poly, p):
            return FieldSpec(p, m, poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable
