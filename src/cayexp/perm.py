"""Permutation arithmetic on {1..n}.

Permutations are stored as 0-based image tuples internally; all text formats
(cycle notation, image lists) are 1-based. The composition convention is
left-to-right throughout the package: (p * q) means "apply p, then q", i.e.
(p * q)[x] = q[p[x]]. Group elements act on points on the right, so Cayley
graph edges are {x, x*s}.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field


class ParseError(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


class Perm:
    """A permutation of {0..n-1}, immutable and hashable."""

    __slots__ = ("img",)

    def __init__(self, img):
        self.img = tuple(img)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(n))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Perm":
        """Build a permutation from 0-based cycles."""
        img = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                img[a] = b
            if cyc:
                img[cyc[-1]] = cyc[0]
        return Perm(img)

    @property
    def degree(self) -> int:
        return len(self.img)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.img))

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.img) != len(other.img):
            raise DegreeMismatch(
                f"degree {len(self.img)} vs {len(other.img)}")
        o = other.img
        return Perm(tuple(o[i] for i in self.img))

    def inv(self) -> "Perm":
        out = [0] * len(self.img)
        for i, j in enumerate(self.img):
            out[j] = i
        return Perm(out)

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inv() ** (-k)
        result = Perm.identity(len(self.img))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        seen = [False] * len(self.img)
        out = []
        for i in range(len(self.img)):
            if seen[i] or self.img[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.img[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.img[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        """lcm of the cycle lengths."""
        r = 1
        for cyc in self.cycles():
            r = math.lcm(r, len(cyc))
        return r

    def conjugate(self, g: "Perm") -> "Perm":
        """g^-1 * self * g."""
        return g.inv() * self * g

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.img == other.img

    def __lt__(self, other: "Perm") -> bool:
        return self.img < other.img

    def __le__(self, other: "Perm") -> bool:
        return self.img <= other.img

    def __hash__(self) -> int:
        return hash(self.img)

    def __repr__(self) -> str:
        return f"Perm({format_perm(self)!r})"


def commutator(x: Perm, y: Perm) -> Perm:
    """x^-1 y^-1 x y."""
    return x.inv() * y.inv() * x * y


# ---------------------------------------------------------------------------
# text formats (1-based)

_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")
_IMAGES_RE = re.compile(r"\[([\d\s,]*)\]")


def format_perm(p: Perm) -> str:
    """Cycle notation, 1-based; the identity prints as ``()``."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycs)


def parse_perm(text: str, degree: int) -> Perm:
    """Parse cycle notation ``(1 2 3)(4 5)`` or image list ``[2,3,1,5,4]``."""
    s = text.strip()
    if not s:
        raise ParseError("empty permutation")
    m = _IMAGES_RE.fullmatch(s)
    if m:
        body = m.group(1).replace(",", " ").split()
        vals = [int(v) for v in body]
        if sorted(vals) != list(range(1, degree + 1)):
            raise ParseError(f"not an image list of 1..{degree}: {text!r}")
        return Perm(v - 1 for v in vals)
    pos = 0
    cycles = []
    for m in _CYCLE_RE.finditer(s):
        if s[pos:m.start()].strip():
            raise ParseError(f"unexpected text in {text!r}")
        pos = m.end()
        body = m.group(1).replace(",", " ").split()
        cyc = [int(v) - 1 for v in body]
        if any(v < 0 or v >= degree for v in cyc):
            raise ParseError(f"point out of range 1..{degree} in {text!r}")
        if len(set(cyc)) != len(cyc):
            raise ParseError(f"repeated point in cycle: {text!r}")
        if len(cyc) >= 2:
            cycles.append(cyc)
    if pos != len(s) and s[pos:].strip():
        raise ParseError(f"could not parse permutation {text!r}")
    if not cycles and s.replace(" ", "") not in ("()",) and "(" not in s:
        raise ParseError(f"could not parse permutation {text!r}")
    seen: set[int] = set()
    for cyc in cycles:
        if seen.intersection(cyc):
            raise ParseError(f"cycles not disjoint in {text!r}")
        seen.update(cyc)
    return Perm.from_cycles(degree, cycles)


@dataclass(frozen=True)
class GenSet:
    """A permutation group given by generators of a common degree.

    The empty generator list denotes the trivial group of the stated degree.
    ``carriers.PermCarrier.of`` keeps the group's carrier on the object,
    outside the fields that equality, hashing and repr read.
    """

    degree: int
    gens: tuple[Perm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        object.__setattr__(self, "gens", tuple(self.gens))
        for g in self.gens:
            if g.degree != self.degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != {self.degree}")

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def nontrivial_gens(self) -> list[Perm]:
        return [g for g in self.gens if not g.is_identity()]


def parse_degree_file(text: str) -> tuple[int, list[str]]:
    """The degree n of a file whose first line is ``degree <n>``, and its
    lines after that; blank lines and ``#`` comments are dropped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty file: expected a 'degree <n>' header")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "degree":
        raise ParseError(f"expected 'degree <n>' header, got {lines[0]!r}")
    try:
        degree = int(head[1])
    except ValueError:
        raise ParseError(f"bad degree {head[1]!r}") from None
    if degree < 1:
        raise ParseError("degree must be >= 1")
    return degree, lines[1:]


def parse_group_file(text: str) -> GenSet:
    """Group file: first line ``degree <n>``, then one generator per line."""
    degree, lines = parse_degree_file(text)
    return GenSet(degree, tuple(parse_perm(ln, degree) for ln in lines))
