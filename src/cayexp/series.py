"""Derived series, normal closure, and the checked quotient constructor.

A group is held as its BSGS, which records its generators: a chain keeps
the BSGS of each term and a quotient (``carriers.QuotientCarrier``) those of
parent and kernel, so no group is built twice for its order, membership or
normality.

``quotient_context(H, N)`` checks that N is normal in H and returns the
quotient carrier H/N, the package's one quotient object. Its elements are
canonical coset representatives: the canonical representative of N*h is
the element of the coset with lexicographically smallest image array, so
N's is the identity. The carrier finds them for whole arrays of image rows
by descending the kernel's stabilizer chain (the chain stores generators at
their smallest moved point, so the greedy position-by-position choice is
exact). It numbers H/N by closure under H's generators, or, when N is
trivial, by the product of H's transversals (``carriers.PermCarrier`` is
H/1); nothing here canonicalizes a single element or lists H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bsgs import BSGS, schreier_sims
from .carriers import PermCarrier, QuotientCarrier
from .perm import GenSet, Perm, commutator, format_perm


class NormalityError(ValueError):
    pass


def normal_closure(ambient: GenSet, seed: list[Perm]) -> BSGS:
    """Smallest subgroup of <ambient> containing seed and normal in it."""
    gens = [p for p in dict.fromkeys(seed) if not p.is_identity()]
    closure = schreier_sims(GenSet(ambient.degree, tuple(gens)))
    queue = list(gens)
    while queue:
        c = queue.pop(0)
        for g in ambient.nontrivial_gens():
            t = c.conjugate(g)
            if not closure.contains(t):
                closure.adjoin(t)
                queue.append(t)
    return closure


def commutator_subgroup(g: GenSet) -> BSGS:
    seed = []
    for x in g.nontrivial_gens():
        for y in g.nontrivial_gens():
            c = commutator(x, y)
            if not c.is_identity():
                seed.append(c)
    return normal_closure(g, seed)


@dataclass(frozen=True)
class SubgroupChain:
    """A chain of subgroups, outermost first, each term held as its BSGS;
    generators and orders are read off the terms, so they cannot disagree."""

    terms: tuple[BSGS, ...]
    solvable: bool

    @property
    def groups(self) -> tuple[GenSet, ...]:
        return tuple(t.gens for t in self.terms)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(t.order() for t in self.terms)

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def derived_series(g: GenSet) -> SubgroupChain:
    """Chain of commutator subgroups down to the stabilized group.

    Terminates at the trivial group iff <g> is solvable; a non-solvable
    input is not an error, the series simply stabilizes above trivial and
    the solvable flag is cleared. Term 0 is the BSGS of g's one carrier
    (``PermCarrier.of(g).parent``), built once per group object; the terms
    below it are normal closures, each grown on a chain of its own.
    """
    terms = [PermCarrier.of(g).parent]
    solvable = True
    while terms[-1].order() > 1:
        nxt = commutator_subgroup(terms[-1].gens)
        if nxt.order() == terms[-1].order():
            solvable = False
            break
        terms.append(nxt)
    return SubgroupChain(tuple(terms), solvable)


def dixon_bound(degree: int) -> int:
    """Derived-length bound 5*log3(n) for solvable subgroups of S_n."""
    return math.ceil(5 * math.log(max(degree, 2), 3))


def require_subgroup(h: BSGS, n: BSGS) -> None:
    """NormalityError unless N is a subgroup of H."""
    if h.degree != n.degree:
        raise ValueError("degree mismatch between parent and kernel")
    for x in n.gens.nontrivial_gens():
        if not h.contains(x):
            raise NormalityError(
                f"kernel generator {format_perm(x)} is not in the parent group")


def quotient_context(h: BSGS, n: BSGS) -> QuotientCarrier:
    """The quotient carrier H/N, after checking that N is normal in H."""
    require_subgroup(h, n)
    for x in n.gens.nontrivial_gens():
        for g in h.gens.nontrivial_gens():
            conj = x.conjugate(g)
            if not n.contains(conj):
                raise NormalityError(
                    f"not normal: conjugate {format_perm(conj)} of "
                    f"{format_perm(x)} by {format_perm(g)} lies outside N")
    return QuotientCarrier(h, n)
