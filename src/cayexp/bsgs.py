"""Base and strong generating sets via deterministic Schreier-Sims.

The base is kept sorted ascending, and every strong generator is stored at
the level of its smallest moved point. As a consequence the group at the
level for point b is exactly the stabilizer of all points below b, which is
what the minimum-image coset canonicalization of
``carriers.QuotientCarrier`` descends.
Transversal representatives u_beta satisfy u_beta[b] = beta, so every group
element factors uniquely as stab_element * u_beta.
Nothing here enumerates a group or has a size cap: the element tables, and
the ``MethodCapacityError`` above their cap, are the carriers' (a
permutation group's and a quotient's, each capped at its own order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .perm import GenSet, Perm


@dataclass
class _Level:
    point: int
    gens: list[Perm] = field(default_factory=list)
    transversal: dict[int, Perm] = field(default_factory=dict)


class BSGS:
    """Strong generating set with transversals along a fixed base, built by
    ``schreier_sims`` from the generating set ``gens``."""

    def __init__(self, gens: GenSet):
        self.gens = gens
        self.degree = gens.degree
        self.levels: list[_Level] = []

    # -- construction -------------------------------------------------------
    #
    # The group at level i is generated by the generators stored at levels
    # i..end (each generator lives at the level of its smallest moved point),
    # so orbits and Schreier generators at level i must range over that
    # whole suffix.

    def _level_gens(self, i: int) -> list[Perm]:
        return [g for lv in self.levels[i:] for g in lv.gens]

    def _rebuild_orbit(self, i: int) -> None:
        lv = self.levels[i]
        gens = self._level_gens(i)
        trans = {lv.point: Perm.identity(self.degree)}
        frontier = [lv.point]
        while frontier:
            nxt = []
            for a in frontier:
                u = trans[a]
                for gen in gens:
                    b = gen.img[a]
                    if b not in trans:
                        trans[b] = u * gen
                        nxt.append(b)
            frontier = sorted(nxt)
        lv.transversal = trans

    def _sift(self, p: Perm) -> tuple[Perm, int]:
        """Reduce p through the chain; returns (residue, failing level)."""
        for i, lv in enumerate(self.levels):
            beta = p.img[lv.point]
            if beta == lv.point:
                continue
            u = lv.transversal.get(beta)
            if u is None:
                return p, i
            p = p * u.inv()
        return p, len(self.levels)

    def _add(self, p: Perm) -> bool:
        """Add an element to the generated group; True if it was new."""
        residue, _ = self._sift(p)
        if residue.is_identity():
            return False
        moved = min(x for x in range(self.degree) if residue.img[x] != x)
        i = 0
        while i < len(self.levels) and self.levels[i].point < moved:
            i += 1
        if i == len(self.levels) or self.levels[i].point != moved:
            self.levels.insert(i, _Level(moved))
        self.levels[i].gens.append(residue)
        for j in range(i + 1):
            self._rebuild_orbit(j)
        return True

    def _complete(self) -> None:
        """Close the chain: every Schreier generator must sift to identity."""
        changed = True
        while changed:
            changed = False
            for i in reversed(range(len(self.levels))):
                lv = self.levels[i]
                for beta in sorted(lv.transversal):
                    u = lv.transversal[beta]
                    for gen in self._level_gens(i):
                        rep = lv.transversal[gen.img[beta]]
                        schreier = u * gen * rep.inv()
                        if self._add(schreier):
                            changed = True

    def adjoin(self, p: Perm) -> None:
        """Add p to the generators; the chain stays complete."""
        self.gens = GenSet(self.degree, self.gens.gens + (p,))
        self._add(p)
        self._complete()

    # -- queries -------------------------------------------------------------

    @property
    def base(self) -> list[int]:
        return [lv.point for lv in self.levels]

    def strong_gens(self) -> list[Perm]:
        out: list[Perm] = []
        seen = set()
        for lv in self.levels:
            for g in lv.gens:
                if g not in seen:
                    seen.add(g)
                    out.append(g)
        return out

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.transversal)
        return n

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        residue, _ = self._sift(p)
        return residue.is_identity()


def schreier_sims(g: GenSet) -> BSGS:
    b = BSGS(g)
    for p in g.nontrivial_gens():
        b._add(p)
    b._complete()
    return b


# ---------------------------------------------------------------------------
# Jerrum's filter: any G <= S_n is generated by at most n-1 permutations.
#
# Each stored permutation g is charged to the edge {a, g[a]} with a the
# smallest point g moves (so a < g[a] always), and the charged edges form a
# forest on n vertices. A permutation whose edge would close a cycle is
# rewritten around the cycle; the rewriting removes a generator charged at
# the cycle's minimum vertex and re-inserts words moving only larger points,
# so the multiset of charged minima decreases lexicographically and the
# filter terminates.

def jerrum_reduce(g: GenSet) -> GenSet:
    n = g.degree
    edges: dict[tuple[int, int], Perm] = {}
    for p in dict.fromkeys(g.nontrivial_gens()):
        _filter_insert(edges, p, n)
    gens = tuple(edges[k] for k in sorted(edges))
    return GenSet(n, gens)


def _min_moved(p: Perm) -> int:
    return min(x for x in range(p.degree) if p.img[x] != x)


def _forest_path(edges, a: int, b: int) -> list[int] | None:
    """Vertex path from a to b in the forest, or None if disconnected."""
    adj: dict[int, list[int]] = {}
    for x, y in edges:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    prev = {a: a}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            path = [b]
            while path[-1] != a:
                path.append(prev[path[-1]])
            path.reverse()
            return path
        for y in adj.get(x, ()):
            if y not in prev:
                prev[y] = x
                stack.append(y)
    return None


def _filter_insert(edges: dict[tuple[int, int], Perm], h: Perm, n: int) -> None:
    fuel = 4 * n * n * (len(edges) + 2)
    while not h.is_identity():
        fuel -= 1
        if fuel < 0:
            raise RuntimeError("jerrum filter failed to terminate")
        a = _min_moved(h)
        b = h.img[a]
        key = (a, b)
        stored = edges.get(key)
        if stored is not None:
            h = h * stored.inv()
            continue
        path = _forest_path(edges, a, b)
        if path is None:
            edges[key] = h
            return
        # the new edge closes a cycle: walk it from its minimum vertex
        walk = path + [a]          # a -> ... -> b -> a, last step via h^-1
        v_at = walk.index(min(walk[:-1]))
        cycle = walk[v_at:-1] + walk[:v_at] + [walk[v_at]]
        u = Perm.identity(n)
        h_step = None
        first_step = None
        for x, y in zip(cycle, cycle[1:]):
            if {x, y} == {a, b} and h_step is None:
                step_perm = h if x == a else h.inv()
                h_step = (x, y)
            else:
                e = edges[(min(x, y), max(x, y))]
                step_perm = e if e.img[x] == y else e.inv()
            if first_step is None:
                first_step = (x, y)
            u = u * step_perm
        if h_step == first_step:
            # h itself is charged at the cycle minimum: fold it into the word
            h = u
        else:
            x, y = first_step
            removed_key = (min(x, y), max(x, y))
            del edges[removed_key]
            edges[key] = h
            h = u
