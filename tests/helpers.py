"""Brute-force oracles, instance generators and a call counter shared by
the test suite.

Everything here is independent of the code paths it checks: closures are
plain BFS products, character sums are evaluated term by term, and spectra
come straight from numpy on explicitly built matrices.
"""

import cmath
import random
import sys

import numpy as np

import cayexp
from cayexp import bsgs
from cayexp.multiset import Multiset, multiset
from cayexp.perm import GenSet, Perm


def brute_closure(g: GenSet) -> set[Perm]:
    """All elements of <g> by breadth-first products."""
    els = {g.identity()}
    frontier = list(els)
    while frontier:
        nxt = []
        for e in frontier:
            for x in g.nontrivial_gens():
                p = e * x
                if p not in els:
                    els.add(p)
                    nxt.append(p)
        frontier = nxt
    return els


def brute_commutator_subgroup(elements: set[Perm]) -> set[Perm]:
    """Closure of all commutators of the full element set."""
    els = sorted(elements)
    comms = set()
    for x in els:
        xi = x.inv()
        for y in els:
            comms.add(xi * y.inv() * x * y)
    # close under products
    group = set(comms)
    frontier = list(group)
    while frontier:
        nxt = []
        for e in frontier:
            for c in comms:
                p = e * c
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    return group


def naive_bias(moduli, ms: Multiset) -> float:
    """Term-by-term character sums over every nontrivial character."""
    total = ms.total
    best = 0.0
    for beta in np.ndindex(*moduli):
        if not any(beta):
            continue
        s = 0j
        for v, m in ms.pairs():
            phase = sum(b * c / mod for b, c, mod in zip(beta, v, moduli))
            s += m * cmath.exp(2j * cmath.pi * phase)
        best = max(best, abs(s) / total)
    return best


def naive_cayley_lambda2(elements: list[Perm], ms: Multiset) -> float:
    """Dense lambda2 from an explicitly built adjacency matrix."""
    idx = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    m = np.zeros((n, n))
    for s, w in ms.pairs():
        for p in elements:
            m[idx[p], idx[p * s]] += w
    m /= ms.total
    evs = np.linalg.eigvalsh(m)
    return float(max(-evs[0], evs[-2], 0.0)) if n > 1 else 0.0


def random_symmetric_multiset(elements: list[Perm], seed: int,
                              k: int = 4, lazy: bool = True) -> Multiset:
    """A symmetric multiset drawn from the given elements, seeded."""
    rng = random.Random(seed)
    pool = [p for p in elements if not p.is_identity()]
    picks = rng.sample(pool, min(k, len(pool)))
    pairs = {}
    for p in picks:
        pairs[p] = pairs.get(p, 0) + 1
        q = p.inv()
        pairs[q] = pairs.get(q, 0) + 1
    if lazy:
        ident = elements[0] ** 0
        pairs[ident] = pairs.get(ident, 0) + 2
    return multiset(pairs.items())


# ---------------------------------------------------------------------------
# numpy-batched closure oracles, fast enough for |G| up to 10^4

def np_closure(g: GenSet) -> np.ndarray:
    """All elements of <g> as a lexicographically sorted (N, n) array."""
    n = g.degree
    gens = [np.array(p.img, dtype=np.int16) for p in g.nontrivial_gens()]
    ident = np.arange(n, dtype=np.int16)
    known = {ident.tobytes()}
    rows = [ident[None, :]]
    frontier = ident[None, :]
    while frontier.size:
        new = []
        for gen in gens:
            prod = gen[frontier]          # compose(p, gen)[i] = gen[p[i]]
            for row in prod:
                b = row.tobytes()
                if b not in known:
                    known.add(b)
                    new.append(row)
        frontier = np.array(new, dtype=np.int16) if new \
            else np.empty((0, n), dtype=np.int16)
        if new:
            rows.append(frontier)
    out = np.concatenate(rows, axis=0)
    order = np.lexsort(out.T[::-1])
    return out[order]


def np_commutator_closure(els: np.ndarray) -> np.ndarray:
    """Subgroup generated by all commutators of the given element array."""
    inv = np.argsort(els, axis=1).astype(np.int16)
    n = els.shape[1]
    # a row as one void scalar: unique over these compares bytes, far
    # cheaper than unique(axis=0); the sorted unique below fixes the order
    void_row = np.dtype((np.void, els.dtype.itemsize * n))
    chunks = []
    for x in range(els.shape[0]):
        xr = els[x]
        xinv = inv[x]
        tmp = xr[inv[:, xinv]]            # x[yinv[xinv[i]]]
        comm = np.take_along_axis(els, tmp, axis=1)
        chunks.append(np.unique(np.ascontiguousarray(comm).view(void_row)))
    comms = np.unique(np.concatenate(chunks)).view(els.dtype).reshape(-1, n)
    comms = np.unique(comms, axis=0)
    # close under products with the commutator set
    known = {row.tobytes() for row in comms}
    ident = np.arange(n, dtype=np.int16)
    known.add(ident.tobytes())
    frontier = comms
    all_rows = [comms, ident[None, :].astype(np.int16)]
    while frontier.size:
        new = []
        for start in range(0, frontier.shape[0], 256):
            block = frontier[start:start + 256]
            for crow in comms:
                prod = crow[block]
                for row in prod:
                    b = row.tobytes()
                    if b not in known:
                        known.add(b)
                        new.append(row)
        frontier = np.array(new, dtype=np.int16) if new \
            else np.empty((0, n), dtype=np.int16)
        if new:
            all_rows.append(frontier)
    out = np.unique(np.concatenate(all_rows, axis=0), axis=0)
    return out


def projective_line(q: int, mult: int) -> GenSet:
    """x -> x+1, x -> mult*x, x -> -1/x on GF(q) u {inf} (point q = inf).

    mult a primitive root gives PGL(2, q), a non-trivial square PSL(2, q).
    """
    inf = q
    maps = (lambda x: inf if x == inf else (x + 1) % q,
            lambda x: inf if x == inf else (mult * x) % q,
            lambda x: 0 if x == inf else
            (inf if x == 0 else (-pow(x, -1, q)) % q))
    return GenSet(q + 1, tuple(Perm([f(x) for x in range(q + 1)])
                               for f in maps))


def count_calls(monkeypatch, orig) -> list:
    """Record the first argument of every call of a package function.

    ``orig`` is rebound for the rest of a test under every name a
    ``cayexp`` module holds it by, so calls through ``from .bsgs import
    schreier_sims`` and through ``_kernels.cayley_matvec`` count alike.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == cayexp.__name__ or name.startswith("cayexp."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def count_schreier_sims(monkeypatch) -> list[GenSet]:
    """Record every Schreier-Sims build for the rest of a test."""
    return count_calls(monkeypatch, bsgs.schreier_sims)
