"""Brute-force oracles, instance generators and a call counter shared by
the test suite.

Everything here is independent of the code paths it checks: closures are
plain BFS products, character sums are evaluated term by term, and spectra
come straight from numpy on explicitly built matrices.
"""

import cmath
import inspect
import random
import sys

import numpy as np

import cayexp
from cayexp import bsgs, catalog, obs, spectra
from cayexp.carriers import QuotientCarrier, VectorCarrier
from cayexp.combine import AmplificationError, AuxExpander
from cayexp.multiset import (NOT_SYMMETRIC, Multiset, NonSymmetricError,
                             multiset)
from cayexp.perm import GenSet, Perm
from cayexp.spectra import dense_spectrum


# every named group of the catalog (each lies below DENSE_CAP)
CATALOG_GROUPS = sorted(
    name for name, fn in inspect.getmembers(catalog, inspect.isfunction)
    if fn.__module__ == catalog.__name__ and not name.startswith("_")
    and not inspect.signature(fn).parameters)


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


def transversal(level) -> dict[int, Perm]:
    """A chain level's transversal read off its image rows: orbit point ->
    representative, in walk order."""
    return {b: Perm(u) for b, u in zip(level.points.tolist(),
                                         level.rows.tolist())}


def transversal_elements(b: bsgs.BSGS) -> list[Perm]:
    """All elements of a BSGS's group as products of transversal
    representatives, in a deterministic order."""
    out = [Perm.identity(b.degree)]
    for lv in reversed(b.levels):
        reps = [u for _, u in sorted(transversal(lv).items())]
        out = [p * u for p in out for u in reps]
    return out


def elements(carrier) -> list:
    """A carrier's elements in code order: the coordinate tuples of a
    vector group, the rows of a permutation group's element table as
    permutations, the canonical representatives of a quotient's cosets."""
    if isinstance(carrier, VectorCarrier):
        grid = np.indices(carrier.moduli).reshape(len(carrier.moduli), -1)
        return [tuple(int(c) for c in row) for row in grid.T]
    return list(carrier.decode(carrier.image_rows(slice(None))))


def canonicalize(quotient, h: Perm) -> Perm:
    """The least-image representative of the coset N*h, one kernel level
    at a time: the level's group fixes every point below its base point,
    so the image at the base point is h[beta] for an orbit point beta."""
    for lv in quotient.kernel.levels:
        reps = transversal(lv)
        beta = min(reps, key=lambda b: h.img[b])
        h = reps[beta] * h
    return h


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
# one element at a time: the group operations of the three carriers

def elem_inv(carrier, e):
    """The inverse of one element: negated coordinates on a vector group,
    the inverse permutation, or the canonical representative of the inverse
    coset."""
    if isinstance(carrier, VectorCarrier):
        return tuple((-x) % m for x, m in zip(e, carrier.moduli))
    if isinstance(carrier, QuotientCarrier):
        return canonicalize(carrier, e.inv())
    return e.inv()


def elem_mul(carrier, a, b):
    """The product of two elements, in the carrier's convention."""
    if isinstance(carrier, VectorCarrier):
        return tuple((x + y) % m for x, y, m in zip(a, b, carrier.moduli))
    if isinstance(carrier, QuotientCarrier):
        return canonicalize(carrier, a * b)
    return a * b


# ---------------------------------------------------------------------------
# element-by-element references for combine's multiset bookkeeping: dicts
# of elements and the per-element inv and mul above

def symmetric_by_elements(carrier, ms: Multiset) -> bool:
    """Every element's inverse has the element's multiplicity."""
    c = ms.counts()
    return all(c.get(elem_inv(carrier, e), 0) == m for e, m in ms.pairs())


def ref_symmetrize(carrier, ms: Multiset) -> Multiset:
    """The multiset doubled by its inverses, gcd-reduced; a symmetric one
    unchanged."""
    if symmetric_by_elements(carrier, ms):
        return ms
    pairs = list(ms.pairs()) + [(elem_inv(carrier, e), m)
                                for e, m in ms.pairs()]
    return multiset(pairs, cert=ms.cert).gcd_reduced()


def ref_pair_units(carrier, ms: Multiset):
    """(sizes, members) of the inverse-pair units, heaviest first."""
    index = {e: i for i, e in enumerate(ms.elems)}
    units = []
    for i, e in enumerate(ms.elems):
        f = elem_inv(carrier, e)
        if index.get(f, i) >= i:
            units.append((i, (e,) if f == e else (e, f)))
    heads = np.array([i for i, _ in units], dtype=np.int64)
    sizes = np.array([len(u) for _, u in units], dtype=np.int64)

    def build(us):
        return multiset([(e, 1) for u in us.tolist() for e in units[u][1]])
    weight = ms.mult_array()[heads]
    order = np.argsort(-weight, kind="stable")
    return sizes[order], lambda us: build(order[us])


def ref_pad_to_total(carrier, ms: Multiset, target: int) -> Multiset:
    """Refuse a non-symmetric multiset; replicate, then put the remainder
    on the identity. A multiset already at the target comes back as it
    is."""
    total = ms.total
    if target < total:
        raise ValueError("target below current total")
    if not symmetric_by_elements(carrier, ms):
        raise NonSymmetricError(NOT_SYMMETRIC)
    if target == total:
        return ms
    q, r = divmod(target, total)
    out_counts = {e: m * q for e, m in ms.pairs()}
    if r:
        ident = carrier.identity()
        out_counts[ident] = out_counts.get(ident, 0) + r
    cert = None
    if ms.cert is not None:
        cert = (q * total * ms.cert + r) / target
    return multiset(out_counts.items(), cert=cert)


def ref_derandomized_square(carrier, u: Multiset, h) -> Multiset:
    """Products u_i * u_j and u_i^-1 * u_j^-1 over the arcs of h, with the
    i-th copy of an element paired with the i-th copy of its inverse."""
    if h.vertex_count != u.total:
        raise ValueError("aux vertex count differs from the total")
    cert = None if u.cert is None else u.cert * u.cert + h.certified_mu
    expanded = [e for e, m in u.pairs() for _ in range(m)]
    first = {}
    for i, e in enumerate(expanded):
        first.setdefault(e, i)
    counts = u.counts()
    sigma = []
    for i, e in enumerate(expanded):
        f = elem_inv(carrier, e)
        if counts.get(f) != counts[e]:
            raise NonSymmetricError(NOT_SYMMETRIC)
        sigma.append(first[f] + i - first[e])
    acc = {}
    for ell in range(h.degree):
        for i, j in enumerate(h.neighbors[:, ell].tolist()):
            for p in (elem_mul(carrier, expanded[i], expanded[j]),
                      elem_mul(carrier, expanded[sigma[i]],
                               expanded[sigma[j]])):
                acc[p] = acc.get(p, 0) + 1
    return multiset(acc.items(), cert=cert)


# ---------------------------------------------------------------------------
# element-by-element references for the construction's pushforwards: each
# maps one element tuple (or coset representative) at a time, and
# ref_map_elems merges the images in a dict

def ref_map_elems(ms: Multiset, fn, cert=None) -> Multiset:
    """Image multiset under fn, multiplicities transported and merged."""
    acc = {}
    for e, m in ms.pairs():
        k = fn(e)
        acc[k] = acc.get(k, 0) + m
    return multiset(acc.items(), cert=cert)


def crt_split(x: int, primes) -> tuple:
    """Z_{p_1...p_k} -> prod Z_{p_j}: the residues of x."""
    return tuple(x % p for p in primes)


def embed_window(vec, widths_src, widths_dst, offset) -> tuple:
    """Place per-block source coordinates at `offset` inside wider blocks."""
    out = []
    pos = 0
    for ws, wd in zip(widths_src, widths_dst):
        block = [0] * wd
        for i in range(ws):
            block[offset + i] = vec[pos + i]
        pos += ws
        out.extend(block)
    return tuple(out)


def kfold_embed(vec, fac, n, lo, hi, src_lo, src_hi) -> tuple:
    """Embed a [src_lo, src_hi) window vector of Z_d^n's prime-power blocks
    into the [lo, hi) window, each coordinate scaled by p^(src_lo - lo)."""
    out = []
    pos = 0
    for p, e in fac:
        wd = max(0, min(hi, e) - lo)
        ws = max(0, min(src_hi, e) - src_lo)
        shift = p ** (src_lo - lo)
        if wd:
            for i in range(n):
                v = vec[pos + i] if ws else 0
                out.append((v * shift) % (p**wd))
        if ws:
            pos += n
    return tuple(out)


def level_map(hom, quotient, s: int, live, vec) -> Perm:
    """phi_s(a) = prod y_ij^(a_ij p_j^s) over the live prime blocks of a,
    each block len(hom.xs) wide, as a canonical representative of quotient."""
    rank = len(hom.xs)
    acc = Perm.identity(quotient.parent.degree)
    pos = 0
    for j in live:
        p = hom.primes[j]
        for i in range(rank):
            a = vec[pos + i]
            if a and hom.e_table[i][j] > s:
                acc = acc * (hom.ys[i][j] ** (a * p**s))
        pos += rank
    return canonicalize(quotient, acc)


def hom_domain(hom) -> VectorCarrier:
    """The domain prod_j Z_{p_j^{e_j}}^r of an abelianization, r its rank."""
    return VectorCarrier(tuple(p**e for p, e in zip(hom.primes, hom.exps)
                               for _ in hom.xs))


def hom_apply(hom, vec) -> Perm:
    """phi(a): canonical representative of N * prod y_ij^{a_ij}, the
    coordinates of a in prime blocks of len(hom.xs)."""
    rank = len(hom.xs)
    acc = Perm.identity(hom.quotient.parent.degree)
    for pos, a in enumerate(vec):
        if a:
            acc = acc * (hom.ys[pos % rank][pos // rank] ** a)
    return canonicalize(hom.quotient, acc)


def field_pow(a, k: int):
    """a^k in its field by square-and-multiply; a^0 = 1."""
    if k < 0:
        raise ValueError("negative exponent")
    result = a.spec.one()
    base = a
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def inner_product(a, b) -> int:
    """Coefficient dot product mod p (the power-basis bilinear form)."""
    if a.spec != b.spec:
        raise ValueError("field spec mismatch")
    return sum(x * y for x, y in zip(a.coeffs, b.coeffs)) % a.spec.p


def psi_to_fields(vec, fields, widths) -> tuple:
    """Coordinate truncation onto the additive groups of the fields."""
    out = []
    pos = 0
    for f, w in zip(fields, widths):
        block = vec[pos:pos + w]
        out.append(f.element(tuple(block[:f.m]) + (0,) * (f.m - len(block))))
        pos += w
    return tuple(out)


# ---------------------------------------------------------------------------
# analytic references for amplification: spectral bounds of one derandomized
# square, round counts, and auxiliaries from explicit rotation maps

def rv_composition(lam: float, mu: float) -> float:
    """Spectral expansion of a derandomized square: 1 - (1-lam^2)(1-mu)."""
    return 1.0 - (1.0 - lam * lam) * (1.0 - mu)


def analytic_rounds(lam: float, mu: float, target: float = 0.25,
                    max_rounds: int = 10**4) -> int:
    """Number of x -> x^2 + mu steps to reach the target from lam."""
    x = lam
    rounds = 0
    while x > target:
        nxt = x * x + mu
        if nxt >= x:
            raise AmplificationError(
                f"recurrence stalls at {x:.6f} with mu={mu}")
        x = nxt
        rounds += 1
        if rounds > max_rounds:
            raise AmplificationError("round limit exceeded")
    return rounds


def aux_from_rotation(neighbors, label_inv,
                      certified_mu: float | None = None) -> AuxExpander:
    """Auxiliary expander from an explicit neighbor table.

    When certified_mu is omitted it is measured by a dense eigensolve of the
    (normalized) adjacency matrix.
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    v, d = neighbors.shape
    if certified_mu is None:
        m = np.zeros((v, v))
        for ell in range(d):
            np.add.at(m, (np.arange(v), neighbors[:, ell]), 1.0 / d)
        evs = np.linalg.eigvalsh(m)
        certified_mu = float(max(-evs[0], evs[-2], 0.0)) if v > 1 else 0.0
    return AuxExpander(v, d, neighbors, certified_mu, tuple(label_inv))


def dense_lambda2_signed(carrier, ms: Multiset) -> float:
    """Second largest eigenvalue without absolute value: the quantity the
    vertex-transitivity diameter bound controls (a bipartite Cayley graph
    has smallest eigenvalue -1, but its signed second eigenvalue still
    respects the bound)."""
    evs = dense_spectrum(carrier, ms)
    return float(evs[-2]) if len(evs) >= 2 else 0.0


# ---------------------------------------------------------------------------
# the level fold with padding

def ref_fold_levels(leaves: list, pad, merge):
    """The level fold with the leaves padded by `pad` to a power-of-two
    count: merge(lo, mid, hi, upper, lower) joins the folds of leaves
    [lo, mid) and [mid, hi) at every node of a complete binary tree, and a
    merge that returns a new set is recorded as a "fold-merge" event."""
    sets = list(leaves)
    count = 1
    while count < len(sets):
        count *= 2
    sets += [pad] * (count - len(sets))
    width = 1
    while len(sets) > 1:
        nxt = []
        for j in range(0, len(sets), 2):
            lo, mid, hi = j * width, (j + 1) * width, (j + 2) * width
            out = merge(lo, mid, hi, sets[j], sets[j + 1])
            if out is not sets[j] and out is not sets[j + 1]:
                obs.event("fold-merge", span=(lo, mid, hi),
                          total=out.total, cert=out.cert)
            nxt.append(out)
        sets = nxt
        width *= 2
    return sets[0]


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


def group_power(g: GenSet, k: int) -> GenSet:
    """G^k as k copies of G on disjoint blocks of points."""
    return GenSet(g.degree * k, tuple(
        Perm(list(range(i * g.degree)) + [x + i * g.degree for x in p.img]
             + list(range((i + 1) * g.degree, k * g.degree)))
        for i in range(k) for p in g.gens))


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


def count_calls(monkeypatch, orig, record=lambda first, *rest: first) -> list:
    """Record every call of a package function, by default its first
    argument, else record(*positional arguments).

    ``orig`` is rebound for the rest of a test under every name a
    ``cayexp`` module, or a class it defines, holds it by, so calls through
    ``from .bsgs import schreier_sims`` and through
    ``_kernels.cayley_matvec`` count alike, and a method such as
    ``QuotientCarrier._products`` records its instance first.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == cayexp.__name__ or name.startswith("cayexp."):
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == name]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        monkeypatch.setattr(owner, attr, counted)
    return calls


def count_measurements(monkeypatch) -> list[tuple]:
    """Record every ``spectra.measure`` call for the rest of a test as
    (group, codes, multiplicities): a vector group by its moduli, any other
    carrier by itself."""
    return count_calls(
        monkeypatch, spectra.measure,
        lambda carrier, ms, method: (getattr(carrier, "moduli", carrier),
                                     ms.codes.tobytes(), ms.mults))


def route_off(monkeypatch) -> None:
    """Set every cap of ``spectra`` to 0, so ``exact_method`` names no
    route and the constructions carry analytic bounds only."""
    for cap in ("DENSE_CAP", "ITER_CAP", "EXHAUSTIVE_CHAR_CAP"):
        monkeypatch.setattr(spectra, cap, 0)


def count_schreier_sims(monkeypatch) -> list[GenSet]:
    """Record every Schreier-Sims build for the rest of a test."""
    return count_calls(monkeypatch, bsgs.schreier_sims)
