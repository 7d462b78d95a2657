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
from cayexp.multiset import (NOT_SYMMETRIC, Multiset, NonSymmetricError,
                             multiset)
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
# element-by-element references for combine's multiset bookkeeping: dicts
# of elements and the carriers' per-element inv and mul

def symmetric_by_elements(carrier, ms: Multiset) -> bool:
    """Every element's inverse has the element's multiplicity."""
    c = ms.counts()
    return all(c.get(carrier.inv(e), 0) == m for e, m in ms.pairs())


def ref_symmetrize(carrier, ms: Multiset) -> Multiset:
    """The multiset doubled by its inverses, gcd-reduced; a symmetric one
    unchanged."""
    if symmetric_by_elements(carrier, ms):
        return ms
    pairs = list(ms.pairs()) + [(carrier.inv(e), m) for e, m in ms.pairs()]
    return multiset(pairs, cert=ms.cert).gcd_reduced()


def ref_pair_units(carrier, ms: Multiset):
    """(sizes, members) of the inverse-pair units, heaviest first."""
    index = {e: i for i, e in enumerate(ms.elems)}
    units = []
    for i, e in enumerate(ms.elems):
        f = carrier.inv(e)
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
    """Replicate, then spread the remainder over inverse pairs in order."""
    total = ms.total
    if target < total:
        raise ValueError("target below current total")
    q, r = divmod(target, total)
    out_counts = {e: m * q for e, m in ms.pairs()}
    if r:
        pairs, selfinv, seen = [], [], set()
        for e, _ in ms.pairs():
            if e in seen:
                continue
            f = carrier.inv(e)
            if f not in out_counts:
                raise NonSymmetricError(
                    "cannot pad a multiset that is not inverse-closed")
            seen.update((e, f))
            if f == e:
                selfinv.append(e)
            else:
                pairs.append((e, f))
        if r % 2:
            if not selfinv:
                raise AssertionError(
                    "odd remainder with no self-inverse element")
            out_counts[selfinv[0]] += 1
            r -= 1
        cyc = pairs + [(e, e) for e in selfinv]
        for idx in range(r // 2):
            e, f = cyc[idx % len(cyc)]
            out_counts[e] += 1
            out_counts[f] += 1
    cert = None
    if ms.cert is not None:
        cert = (q * total * ms.cert + target - q * total) / target
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
        f = carrier.inv(e)
        if counts.get(f) != counts[e]:
            raise NonSymmetricError(NOT_SYMMETRIC)
        sigma.append(first[f] + i - first[e])
    acc = {}
    for ell in range(h.degree):
        for i, j in enumerate(h.neighbors[:, ell].tolist()):
            for p in (carrier.mul(expanded[i], expanded[j]),
                      carrier.mul(expanded[sigma[i]], expanded[sigma[j]])):
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


def level_map(hom, qctx, s: int, live, vec) -> Perm:
    """phi_s(a) = prod y_ij^(a_ij p_j^s) over the live prime blocks of a,
    each block len(hom.xs) wide, as a canonical representative of qctx."""
    rank = len(hom.xs)
    acc = Perm.identity(qctx.parent.degree)
    pos = 0
    for j in live:
        p = hom.primes[j]
        for i in range(rank):
            a = vec[pos + i]
            if a and hom.e_table[i][j] > s:
                acc = acc * (hom.ys[i][j] ** (a * p**s))
        pos += rank
    return qctx.canonicalize(acc)


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
