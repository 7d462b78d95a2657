"""Combining and amplifying expanding generating multisets.

The three moves, with their certified-bound algebra:

* combine:  union of a set expanding a normal subgroup N and a set whose
            image expands G/N; bound (1+lam)*max(|A|,|B|)/(|A|+|B|).
* derandomized squaring: products u_i*u_j along the edges of an auxiliary
            consistently-labeled expander H; bound lam^2 + mu, degree 2d|U|.
* balance/compact: multiplicity bookkeeping (power-of-2 totals, whole-set
            replication, gcd reduction, bounded re-weighting) so the two
            moves stay affordable; every re-weighting is re-certified.

Certified bounds propagate analytically and are re-measured exactly whenever
``spectra.exact_method`` names a route for the carrier; where it names none,
only the analytic bounds are carried.

Every move is written once over the carriers' array protocol (element codes,
inverses, products and tallies; see ``carriers``), so permutation groups,
quotients and vector groups take the same code path. How a multiset is
measured, and whether it is, is ``spectra``'s choice (``measure_exact``
asks it); the only choice by carrier kind made here is how a convolution
square is computed (``square_multiset``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _kernels, obs
from .carriers import (Carrier, PermCarrier, QuotientCarrier, VectorCarrier,
                       require_symmetric)
from .multiset import Multiset, NonSymmetricError, multiset
from .perm import Perm
from .series import SubgroupChain, quotient_context
from .spectra import (bias_exhaustive, exact_method, instance_seed, measure,
                      seed_body)


class CertificationError(ValueError):
    pass


class AmplificationError(ValueError):
    pass


class AuxInfeasibleError(ValueError):
    def __init__(self, message: str, achievable_mu: float):
        super().__init__(message)
        self.achievable_mu = achievable_mu


# the errors by which a construction reports that it cannot certify
CONSTRUCTION_FAILURES = (CertificationError, AmplificationError,
                         AuxInfeasibleError)


# ---------------------------------------------------------------------------
# exact measurement when the carrier is small enough

def measure_exact(carrier: Carrier, ms: Multiset) -> float | None:
    """The certifying bound of spectra's route for the carrier, or None
    where it has none (analytic bookkeeping only).

    On the Krylov route that is the upper end of the interval (a
    Chebyshev-filtered trace bound with its rounding margin), never the
    Lanczos lower estimate.
    """
    method = exact_method(carrier)
    return None if method is None else measure(carrier, ms, method).bound


def reverify(carrier: Carrier, ms: Multiset) -> Multiset:
    """Replace the certificate by an exact measurement when possible."""
    lam = measure_exact(carrier, ms)
    if lam is None:
        return ms
    return ms.with_cert(lam)


def symmetrize(carrier: Carrier, ms: Multiset) -> Multiset:
    """Close a multiset under carrier inverses (already-symmetric: no-op).

    Needed when coset representatives are reinterpreted in a coarser
    quotient: the representative of an inverse coset need not be the inverse
    representative. The doubled multiset has the same image modulo any
    normal subgroup containing the mismatch, so quotient-side certificates
    transport unchanged.
    """
    if carrier.is_symmetric(ms):
        return ms
    codes, counts = carrier.codes(ms), ms.mult_array()
    doubled = carrier.tally(np.concatenate((codes, carrier.inv_codes(codes))),
                            np.concatenate((counts, counts)), cert=ms.cert)
    return doubled.gcd_reduced()


# ---------------------------------------------------------------------------
# multiplicity bookkeeping

def _units(carrier: Carrier, ms: Multiset):
    """A multiset's inverse-pair units, in element order.

    A unit is an element e and, unless e is self-inverse, e^-1. Canonical
    storage sorts the elements, so element order is index order: element i
    opens a unit unless its inverse is element j < i. An inverse missing
    from a non-symmetric multiset still joins its unit. Returns (codes,
    inverse codes, position of each inverse among the codes, whether it
    is there, the unit heads, whether each head is self-inverse).
    """
    codes = carrier.codes(ms)
    keys = carrier.keys(codes)
    n = len(keys)
    inv = carrier.inv_codes(codes)
    inv_keys = carrier.keys(inv)
    pos = np.minimum(np.searchsorted(keys, inv_keys), n - 1)
    found = keys[pos] == inv_keys
    heads = np.flatnonzero(~found | (pos >= np.arange(n)))
    selfinv = found[heads] & (pos[heads] == heads)
    return codes, inv, pos, found, heads, selfinv


def _pair_units(carrier: Carrier, ms: Multiset
                ) -> tuple[np.ndarray, Callable[[np.ndarray], Multiset]]:
    """A multiset's inverse-pair units (see _units), heaviest first, ties
    by element. Returns (sizes, members): sizes[u] is unit u's element
    count and members(us) the multiset of the elements of units us, each
    with weight 1.
    """
    codes, inv, _, _, heads, selfinv = _units(carrier, ms)

    def build(us):
        h = heads[us]
        return carrier.tally(np.concatenate((codes[h], inv[h[~selfinv[us]]])))
    weight = ms.mult_array()[heads]
    order = np.argsort(-weight, kind="stable")
    return (2 - selfinv)[order], lambda us: build(order[us])


def _trim_support(units: tuple[np.ndarray, Callable], k: int,
                  seed_body: bytes | None = None) -> Multiset:
    """Symmetric support trim to ~k elements, all kept weights set to 1.

    Heaviest-first by default: whole units are kept while fewer than k
    elements are. When the top weights align with a structured subset
    (convolution squares concentrate on subgroups, which do not expand),
    the seeded variant (seed_body given, see spectra.seed_body) keeps units
    in a deterministic pseudorandom order instead; both are re-measured by
    the caller before acceptance.
    """
    sizes, members = units
    order = np.arange(len(sizes))
    if seed_body is not None:
        rng = np.random.default_rng(instance_seed((k,), seed_body))
        order = rng.permutation(len(order))
    sizes = sizes[order]
    before = np.cumsum(sizes) - sizes
    return members(order[:np.searchsorted(before, k)])


def compact(carrier: Carrier, ms: Multiset, target_total: int,
            target_cert: float | None = None) -> Multiset:
    """Shrink a multiset, re-certifying every lossy step exactly.

    gcd reduction is spectrum-invariant. When the support itself exceeds the
    budget, a heaviest-first symmetric trim is tried and kept only if its
    measured bound stays within target_cert (or the input's certificate).
    Remaining oversize totals are proportionally re-weighted under the same
    acceptance rule. Carriers too large to re-measure are returned unchanged.
    """
    ms = ms.gcd_reduced()
    if ms.total <= target_total:
        return ms
    if exact_method(carrier) is None:
        return ms
    accept = target_cert if target_cert is not None else ms.cert
    if ms.support > target_total:
        units = _pair_units(carrier, ms)
        body = None
        budget = target_total
        done = False
        while not done and budget < 2 * ms.support:
            for seeded in (False, True):
                if seeded and body is None:
                    body = seed_body(ms)
                trimmed = _trim_support(units, budget,
                                        body if seeded else None)
                lam = measure_exact(carrier, trimmed)
                if accept is None or lam <= accept:
                    ms = trimmed.with_cert(lam)
                    done = True
                    break
            budget *= 2
    if ms.total <= target_total:
        return ms
    scale = target_total / ms.total
    mults = ms.mult_array()
    if mults.dtype == object:
        mults = np.array([max(1, round(m * scale)) for m in ms.mults],
                         dtype=object)
    else:
        # round half to even, as Python's round
        mults = np.maximum(1, np.rint(mults * scale)).astype(np.int64)
    out = ms.with_mults(mults).gcd_reduced()
    lam = measure_exact(carrier, out)
    if accept is not None and lam > accept:
        return ms
    return out.with_cert(lam)


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def pad_to_total(carrier: Carrier, ms: Multiset, target: int) -> Multiset:
    """Reach exactly `target` total multiplicity by replication + padding.

    The whole multiset is replicated floor(target/total) times; the remainder
    is spread two copies at a time over its inverse-pair units (see _units),
    pairs in element order and then self-inverse elements, one copy first to
    the first self-inverse element if the remainder is odd, so no element
    exceeds twice its replicated share. The certified bound becomes
    (q*total*cert + r)/target; the carrier argument is only used for inverse
    pairing, so the certificate keeps referring to whatever graph it was
    measured on (callers re-verify where they know the right carrier).
    """
    total = ms.total
    if target < total:
        raise ValueError("target below current total")
    q, r = divmod(target, total)
    counts = ms.mult_array()
    if target >= 2**63:
        counts = counts.astype(object)
    counts = counts * q
    if r:
        _, _, pos, found, heads, selfinv = _units(carrier, ms)
        if not found.all():
            raise NonSymmetricError(
                "cannot pad a multiset that is not inverse-closed")
        pairs, selfs = heads[~selfinv], heads[selfinv]
        if r % 2:
            if not len(selfs):
                raise AssertionError(
                    "odd remainder with no self-inverse element")
            counts[selfs[0]] += 1
            r -= 1
        cycle = np.concatenate((pairs, selfs))
        turns, extra = divmod(r // 2, len(cycle))
        adds = turns + (np.arange(len(cycle)) < extra)
        counts[cycle] += adds * np.repeat((1, 2), (len(pairs), len(selfs)))
        counts[pos[pairs]] += adds[:len(pairs)]
    cert = None
    if ms.cert is not None:
        pad = target - q * total
        cert = (q * total * ms.cert + pad) / target
    return ms.with_mults(counts, cert)


def balance(carrier: Carrier, a: Multiset,
            b: Multiset) -> tuple[Multiset, Multiset]:
    """Bring both multisets to the same power-of-2 total multiplicity."""
    target = _next_pow2(max(a.total, b.total))
    return pad_to_total(carrier, a, target), pad_to_total(carrier, b, target)


# ---------------------------------------------------------------------------
# auxiliary expanders: consistently labeled regular graphs

@dataclass(frozen=True)
class AuxExpander:
    vertex_count: int
    degree: int
    neighbors: np.ndarray          # (V, d): neighbors[v, l]
    certified_mu: float
    label_inv: tuple[int, ...]     # pi_{label_inv[l]} == pi_l^{-1}

    def __post_init__(self):
        v, d = self.neighbors.shape
        if v != self.vertex_count or d != self.degree:
            raise ValueError("neighbor table shape mismatch")
        ident = np.arange(v)
        for ell in range(d):
            col = self.neighbors[:, ell]
            if np.sort(col).tolist() != ident.tolist():
                raise ValueError(
                    f"inconsistent labeling: label {ell} is not a permutation")
        for ell, ell2 in enumerate(self.label_inv):
            if not np.array_equal(self.neighbors[self.neighbors[:, ell], ell2],
                                  ident):
                raise ValueError(
                    f"label {ell2} is not the inverse of label {ell}")


def aux_from_z2_multiset(ms: Multiset, t: int) -> AuxExpander:
    """Cayley graph over Z_2^t; labeling is consistent and self-inverse.

    The code of a 0/1 tuple is its bit mask (coordinate 0 most significant),
    so label l moves vertex x to x ^ code(l-th expanded element).
    """
    carrier = VectorCarrier((2,) * t) if t else VectorCarrier((1,))
    masks = np.repeat(carrier.codes(ms), ms.mult_array())
    neighbors = np.arange(1 << t)[:, None] ^ masks[None, :]
    mu = bias_exhaustive(carrier, ms) if t else 0.0
    return AuxExpander(1 << t, len(masks), neighbors, mu,
                       tuple(range(len(masks))))


_AUX_CACHE: dict[tuple[int, float], AuxExpander] = {}
_FULL_SQUARE_CAP = 1024


def aux_family(vertex_count: int, target_mu: float) -> AuxExpander:
    """Consistently labeled regular graph on 2^t vertices with mu <= target.

    Small vertex counts use the full group of Z_2^t (mu = 0, the degenerate
    plain-squaring auxiliary); larger ones use the greedy provider's
    certified small-bias multiset.
    """
    if vertex_count < 1 or vertex_count & (vertex_count - 1):
        raise ValueError("vertex count must be a power of 2")
    key = (vertex_count, round(target_mu, 12))
    hit = _AUX_CACHE.get(key)
    if hit is not None:
        return hit
    t = vertex_count.bit_length() - 1
    if vertex_count == 1:
        aux = AuxExpander(1, 1, np.zeros((1, 1), dtype=np.int64), 0.0, (0,))
    elif vertex_count <= _FULL_SQUARE_CAP:
        full = VectorCarrier((2,) * t).from_codes(
            np.arange(vertex_count), np.ones(vertex_count, dtype=np.int64))
        aux = aux_from_z2_multiset(full, t)
    else:
        from .abexp import greedy_expander
        ms = greedy_expander(VectorCarrier((2,) * t), target_mu)
        aux = aux_from_z2_multiset(ms, t)
    if aux.certified_mu > target_mu:
        raise AuxInfeasibleError(
            f"could not reach mu <= {target_mu} on {vertex_count} vertices",
            achievable_mu=aux.certified_mu)
    _AUX_CACHE[key] = aux
    return aux


# ---------------------------------------------------------------------------
# derandomized squaring

def derandomized_square(carrier: Carrier, u: Multiset,
                        h: AuxExpander) -> Multiset:
    """Products u_i * u_j over the arcs of h, plus the inverse-indexed half.

    Output degree is exactly 2 * d * |U| and the certified bound is
    lam'^2 + mu. The indexing u_1..u_|U| is multiplicity-expanded and
    sorted; the i-th copy of an element is paired with the i-th copy of its
    inverse, so the inverse-indexed half multiplies the inverses of the
    same rows.
    """
    total = u.total
    if h.vertex_count != total:
        raise ValueError(
            f"aux vertex count {h.vertex_count} != multiset total {total}")
    cert = None
    if u.cert is not None:
        cert = u.cert * u.cert + h.certified_mu
    require_symmetric(carrier, u)
    rows = carrier.codes(u).repeat(u.mult_array(), axis=0)
    inv = carrier.inv_codes(rows)
    chunks = []
    for ell in range(h.degree):
        col = h.neighbors[:, ell]
        chunks.append(carrier.mul_codes(rows, rows[col]))
        # the inverse-indexed half: u_i^-1 * u_j^-1
        chunks.append(carrier.mul_codes(inv, inv[col]))
    return carrier.tally(np.concatenate(chunks), cert=cert)


def square_multiset(carrier: Carrier, ms: Multiset) -> Multiset:
    """The convolution square S*S (total |S|^2), certified lam^2.

    This is derandomized squaring with the degenerate full-group auxiliary
    (mu = 0): every index pair contributes, and since S is symmetric the
    inverse-indexed half coincides with the direct half. Vector carriers use
    an FFT convolution, permutation groups and their quotients their action
    tables. On Z_2^L with order * total^2 below 2^53 the convolution is two
    exact Walsh-Hadamard transforms, which give the FFT's bits.
    """
    if not isinstance(carrier, VectorCarrier):
        return _square_perm(carrier, ms)
    cert = ms.cert * ms.cert if ms.cert is not None else None
    # the FFT holds the order-sized weight tensor the exhaustive bias holds
    if exact_method(carrier) is not None and ms.total <= 1 << 26:
        w = np.bincount(carrier.codes(ms),
                        weights=ms.mult_array().astype(np.float64),
                        minlength=carrier.order)
        if (set(carrier.moduli) == {2}
                and carrier.order * ms.total ** 2 < 2**53):
            spec = _kernels.walsh_hadamard(w)
            conv = _kernels.walsh_hadamard(spec * spec) / carrier.order
        else:
            spec = np.fft.fftn(w.reshape(carrier.moduli))
            conv = np.fft.ifftn(spec * spec).real.ravel()
        counts = np.rint(conv).astype(np.int64)
        nz = np.flatnonzero(counts)
        return carrier.from_codes(nz, counts[nz], cert=cert)
    # every pair of elements, a block of left factors at a time, each block
    # merged before the next
    codes, w = carrier.codes(ms), ms.mult_array()
    if w.dtype != object and ms.total ** 2 >= 2**63:
        w = w.astype(object)
    k = len(codes)
    parts = []
    step = max(1, _PAIR_CHUNK // k)
    for i0 in range(0, k, step):
        i, j = np.divmod(np.arange(i0 * k, min(k, i0 + step) * k), k)
        part = carrier.tally(carrier.mul_codes(codes[i], codes[j]),
                             w[i] * w[j])
        parts.append((carrier.codes(part), part.mult_array()))
    return carrier.tally(np.concatenate([c for c, _ in parts]),
                         np.concatenate([m for _, m in parts]), cert=cert)


# element pairs multiplied per block of square_multiset's pairwise route
_PAIR_CHUNK = 1 << 20


def _square_perm(carrier: PermCarrier | QuotientCarrier,
                 ms: Multiset) -> Multiset:
    """square_multiset on a permutation group or quotient, by index arithmetic.

    Row j of the action tables maps element i to e_i * s_j and element 0 is
    the identity, so tables[j, tables[l, 0]] is the index of s_l * s_j. The
    weight products are scattered as exact integers: int64 while no count
    can reach 2**63, Python ints beyond.
    """
    tables, _ = carrier.action_tables(ms)
    prods = tables[:, tables[:, 0]]
    dtype = np.int64 if ms.total ** 2 < 2**63 else object
    w = ms.mult_array().astype(dtype)
    counts = np.zeros(carrier.order, dtype=dtype)
    np.add.at(counts, prods.ravel(), np.outer(w, w).ravel())
    nz = np.flatnonzero(counts)
    cert = ms.cert * ms.cert if ms.cert is not None else None
    return carrier.from_codes(carrier.image_rows(nz), counts[nz], cert)


def _mu_request(lam: float, target: float) -> float:
    finishing = target - lam * lam
    if finishing > 0:
        return min(0.125, max(finishing / 2, target / 8))
    return min(0.125, target / 2)


MAX_ROUNDS = 64


def reduce_to_quarter(carrier: Carrier, u: Multiset, target: float = 0.25,
                      compact_total: int = 512) -> Multiset:
    """Squaring rounds until the certified bound is <= target.

    On a carrier spectra can measure (exact_method names a route), each round
    compacts, squares with the degenerate full-group auxiliary (exact
    convolution, mu = 0) and re-measures lambda2 exactly. On a larger one,
    each round pads to a power-of-2 total and derandomized-squares with a
    small-degree auxiliary from aux_family, propagating the lam^2 + mu bound
    only. Each square is logged, and so is each compaction after one, so
    the last logged total is the returned one.
    """
    if u.cert is None:
        u = reverify(carrier, u)
        if u.cert is None:
            raise CertificationError("input multiset carries no certificate")
    if u.cert >= 1.0:
        raise AmplificationError(
            "cannot amplify: certified bound is 1 (disconnected or bipartite)")
    measurable = exact_method(carrier) is not None
    rounds = 0
    while True:
        if measurable:
            u = compact(carrier, u, compact_total, target_cert=target)
            if rounds:
                obs.event("compact", total=u.total, cert=u.cert)
        if u.cert is not None and u.cert <= target:
            return u
        if rounds >= MAX_ROUNDS:
            raise AmplificationError(f"exceeded {MAX_ROUNDS} squaring rounds")
        if measurable:
            u = square_multiset(carrier, u)
            u = reverify(carrier, u)
            rounds += 1
            obs.event("square", round=rounds, total=u.total, cert=u.cert,
                      aux_degree=u.total, aux_mu=0.0)
            continue
        u = pad_to_total(carrier, u, _next_pow2(u.total))
        aux = aux_family(u.total, _mu_request(u.cert, target))
        u = derandomized_square(carrier, u, aux)
        rounds += 1
        obs.event("derandomized-square", round=rounds, total=u.total,
                  cert=u.cert, aux_degree=aux.degree,
                  aux_mu=aux.certified_mu)


# ---------------------------------------------------------------------------
# combining a normal subgroup expander with a quotient expander

def combine_union(group: Carrier, a: Multiset, b: Multiset) -> Multiset:
    """Union multiset with the main-lemma bound, re-measured where spectra
    has a route for the group."""
    if a.cert is None or b.cert is None:
        raise CertificationError("combine requires certified inputs")
    lam = max(a.cert, b.cert)
    bound = (1 + lam) * max(a.total, b.total) / (a.total + b.total)
    out = group.tally(np.concatenate((group.codes(a), group.codes(b))),
                      np.concatenate((a.mult_array(), b.mult_array())),
                      cert=bound)
    measured = measure_exact(group, out)
    if measured is not None:
        if measured > bound + 1e-9:
            raise CertificationError(
                f"measured {measured} exceeds combine bound {bound}")
        out = out.with_cert(measured)
    return out


# ---------------------------------------------------------------------------
# folding a normal series

def fold_levels(leaves: list[Multiset],
                merge: Callable[[int, int, int, Multiset, Multiset], Multiset]
                ) -> Multiset:
    """Fold level expanders pairwise, bottom-up, into one.

    Each level pairs its sets left to right; an odd last set moves up
    unchanged. A merge joins the fold of leaves [lo, mid) (upper) with that
    of [mid, hi) (lower) as merge(lo, mid, hi, upper, lower), with spans
    (j*w, (j+1)*w, (j+2)*w) for the j-th set of a level of width w, so hi
    may pass the last leaf and the merge clips it. A merge that returns a
    new set, not one of its two sides, is recorded as a "fold-merge" event.
    """
    if not leaves:
        raise ValueError("nothing to fold")
    sets = list(leaves)
    width = 1
    while len(sets) > 1:
        nxt = []
        for j in range(0, len(sets) - 1, 2):
            lo, mid, hi = j * width, (j + 1) * width, (j + 2) * width
            out = merge(lo, mid, hi, sets[j], sets[j + 1])
            if out is not sets[j] and out is not sets[j + 1]:
                obs.event("fold-merge", span=(lo, mid, hi), total=out.total,
                          cert=out.cert)
            nxt.append(out)
        if len(sets) % 2:
            nxt.append(sets[-1])
        sets = nxt
        width *= 2
    return sets[0]


def amplified_union(carrier: Carrier, a: Multiset, b: Multiset,
                    target: float, compact_total: int = 512) -> Multiset:
    """One fold merge: balance, certified union, amplify back to target."""
    a, b = balance(carrier, a, b)
    return reduce_to_quarter(carrier, combine_union(carrier, a, b),
                             target=target, compact_total=compact_total)


def fold_series(chain: SubgroupChain, quotient_sets: list[Multiset],
                target: float = 0.25) -> Multiset:
    """Fold per-quotient expanders into one for the whole group.

    chain is a normal series G_0 |> ... |> G_r = 1 and quotient_sets[i] is
    certified <= target for G_i/G_{i+1} with representatives in G_i; a
    one-term chain (r = 0) gives the identity with certificate 0. Each merge
    combines on G_k/G_m with N = G_l/G_m, then amplifies back to the target;
    a merge whose N-part or quotient part is trivial returns its other side.
    """
    groups = chain.terms
    if len(quotient_sets) != len(groups) - 1:
        raise ValueError("need one quotient set per series step")
    for i, s in enumerate(quotient_sets):
        if s.cert is None or s.cert > target + 1e-9:
            raise CertificationError(
                f"quotient set {i} is not certified <= {target}")
    # every term must be normal in the top group
    top_gens = groups[0].gens.nontrivial_gens()
    for i, sub in enumerate(groups[1:], start=1):
        for x in sub.gens.nontrivial_gens():
            for g in top_gens:
                if not sub.contains(x.conjugate(g)):
                    raise ValueError(
                        f"chain term {i} is not normal in the top group")
    if not quotient_sets:
        return multiset([(Perm.identity(groups[0].degree), 1)], cert=0.0)
    orders = [b.order() for b in groups]

    def merge(lo: int, mid: int, hi: int, upper: Multiset,
              lower: Multiset) -> Multiset:
        k, l, m = lo, mid, min(hi, len(groups) - 1)
        if orders[l] == orders[m]:      # trivial N-part
            return upper
        if orders[k] == orders[l]:      # trivial quotient part
            return lower
        q = QuotientCarrier(quotient_context(groups[k], groups[m]))
        # A expands G_l/G_m; B's image expands (G_k/G_m)/(G_l/G_m) = G_k/G_l
        a = symmetrize(q, q.image_multiset(lower, cert=lower.cert))
        b = symmetrize(q, q.image_multiset(upper, cert=upper.cert))
        return amplified_union(q, a, b, target, 1024)

    return fold_levels(quotient_sets, merge)


# ---------------------------------------------------------------------------
# the solvable pipeline

class SolvabilityError(ValueError):
    pass


def solvable_expander(chain: SubgroupChain,
                      target: float = 0.25) -> Multiset:
    """Certified expanding multiset for a solvable permutation group, given
    by its derived series (``series.derived_series``).

    Per-quotient abelian expanders -> series fold, each merge re-measured
    where spectra has a route. Only a measured quotient builds an element
    table, capped at its own order (``carriers.TABLE_CAP``, else
    MethodCapacityError); no parent group is listed.
    """
    from .abexp import abelian_quotient_expander
    if not 0 < target < 1:
        raise ValueError("lambda must be in (0, 1)")
    if not chain.solvable:
        raise SolvabilityError(
            "group is not solvable (derived series stabilizes above the "
            "trivial group); use general_expander instead")
    top = chain.terms[0]
    if top.order() == 1:
        return multiset([(Perm.identity(top.degree), 1)], cert=0.0)
    sets = []
    for i in range(chain.length):
        s = abelian_quotient_expander(chain.terms[i], chain.terms[i + 1],
                                      target=target)
        sets.append(s)
        obs.event("derived-quotient", index=i, total=s.total, cert=s.cert)
    return fold_series(chain, sets, target=target)
