"""Combining and amplifying expanding generating multisets.

The moves, with their certified-bound algebra:

* combine:  union of a set expanding a normal subgroup N and a set whose
            image expands G/N; bound (1+lam)*max(|A|,|B|)/(|A|+|B|).
* square:   the convolution square S*S, bound lam^2 (its eigenvalues are
            the squares of S's): an FFT on a vector group of total up to
            2^26, else one scatter of the support's pairwise products; a
            carrier with no measurement route is refused.
* balance/compact: multiplicity bookkeeping (equal totals by replication
            and identity padding, gcd reduction, bounded re-weighting) so
            the two moves stay affordable; every re-weighting is
            re-certified.

Derandomized squaring (the lam^2 + mu bound along an auxiliary expander)
is library code that no construction calls.

Certified bounds propagate analytically. A combined or amplified set
keeps its bound unless ``reverify`` replaces it by a measurement, where
``spectra.exact_method`` names a route for the carrier; ``reverify`` is the
one place that compares a measurement with the bound a set carries. A fold
whose top merge would need a round that cannot be measured is refused
before its level sets are built (``require_fold_route``).

Every move is written once over the carriers' array protocol (element codes,
inverses, products and tallies; see ``carriers``), so permutation groups,
quotients and vector groups take the same code path. How a multiset is
measured, and whether it is, is ``spectra``'s choice (``reverify`` and
``measure_exact`` ask it); the only choice by carrier kind made here is how
a convolution square is computed (``square_multiset``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _kernels, obs
from .carriers import (Carrier, PermCarrier, QuotientCarrier, VectorCarrier,
                       require_symmetric)
from .multiset import Multiset, multiset
from .perm import Perm
from .series import SubgroupChain, quotient_context, require_subgroup
from .spectra import (CERT_SLACK, bias_exhaustive, exact_method,
                      instance_seed, measure, require_route, seed_body)


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
    """The multiset certified by spectra's route for the carrier, where it
    has one; elsewhere it keeps the bound it carries.

    This is the one place a construction compares a measurement with the
    bound it carries. An exact measurement (dense or character-sum) above
    the carried bound, beyond CERT_SLACK, is a broken certificate and raises
    CertificationError. The Krylov route's upper end sits up to
    spectra.KRYLOV_GAP above lambda2, so it replaces the bound unchecked.
    """
    method = exact_method(carrier)
    if method is None:
        return ms
    report = measure(carrier, ms, method)
    if (report.lambda2_upper is None and ms.cert is not None
            and report.lambda2 > ms.cert + CERT_SLACK):
        raise CertificationError(
            f"measured {report.lambda2} above its source bound {ms.cert}")
    return ms.with_cert(report.bound)


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

def _pair_units(carrier: Carrier, ms: Multiset
                ) -> tuple[np.ndarray, Callable[[np.ndarray], Multiset]]:
    """A multiset's inverse-pair units, heaviest first, ties by element.

    A unit is an element e and, unless e is self-inverse, e^-1. Canonical
    storage sorts the elements, so element order is index order: element i
    opens a unit unless its inverse is element j < i. An inverse missing
    from a non-symmetric multiset still joins its unit. Returns (sizes,
    members): sizes[u] is unit u's element count and members(us) the
    multiset of the elements of units us, each with weight 1.
    """
    codes, inv, pos, found = carrier.inverse_positions(ms)
    heads = np.flatnonzero(~found | (pos >= np.arange(len(pos))))
    selfinv = found[heads] & (pos[heads] == heads)

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
    in a deterministic pseudorandom order instead; the caller certifies
    either before acceptance.
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
    """Shrink a multiset, certifying every lossy step by a measurement.

    gcd reduction is spectrum-invariant. When the support itself exceeds the
    budget, symmetric trims (heaviest-first, then seeded) are tried at
    doubling budgets, and the first whose bound stays within target_cert
    (or the input's certificate) comes back, all its weights 1. A budget at
    which a trim keeps every unit is the last: larger ones repeat that trim.
    Remaining oversize totals are proportionally re-weighted under the same
    acceptance rule. A candidate equal to the input (a trim that keeps all
    of an all-ones input, or its re-weighting) takes the input's bound, so
    a bound changes here only by a measurement. On a carrier too large to
    measure the multiset comes back gcd-reduced, and nothing more.
    """
    ms = ms.gcd_reduced()
    if ms.total <= target_total:
        return ms
    if exact_method(carrier) is None:
        return ms
    accept = target_cert if target_cert is not None else ms.cert
    if ms.support > target_total:
        units = _pair_units(carrier, ms)
        whole = int(units[0].sum())
        body = None
        budget = target_total
        kept_all = False
        while not kept_all and budget < 2 * ms.support:
            for seeded in (False, True):
                if seeded and body is None:
                    body = seed_body(ms)
                trimmed = _trim_support(units, budget,
                                        body if seeded else None)
                if trimmed.support == whole:    # keeps every unit
                    if kept_all:    # the heaviest-first trim, again
                        break
                    kept_all = True
                if (ms.cert is not None and ms.total == ms.support
                        and np.array_equal(trimmed.codes, ms.codes)):
                    lam = ms.cert       # the input itself
                else:
                    lam = measure_exact(carrier, trimmed)
                if accept is None or lam <= accept:
                    return trimmed.with_cert(lam)
            budget *= 2
    if ms.total == ms.support:      # re-weighting all-ones changes nothing
        return ms
    scale = target_total / ms.total
    # float(m) * scale rounded half to even, as Python's round(m * scale),
    # for int64 and Python-int (object) multiplicities alike
    mults = np.maximum(1, np.rint(ms.mult_array().astype(np.float64) * scale))
    out = ms.with_mults(mults.astype(np.int64)).gcd_reduced()
    lam = measure_exact(carrier, out)
    if accept is not None and lam > accept:
        return ms
    return out.with_cert(lam)


def pad_to_total(carrier: Carrier, ms: Multiset, target: int) -> Multiset:
    """Reach exactly `target` total multiplicity: the whole multiset
    replicated q times plus r copies of the carrier's identity, where
    (q, r) = divmod(target, total).

    The identity copies are a lazy step: they move every eigenvalue mu of
    the replicated set to (q*total*mu + r)/target, so the certified bound
    becomes (q*total*cert + r)/target. A multiset already at the target
    comes back as it is. The side must be inverse-closed with matching
    multiplicities, padded or not (NonSymmetricError). The carrier supplies
    only that check and the identity, so the certificate keeps referring
    to whatever graph it was measured on (callers re-verify where they know
    the right carrier).
    """
    total = ms.total
    if target < total:
        raise ValueError("target below current total")
    require_symmetric(carrier, ms)
    if target == total:
        return ms
    q, r = divmod(target, total)
    counts = ms.mult_array()
    if target >= 2**63:
        counts = counts.astype(object)
    cert = None
    if ms.cert is not None:
        cert = (q * total * ms.cert + r) / target
    if not r:
        return ms.with_mults(counts * q, cert)
    return carrier.tally(
        np.concatenate((carrier.codes(ms),
                        carrier.codes([carrier.identity()]))),
        np.append(counts * q, r), cert)


def balance(carrier: Carrier, a: Multiset,
            b: Multiset) -> tuple[Multiset, Multiset]:
    """Pad the side of smaller total to the larger total (pad_to_total):
    the combine bound needs only equal totals. Both sides must be
    symmetric."""
    target = max(a.total, b.total)
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


_FULL_SQUARE_CAP = 1024


def aux_family(vertex_count: int) -> AuxExpander:
    """The full group of Z_2^t as an auxiliary on 2^t vertices: mu = 0,
    the degenerate auxiliary of plain squaring. At most _FULL_SQUARE_CAP
    vertices."""
    if vertex_count < 1 or vertex_count & (vertex_count - 1):
        raise ValueError("vertex count must be a power of 2")
    if vertex_count > _FULL_SQUARE_CAP:
        raise ValueError(f"auxiliary on {vertex_count} vertices: the full "
                         f"group is capped at {_FULL_SQUARE_CAP}")
    if vertex_count == 1:
        return AuxExpander(1, 1, np.zeros((1, 1), dtype=np.int64), 0.0, (0,))
    t = vertex_count.bit_length() - 1
    full = VectorCarrier((2,) * t).from_codes(
        np.arange(vertex_count), np.ones(vertex_count, dtype=np.int64))
    return aux_from_z2_multiset(full, t)


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

    Derandomized squaring with the full-group auxiliary (mu = 0): every
    index pair contributes, and as S is symmetric the inverse-indexed half
    is the direct half. Refused on a carrier with no measurement route
    (``spectra.require_route``): both ways hold an order-sized array. A
    vector group of total up to 2^26 takes an FFT convolution (on Z_2^L with
    order * total^2 below 2^53, two exact Walsh-Hadamard transforms, which
    give the FFT's bits). Every other square scatters the weight products
    of the support's pairs, a block of left factors at a time, as exact
    integers (int64 while no count can reach 2**63, Python ints beyond). A
    vector code is its own index; on a quotient tables[j, tables[l, 0]]
    indexes s_l * s_j, as row j of the action tables maps e_i to e_i * s_j
    and e_0 is the identity.
    """
    require_route(carrier)
    cert = ms.cert * ms.cert if ms.cert is not None else None
    vector = isinstance(carrier, VectorCarrier)
    if vector and ms.total <= 1 << 26:
        w = np.bincount(carrier.codes(ms),
                        weights=ms.mult_array().astype(np.float64),
                        minlength=carrier.order)
        if (set(carrier.moduli) == {2}
                and carrier.order * ms.total ** 2 < 2**53):
            spec = _kernels.walsh_hadamard(w)
            conv = _kernels.walsh_hadamard(spec * spec) / carrier.order
        else:
            spec = np.fft.fftn(w.reshape(carrier.fft_shape))
            conv = np.fft.ifftn(spec * spec).real.ravel()
        counts = np.rint(conv).astype(np.int64)
        nz = np.flatnonzero(counts)
        return carrier.from_codes(nz, counts[nz], cert=cert)
    if vector:
        codes = carrier.codes(ms)
    else:
        tables, _ = carrier.action_tables(ms)
    dtype = np.int64 if ms.total ** 2 < 2**63 else object
    w = ms.mult_array().astype(dtype)
    k = len(w)
    counts = np.zeros(carrier.order, dtype=dtype)
    step = max(1, _PAIR_CHUNK // k)
    for l0 in range(0, k, step):
        left = slice(l0, l0 + step)
        if vector:      # [j, l]: the code of s_j + s_l
            prods = carrier.mul_codes(np.repeat(codes, len(w[left])),
                                      np.tile(codes[left], k))
        else:           # [j, l]: the index of s_l * s_j
            prods = tables[:, tables[left, 0]]
        np.add.at(counts, prods.ravel(), np.outer(w, w[left]).ravel())
    nz = np.flatnonzero(counts)
    return carrier.from_codes(nz if vector else carrier.image_rows(nz),
                              counts[nz], cert)


# element pairs multiplied per block of square_multiset's pairwise route
_PAIR_CHUNK = 1 << 20


MAX_ROUNDS = 64


def reduce_to_quarter(carrier: Carrier, u: Multiset, target: float = 0.25,
                      compact_total: int = 512) -> Multiset:
    """Squaring rounds until the certified bound is <= target.

    Each round compacts and squares (an exact convolution). A square carries
    its input's bound squared: Cay(G, S*S) is the square of Cay(G, S) for a
    symmetric S, so lambda2(S*S) = lambda2(S)^2. Only the multiset about to
    be returned is measured, by spectra's route for the carrier, and only
    while it still carries a square's bound (``compact`` changes a bound
    only by measuring); a measurement above the target continues the rounds.
    A carrier with no route cannot certify a round, so the first round it
    needs is refused (``spectra.require_route``, MethodCapacityError). Each
    square is logged, and so is each compaction after one, so the last
    logged total and bound are the returned ones.
    """
    if u.cert is None:
        u = reverify(carrier, u)
        if u.cert is None:
            raise CertificationError("input multiset carries no certificate")
    if u.cert >= 1.0:
        raise AmplificationError(
            "cannot amplify: certified bound is 1 (disconnected or bipartite)")
    rounds = 0
    while True:
        c = compact(carrier, u, compact_total, target_cert=target)
        if rounds:
            if c.cert == u.cert and c.cert <= target:   # the square's bound
                c = reverify(carrier, c)
            obs.event("compact", total=c.total, cert=c.cert)
        if c.cert <= target:
            return c
        if rounds >= MAX_ROUNDS:
            raise AmplificationError(f"exceeded {MAX_ROUNDS} squaring rounds")
        require_route(carrier)
        u = square_multiset(carrier, c)
        rounds += 1
        obs.event("square", round=rounds, total=u.total, cert=u.cert)


# ---------------------------------------------------------------------------
# combining a normal subgroup expander with a quotient expander

def combine_union(group: Carrier, a: Multiset, b: Multiset) -> Multiset:
    """Union multiset with the main-lemma bound
    (1+lam)*max(|A|,|B|)/(|A|+|B|), lam the larger input certificate,
    re-certified by ``reverify``."""
    if a.cert is None or b.cert is None:
        raise CertificationError("combine requires certified inputs")
    lam = max(a.cert, b.cert)
    bound = (1 + lam) * max(a.total, b.total) / (a.total + b.total)
    return reverify(group, group.tally(
        np.concatenate((group.codes(a), group.codes(b))),
        np.concatenate((a.mult_array(), b.mult_array())), cert=bound))


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


def require_fold_route(chain: SubgroupChain, target: float) -> None:
    """Refuse, before any level set is built, a fold of the chain's
    quotients that cannot be certified at target.

    With two or more nontrivial steps, some merge of ``fold_series`` joins
    them all on G_0/G_r, and after ``balance`` its union bound is
    (1+lam)/2 >= 1/2. Below 1/2 that merge needs a squaring round, which
    ``reduce_to_quarter`` refuses where G_0/G_r has no route; this refuses
    it up front, with the same MethodCapacityError.
    """
    orders = chain.orders
    steps = sum(a > b for a, b in zip(orders, orders[1:]))
    if steps >= 2 and target < 0.5:
        require_route(QuotientCarrier(chain.terms[0], chain.terms[-1]))


def fold_series(chain: SubgroupChain, quotient_sets: list[Multiset],
                target: float = 0.25) -> Multiset:
    """Fold per-quotient expanders into one for the whole group.

    chain is a normal series G_0 |> ... |> G_r = 1, each term inside the
    one above and normal in G_0 (NormalityError otherwise, checked once),
    and quotient_sets[i] is certified <= target for G_i/G_{i+1} with
    representatives in G_i; a one-term chain (r = 0) gives the identity
    with certificate 0. Each merge combines on G_k/G_m, unchecked, with
    N = G_l/G_m, then amplifies back to the target; a merge whose N-part
    or quotient part is trivial returns its other side.
    The merge onto G_0/1 runs on the group's own carrier when one was built
    on term 0 (``PermCarrier.kept``), so the group's Cayley table is searched
    once per group object; no carrier is built for it.
    """
    groups = chain.terms
    if len(quotient_sets) != len(groups) - 1:
        raise ValueError("need one quotient set per series step")
    for i, s in enumerate(quotient_sets):
        if s.cert is None or s.cert > target + CERT_SLACK:
            raise CertificationError(
                f"quotient set {i} is not certified <= {target}")
    for above, sub in zip(groups, groups[1:]):
        require_subgroup(above, sub)       # NormalityError unless nested
        quotient_context(groups[0], sub)   # and normal in G_0
    if not quotient_sets:
        return multiset([(Perm.identity(groups[0].degree), 1)], cert=0.0)
    orders = [b.order() for b in groups]
    own = PermCarrier.kept(groups[0].gens)
    if own is not None and own.parent is not groups[0]:
        own = None

    def merge(lo: int, mid: int, hi: int, upper: Multiset,
              lower: Multiset) -> Multiset:
        k, l, m = lo, mid, min(hi, len(groups) - 1)
        if orders[l] == orders[m]:      # trivial N-part
            return upper
        if orders[k] == orders[l]:      # trivial quotient part
            return lower
        if k == 0 and orders[m] == 1 and own is not None:
            q = own
        else:
            q = QuotientCarrier(groups[k], groups[m])
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

    Per-quotient abelian expanders -> series fold, each merge re-certified
    by ``reverify``; a trivial group's one-term chain folds to the identity
    with certificate 0. Only a measured quotient builds an element
    table, capped at its own order (``carriers.TABLE_CAP``, else
    MethodCapacityError); a group is listed only as its own quotient by the
    trivial subgroup, a merge onto G_k/1.
    """
    from .abexp import abelian_quotient_expander
    if not 0 < target < 1:
        raise ValueError("lambda must be in (0, 1)")
    if not chain.solvable:
        raise SolvabilityError(
            "group is not solvable (derived series stabilizes above the "
            "trivial group); use general_expander instead")
    require_fold_route(chain, target)
    sets = []
    for i in range(chain.length):
        s = abelian_quotient_expander(chain.terms[i], chain.terms[i + 1],
                                      target=target)
        sets.append(s)
        obs.event("derived-quotient", index=i, total=s.total, cert=s.cert)
    return fold_series(chain, sets, target=target)
