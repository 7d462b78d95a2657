"""Expanding generating sets for abelian groups and abelian quotients.

The construction chain, bottom up:

* greedy_expander / cyclic_expander: deterministic greedy selection over a
  cyclic group Z_m, tracking its character sums exactly; the certificate
  is the exhaustively evaluated bias.
* product_base_expander: folds the coordinate-window normal series of
  prod_j Z_{p_j}^{m_j} down to cyclic quotients fed by the greedy provider.
* final_R: the inner-product construction lifting a base expander on
  prod_j Z_{p_j}^{m_j} to one on prod_j Z_{p_j}^n of size c*n*|base| with
  bias at most 1/c + eps.
* build_abelianization / abelian_quotient_expander: the onto homomorphism
  from a product of prime-power cyclic groups onto an abelian quotient H/N
  of permutation groups, and the per-level images of R over
  prod_j Z_{p_j}^r, r the number of reduced generators of H, folded inside
  H/N.

Every pushforward is one array map. Maps between vector groups (the CRT
split of a cyclic level, the window embeds of a fold, and the k-fold embeds
of ``epsbias``) are ``vector_map``: column picks and scalings of the
coordinate rows. A level map onto a quotient H/N gathers, per coordinate
of R, one of p precomputed image rows, multiplies them as permutations of
H and pushes their tally down to H/N once: N is normal, so the coset of a
product depends only on the cosets of its factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, obs
from .bsgs import BSGS, schreier_sims
from .carriers import (MethodCapacityError, PermRows, QuotientCarrier,
                       VectorCarrier)
from .combine import (AuxInfeasibleError, CertificationError,
                      amplified_union, compact, fold_levels, fold_series,
                      reduce_to_quarter, require_fold_route, reverify)
from .fields import FieldSpec, construct_field
from .multiset import Multiset, multiset
from .perm import GenSet, Perm, commutator, format_perm
from .series import SubgroupChain, quotient_context
from .spectra import CERT_SLACK

GREEDY_ORDER_CAP = 2**18
GREEDY_FULL_CAP = 1024
GREEDY_POOL = 128
GREEDY_MAX_ADDS = 4096
# the final construction's (c, eps): |R| = c*n*|base| and bias(R) is at
# most 1/c + eps, from a base of bias at most eps
FINAL_C = 8
FINAL_EPS = 0.125


# ---------------------------------------------------------------------------
# greedy small-bias provider on Z_m

def _pack_candidates(m: int, codes: np.ndarray):
    """Inverse-pair representatives (the smaller of v and -v) of candidates
    in Z_m, ascending with 0 last, and the sizes of their pairs (1 or 2)."""
    reps = np.sort(np.minimum(codes, -codes % m))
    reps = reps[np.append(True, reps[1:] != reps[:-1])]
    reps = np.append(reps[reps != 0], reps[reps == 0])
    return reps, np.where(-reps % m == reps, 1.0, 2.0)


def _candidate_supply(m: int, seed: int):
    """Yields deterministic candidate batches of Z_m, identity ordered last:
    every inverse-pair representative of a small group, else a seeded
    pseudorandom pool redrawn each step, with the unit 1 so generation
    stays reachable."""
    if m <= GREEDY_FULL_CAP:
        yield from itertools.repeat(_pack_candidates(m, np.arange(m)))
    rng = np.random.default_rng(seed)
    while True:
        raw = rng.integers(0, np.array([m]), size=(GREEDY_POOL, 1))
        yield _pack_candidates(m, np.append(raw, [1, 0]))


def greedy_expander(carrier: VectorCarrier, target: float) -> Multiset:
    """Greedy conditional-expectation selection with exact bias tracking on
    Z_m, a carrier with one modulus (ValueError for more).

    Elements are added in inverse-closed pairs, each step picking the
    candidate minimizing the 8th-moment potential of the partial sums of
    the characters j = 1..m-1 (a smooth pessimistic estimator for the
    maximum, which by itself ties constantly on small groups). Stops at
    the first total multiplicity with exact bias <= target; raises
    AuxInfeasibleError with the best achieved bias if the budget runs out,
    and MethodCapacityError above GREEDY_ORDER_CAP.
    """
    if len(carrier.moduli) > 1:
        raise ValueError(f"not one cyclic group: moduli {carrier.moduli}")
    m = carrier.order
    if m == 1:
        return multiset([(carrier.identity(), 1)], cert=0.0)
    if m > GREEDY_ORDER_CAP:
        raise MethodCapacityError(
            f"group order {m} exceeds the greedy provider's cap "
            f"{GREEDY_ORDER_CAP}")
    chars = np.arange(1, m, dtype=np.int64)     # the nontrivial characters
    # Re chi_j(g) = re_roots[j * g % m]
    re_roots = np.exp(2j * np.pi * np.arange(m) / m).real
    supply = _candidate_supply(m, seed=m * 1000003 + 7)

    c = np.zeros(m - 1, dtype=np.float64)
    picked = []
    best_seen = 1.0

    for _ in range(GREEDY_MAX_ADDS):
        reps, mults = next(supply)
        scores = _kernels.greedy_scores(c, chars, reps, mults, re_roots)
        pick = int(np.argmin(scores))
        picked.append(reps[pick])
        if mults[pick] == 2.0:
            picked.append(-reps[pick] % m)
        c = c + mults[pick] * re_roots[chars * reps[pick] % m]
        bias = float(np.abs(c).max()) / len(picked)
        best_seen = min(best_seen, bias)
        if bias <= target:
            return carrier.tally(np.array(picked), cert=bias)
    raise AuxInfeasibleError(
        f"greedy budget {GREEDY_MAX_ADDS} exhausted at bias {best_seen:.4f} "
        f"(target {target})", achievable_mu=best_seen)


def cyclic_expander(t: int, lam: float) -> Multiset:
    """Certified expanding multiset for Z_t (elements are 1-tuples)."""
    return greedy_expander(VectorCarrier((t,)), lam)


def vector_map(ms: Multiset, dst: VectorCarrier, cols,
               scale=1) -> Multiset:
    """Image of a vector multiset under v -> (v[cols[t]] * scale[t] mod m_t)_t
    on dst = prod_t Z_{m_t}; a column of -1 reads 0. Multiplicities and the
    certificate carry over (the maps used are onto homomorphisms)."""
    coords = ms.coordinates()
    coords = np.column_stack((coords, np.zeros(len(coords), dtype=np.int64)))
    rows = coords[:, cols] * np.asarray(scale) % np.array(dst.moduli)
    return dst.tally(dst.ravel(rows), ms.mult_array(), ms.cert)


# ---------------------------------------------------------------------------
# coordinate-window fold for prod_j Z_{p_j}^{m_j}
#
# M_s = vectors supported on block coordinates s..m_j-1; the s-th quotient
# is one coordinate per surviving prime, i.e. Z_{p_1 x ... x p_k} by CRT.

def _window_carrier(primes, ms_list, lo: int, hi: int) -> VectorCarrier:
    widths = _window_widths(ms_list, lo, hi)
    moduli = tuple(p for p, w in zip(primes, widths) for _ in range(w))
    return VectorCarrier(moduli or (1,))


def _window_widths(ms_list, lo, hi):
    return [max(0, min(hi, m) - lo) for m in ms_list]


def _window_cols(widths_src, widths_dst, offset) -> list[int]:
    """Source column of every destination column when per-block source
    coordinates sit at `offset` inside wider blocks (-1: none)."""
    cols = []
    pos = 0
    for ws, wd in zip(widths_src, widths_dst):
        cols.extend(pos + t - offset if 0 <= t - offset < ws else -1
                    for t in range(wd))
        pos += ws
    return cols


def product_base_expander(primes, m, lam: float = 0.25) -> Multiset:
    """Certified expanding multiset for prod_j Z_{p_j}^{m_j}.

    m may be a single exponent (the uniform product group) or a per-prime
    list. Each level quotient is the cyclic group Z_{p_1...p_k} handled by
    the greedy provider through CRT coordinates. Every level s < max(m_j)
    keeps a live prime, so every fold merge joins two nontrivial windows:
    a combine + amplification, certified by exhaustive character sums at
    every intermediate window. The last merge (or the one level set) is
    measured on the whole window, so its certificate is the output's.
    """
    primes = list(primes)
    ms_list = [m] * len(primes) if isinstance(m, int) else list(m)
    if len(ms_list) != len(primes) or any(v < 1 for v in ms_list):
        raise ValueError("need one positive exponent per prime")
    depth = max(ms_list)

    def level_set(s: int) -> Multiset:
        live = [p for p, mm in zip(primes, ms_list) if mm > s]
        cyc = cyclic_expander(math.prod(live), lam)
        q = VectorCarrier(tuple(live))
        # the CRT split x -> (x mod p)_p of Z_{p_1...p_k}
        return reverify(q, vector_map(cyc, q, [0] * len(live)))

    def merge(lo: int, mid: int, hi: int, upper: Multiset,
              lower: Multiset) -> Multiset:
        w_q = _window_widths(ms_list, lo, hi)
        w_up = _window_widths(ms_list, lo, mid)
        w_low = _window_widths(ms_list, mid, hi)
        q = _window_carrier(primes, ms_list, lo, hi)
        a = vector_map(lower, q, _window_cols(w_low, w_q, mid - lo))
        b = vector_map(upper, q, _window_cols(w_up, w_q, 0))
        return amplified_union(q, a, b, lam)

    # the level-s quotient window is exactly the live primes' coordinates,
    # so level sets need no re-embedding
    return fold_levels([level_set(s) for s in range(depth)], merge)


# ---------------------------------------------------------------------------
# the final construction R over prod_j Z_{p_j}^n

@dataclass(frozen=True)
class FinalR:
    n: int
    primes: tuple[int, ...]
    c: int
    fields: tuple[FieldSpec, ...]
    base: Multiset            # over prod_j Z_{p_j}^{m_j}
    points: Multiset          # over prod_j Z_{p_j}^n
    tuples: tuple             # T: c*n field-element tuples

    @property
    def cert(self) -> float:
        return self.points.cert


def _field_exponents(n: int, primes, c: int) -> list[int]:
    out = []
    for p in primes:
        m = 1
        while p**m <= c * n:
            m += 1
        out.append(m)
    return out


def final_R(n: int, primes, c: int = FINAL_C,
            eps: float = FINAL_EPS) -> FinalR:
    """Expanding generating multiset for prod_j Z_{p_j}^n.

    The base is product_base_expander's set over prod_j Z_{p_j}^{m_j},
    certified <= eps, compacted to target eps.
    T is the first c*n tuples over the fields GF(p_j^{m_j}) in lexicographic
    coefficient order (distinct j give tuples distinct in every coordinate,
    since p_j^{m_j} > c*n); each point of R is, per prime block, the vector
    of inner products <x_j^l, y_j> for l = 0..n-1. |R| = c*n*|base|
    exactly and bias(R) <= 1/c + eps by the polynomial root-counting
    argument; ``reverify`` measures it exhaustively when the group is
    small enough, and refuses a measurement above it.
    """
    primes = tuple(primes)
    exps = _field_exponents(n, primes, c)
    fields = tuple(construct_field(p, m) for p, m in zip(primes, exps))
    base = product_base_expander(primes, exps, lam=eps)
    base = compact(_window_carrier(primes, exps, 0, max(exps)), base,
                   256, target_cert=eps)
    if base.cert is None or base.cert > eps + CERT_SLACK:
        raise CertificationError(
            f"base multiset not certified <= {eps}")
    if 1 / c + base.cert > 0.25 + CERT_SLACK:
        raise CertificationError(
            f"1/c + eps = {1 / c + base.cert:.4f} exceeds 1/4")
    coords = base.coordinates()

    cn = c * n
    tuples = tuple(tuple(f.from_index(j) for f in fields) for j in range(cn))

    # the base's block j, m_j columns wide, is the additive group of field j
    ymats = np.split(coords, np.cumsum(exps)[:-1], axis=1)
    # per prime: power tables pw[j][t, l] = coeff vector of x_j(t)^l
    pws = []
    for jp, f in enumerate(fields):
        pw = np.empty((cn, n, f.m), dtype=np.int64)
        for t in range(cn):
            x = tuples[t][jp]
            acc = f.one()
            for ell in range(n):
                pw[t, ell] = acc.coeffs
                acc = acc * x
        pws.append(pw)
    # point rows are built in tuple chunks, which bounds the int64 row
    # matrix; the codes and weights of all cn * |base| points are kept and
    # tallied together, one int64 each
    carrier = r_carrier(n, primes)
    codes = []
    chunk = max(1, 4_000_000 // max(1, len(coords) * len(primes) * n))
    for t0 in range(0, cn, chunk):
        t1 = min(cn, t0 + chunk)
        blocks = [np.einsum("tlm,sm->tsl", pws[jp][t0:t1], ymats[jp]) % p
                  for jp, p in enumerate(primes)]
        flat = np.concatenate(blocks, axis=2).reshape((t1 - t0) * len(coords),
                                                      -1)
        codes.append(carrier.ravel(flat))
    cert = 1 / c + base.cert
    points = carrier.tally(np.concatenate(codes),
                           np.tile(base.mult_array(), cn), cert=cert)
    assert points.total == cn * base.total
    points = reverify(carrier, points)
    return FinalR(n, primes, c, fields, base, points, tuples)


def r_carrier(n: int, primes) -> VectorCarrier:
    return VectorCarrier(tuple(p for p in primes for _ in range(n)))


# ---------------------------------------------------------------------------
# abelianization of an abelian quotient H/N of permutation groups

@dataclass
class AbelianizationHom:
    """Onto homomorphism prod_j Z_{p_j^{e_j}}^r -> H/N.

    Basis images y[i][j] = x_i^(r_i / p_j^(e_ij)) for the reduced generators
    x_i of H; phi(a) = N * prod_j prod_i y_ij^(a_ij). The rank r is
    len(xs): at least 1, and usually far below the permutation degree.
    """

    quotient: QuotientCarrier
    xs: tuple[Perm, ...]
    orders: tuple[int, ...]
    primes: tuple[int, ...]
    exps: tuple[int, ...]              # e_j = max_i e_ij
    e_table: tuple[tuple[int, ...], ...]   # e_ij per (i, j)
    ys: tuple[tuple[Perm, ...], ...]       # y_ij per (i, j)


def factorize(d: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division."""
    if d < 2:
        raise ValueError("d must be >= 2")
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            out.append((p, e))
        p += 1
    if d > 1:
        out.append((d, 1))
    return out


def build_abelianization(hb: BSGS, nb: BSGS) -> AbelianizationHom:
    """The Appendix-style homomorphism onto an abelian quotient H/N."""
    from .bsgs import jerrum_reduce
    quotient = quotient_context(hb, nb)
    h = hb.gens
    for x in h.nontrivial_gens():
        for y in h.nontrivial_gens():
            if not nb.contains(commutator(x, y)):
                raise ValueError(
                    f"quotient is not abelian: generators {format_perm(x)} "
                    f"and {format_perm(y)} do not commute mod N")
    xs = jerrum_reduce(h).gens
    if not xs:
        xs = (h.identity(),)
    orders = tuple(x.order() for x in xs)
    prime_set = sorted({p for r in orders for p, _ in factorize(r) if r > 1})
    if not prime_set:
        prime_set = [2]
    e_table = []
    ys = []
    for x, r in zip(xs, orders):
        fac = dict(factorize(r)) if r > 1 else {}
        row_e = tuple(fac.get(p, 0) for p in prime_set)
        row_y = tuple(x ** (r // p**e) if e else h.identity()
                      for p, e in zip(prime_set, row_e))
        e_table.append(row_e)
        ys.append(row_y)
    exps = tuple(max(row[j] for row in e_table)
                 for j in range(len(prime_set)))
    hom = AbelianizationHom(quotient, tuple(xs), orders, tuple(prime_set),
                            exps, tuple(e_table), tuple(ys))
    for i, (x, r) in enumerate(zip(xs, orders)):   # order sanity
        for j, p in enumerate(prime_set):
            assert ys[i][j].order() == p ** e_table[i][j]
    return hom


# ---------------------------------------------------------------------------
# abelian quotient pipeline

def _level_groups(hom: AbelianizationHom) -> list[BSGS]:
    """L_s = <N, y_ij^(p_j^s)>; L_0 = H and the last, N, are the quotient's
    own BSGSs, so only the levels between are built. The series stops at N:
    L_s/L_{s+1} is the sum over p of p^s A_p / p^(s+1) A_p (A = H/N), so a
    step is trivial only once every p^s A_p is 0, that is, once L_s = N."""
    quotient = hom.quotient
    out = [quotient.parent]
    for s in range(1, max(hom.exps)):
        gens = list(quotient.kernel.gens.gens)
        for i in range(len(hom.xs)):
            for j, p in enumerate(hom.primes):
                if hom.e_table[i][j] > s:
                    gens.append(hom.ys[i][j] ** (p**s))
        level = schreier_sims(GenSet(quotient.parent.degree, tuple(gens)))
        if level.order() == quotient.kernel.order():
            break
        out.append(level)
    return out + [quotient.kernel]


def abelian_quotient_expander(h: BSGS, n: BSGS,
                              target: float = 0.25) -> Multiset:
    """Certified expanding multiset on the abelian quotient H/N.

    Builds the final-construction sets R over prod_j Z_{p_j}^r, with
    r = len(hom.xs), per level of the prime-power series (which stops at
    N: every level is nontrivial), pushes each through the level
    homomorphism (so nothing larger than H/N is ever materialized), and
    folds the resulting normal series of subgroups of H/N. A pushforward
    along an onto homomorphism cannot raise the bias, so each level image
    carries its source's bound into ``reverify``, which refuses an exact
    measurement above it.
    """
    hom = build_abelianization(h, n)
    if hom.quotient.order == 1:
        return multiset([(Perm.identity(h.degree), 1)], cert=0.0)
    rank = len(hom.xs)
    groups = _level_groups(hom)
    chain = SubgroupChain(tuple(groups), True)
    require_fold_route(chain, target)
    depth = chain.length
    sets = []
    for s in range(depth):
        live = [j for j in range(len(hom.primes)) if hom.exps[j] > s]
        live_primes = tuple(hom.primes[j] for j in live)
        r_points = _compact_r_points(rank, live_primes)
        # L_{s+1} <= L_s contain N and H/N is abelian: no normality check
        qcar = QuotientCarrier(groups[s], groups[s + 1])
        # the level map a -> prod y_ij^(a_ij p_j^s), as row gathers in H:
        # column (j, i) of R picks one of the p_j image rows of
        # y_ij^(a p_j^s); N is normal, so one push-down makes it a map to
        # H/N
        coords = r_points.coordinates()
        rows = PermRows(h.degree)
        acc = np.repeat(rows.codes([Perm.identity(h.degree)]), len(coords),
                        axis=0)
        for b, j in enumerate(live):
            p = hom.primes[j]
            for i in range(rank):
                if hom.e_table[i][j] > s:
                    y = hom.ys[i][j] ** (p**s)
                    powers = rows.codes([y**a for a in range(p)])
                    acc = rows.mul_codes(acc, powers[coords[:, b * rank + i]])
        raw = rows.tally(acc, r_points.mult_array())
        img = reverify(qcar, qcar.image_multiset(raw, cert=r_points.cert))
        img = compact(qcar, img, 2048, target_cert=target)
        if img.cert is None or img.cert > target + CERT_SLACK:
            img = reduce_to_quarter(qcar, img, target=target)
        sets.append(img)
        obs.event("quotient-level", level=s, total=img.total, cert=img.cert)
    return fold_series(chain, sets, target=target)


@lru_cache(maxsize=None)
def _final_r_cached(n: int, primes: tuple[int, ...]) -> FinalR:
    # R over prod Z_p^n: n is the dimension of a bias space, or the rank
    # len(hom.xs) of an abelian quotient's level map
    return final_R(n, primes, c=FINAL_C, eps=FINAL_EPS)


@lru_cache(maxsize=None)
def _compact_r_points(n: int, primes: tuple[int, ...]) -> Multiset:
    """R points compacted (certified) for cheap pushforwards."""
    r = _final_r_cached(n, primes)
    return compact(r_carrier(n, primes), r.points, 2048, target_cert=0.25)
