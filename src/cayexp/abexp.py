"""Expanding generating sets for abelian groups and abelian quotients.

The construction chain, bottom up:

* greedy_expander / cyclic_expander: deterministic greedy selection over a
  small abelian group, tracking all character sums exactly; the certificate
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
coordinate rows. A level map onto a quotient gathers, per coordinate of R,
one of p precomputed image rows and multiplies them with the quotient's
``mul_codes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, obs
from .bsgs import BSGS, schreier_sims
from .carriers import AbelianShape, QuotientCarrier, VectorCarrier
from .combine import (AuxInfeasibleError, CertificationError,
                      amplified_union, compact, fold_levels, fold_series,
                      reduce_to_quarter, reverify, _next_pow2)
from .fields import FieldSpec, construct_field
from .multiset import Multiset, multiset
from .perm import GenSet, Perm, commutator, format_perm
from .series import QuotientContext, SubgroupChain, quotient_context
from .spectra import (DENSE_CAP, EXHAUSTIVE_CHAR_CAP, bias_exhaustive,
                      root_tables)

GREEDY_ORDER_CAP = 2**18
GREEDY_FULL_CAP = 1024
GREEDY_POOL = 128
GREEDY_MAX_ADDS = 4096


def primes_up_to(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def primes_and_exponent(n: int) -> tuple[list[int], int]:
    """All primes <= n and e = ceil(log2 n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return primes_up_to(n), math.ceil(math.log2(n))


# ---------------------------------------------------------------------------
# greedy small-bias provider

def _pack_candidates(carrier: VectorCarrier, codes: np.ndarray):
    """Inverse-pair representatives of candidate codes, ascending with the
    identity (code 0) last: the smaller code of v and v^-1, its inverse's
    code, its coordinate rows and its pair multiplicity (1 for a
    self-inverse element, 2 otherwise)."""
    reps = np.sort(np.minimum(codes, carrier.inv_codes(codes)))
    reps = reps[np.append(True, reps[1:] != reps[:-1])]
    reps = np.append(reps[reps != 0], reps[reps == 0])
    inv = carrier.inv_codes(reps)
    return reps, inv, carrier.unravel(reps), np.where(inv == reps, 1.0, 2.0)


def _candidate_supply(carrier: VectorCarrier, seed: int):
    """Yields deterministic candidate batches, identity ordered last.

    Small groups enumerate every inverse-pair representative once; larger
    ones redraw a seeded pseudorandom pool each step (units always included
    so generation stays reachable).
    """
    if carrier.order <= GREEDY_FULL_CAP:
        packed = _pack_candidates(carrier, np.arange(carrier.order))
        while True:
            yield packed
    rng = np.random.default_rng(seed)
    moduli = np.array(carrier.moduli, dtype=np.int64)
    units = carrier.ravel(np.eye(len(moduli), dtype=np.int64) % moduli)
    while True:
        raw = rng.integers(0, moduli, size=(GREEDY_POOL, len(moduli)),
                           dtype=np.int64)
        yield _pack_candidates(carrier, np.concatenate(
            (carrier.ravel(raw), units, [0])))


def greedy_expander(carrier: VectorCarrier, target: float,
                    max_adds: int = GREEDY_MAX_ADDS) -> Multiset:
    """Greedy conditional-expectation selection with exact bias tracking.

    Elements are added in inverse-closed pairs, each step picking the
    candidate minimizing the 8th-moment potential of the partial character
    sums over all nontrivial characters (a smooth pessimistic estimator for
    the maximum, which by itself ties constantly on small groups). Stops at
    a power-of-2 total multiplicity with exact bias <= target (both needed
    downstream); raises AuxInfeasibleError with the best achieved bias if
    the budget runs out.
    """
    order = carrier.order
    if order == 1:
        return multiset([(carrier.identity(), 1)], cert=0.0)
    if order > GREEDY_ORDER_CAP:
        raise AuxInfeasibleError(
            f"greedy provider capped at order {GREEDY_ORDER_CAP}, "
            f"got {order}", achievable_mu=1.0)
    moduli = carrier.moduli
    digits = np.indices(moduli).reshape(len(moduli), -1).T[1:]  # nontrivial
    digits = np.ascontiguousarray(digits, dtype=np.int64)
    roots, offsets = root_tables(moduli)
    mod_arr = np.array(moduli, dtype=np.int64)
    supply = _candidate_supply(carrier, seed=order * 1000003 + 7)

    c = np.zeros(digits.shape[0], dtype=np.float64)
    picked = []
    best_seen = 1.0

    for _ in range(max_adds):
        reps, invs, rows, mults = next(supply)
        total = len(picked)
        deficit = (_next_pow2(total) - total) if total else 0
        if deficit % 2 == 1:
            live = mults == 1.0
        else:
            live = np.ones(len(reps), dtype=bool)
        scores = _kernels.greedy_scores(c, digits, rows[live], mults[live],
                                        mod_arr, roots, offsets)
        pick = int(np.flatnonzero(live)[int(np.argmin(scores))])
        picked.append(reps[pick])
        if mults[pick] == 2.0:
            picked.append(invs[pick])
        col = _kernels.real_characters(digits, rows[pick:pick + 1], mod_arr,
                                       roots, offsets)
        c = c + mults[pick] * next(col)
        total = len(picked)
        bias = float(np.abs(c).max()) / total
        best_seen = min(best_seen, bias)
        if bias <= target and total & (total - 1) == 0:
            return carrier.tally(np.array(picked), cert=bias)
    raise AuxInfeasibleError(
        f"greedy budget {max_adds} exhausted at bias {best_seen:.4f} "
        f"(target {target})", achievable_mu=best_seen)


def cyclic_expander(t: int, lam: float) -> Multiset:
    """Certified expanding multiset for Z_t (elements are 1-tuples)."""
    if t < 1:
        raise ValueError("t must be >= 1")
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
    moduli = []
    for p, m in zip(primes, ms_list):
        moduli.extend([p] * max(0, min(hi, m) - lo))
    return VectorCarrier(tuple(moduli)) if moduli else VectorCarrier((1,))


def _window_widths(primes, ms_list, lo, hi):
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
    the greedy provider through CRT coordinates; levels are folded pairwise
    with combine + amplification, certified by exhaustive character sums at
    every intermediate window.
    """
    primes = list(primes)
    ms_list = [m] * len(primes) if isinstance(m, int) else list(m)
    if len(ms_list) != len(primes) or any(v < 1 for v in ms_list):
        raise ValueError("need one positive exponent per prime")
    depth = max(ms_list)

    def level_set(s: int) -> Multiset:
        live = [p for p, mm in zip(primes, ms_list) if mm > s]
        prod = math.prod(live)
        cyc = greedy_expander(VectorCarrier((prod,)), lam)
        q = VectorCarrier(tuple(live))
        # the CRT split x -> (x mod p)_p of Z_{p_1...p_k}
        return reverify(q, vector_map(cyc, q, [0] * len(live)))

    def merge(lo: int, mid: int, hi: int, upper: Multiset,
              lower: Multiset) -> Multiset:
        w_q = _window_widths(primes, ms_list, lo, hi)
        w_up = _window_widths(primes, ms_list, lo, mid)
        w_low = _window_widths(primes, ms_list, mid, hi)
        if sum(w_low) == 0:
            return upper
        if sum(w_up) == 0:
            return lower
        q = _window_carrier(primes, ms_list, lo, hi)
        a = vector_map(lower, q, _window_cols(w_low, w_q, mid - lo))
        b = vector_map(upper, q, _window_cols(w_up, w_q, 0))
        return amplified_union(q, a, b, lam)

    # the level-s quotient window is exactly the live primes' coordinates,
    # so level sets need no re-embedding
    out = fold_levels([level_set(s) for s in range(depth)],
                      multiset([((0,), 1)], cert=0.0), merge)
    return reverify(_window_carrier(primes, ms_list, 0, depth), out)


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


def final_R(n: int, primes, c: int = 8, base: Multiset | None = None,
            eps: float = 0.125, verify: bool = True) -> FinalR:
    """Expanding generating multiset for prod_j Z_{p_j}^n.

    T is the first c*n tuples over the fields GF(p_j^{m_j}) in lexicographic
    coefficient order (distinct j give tuples distinct in every coordinate,
    since p_j^{m_j} > c*n); each point of R is, per prime block, the vector
    of inner products <x_j^l, y_j> for l = 0..n-1. |R| = c*n*|psi(S)|
    exactly and bias(R) <= 1/c + eps by the polynomial root-counting
    argument; the bound is re-measured exhaustively when the group is small
    enough.
    """
    primes = tuple(primes)
    exps = _field_exponents(n, primes, c)
    fields = tuple(construct_field(p, m) for p, m in zip(primes, exps))
    if base is None:
        base = product_base_expander(primes, exps, lam=eps)
        packed = compact(_window_carrier(primes, exps, 0, max(exps)), base,
                         256, target_cert=eps)
        if packed.cert is not None and packed.cert <= eps + 1e-9:
            base = packed
    if base.cert is None or base.cert > eps + 1e-9:
        raise CertificationError(
            f"base multiset not certified <= {eps}")
    if 1 / c + base.cert > 0.25 + 1e-9:
        raise CertificationError(
            f"1/c + eps = {1 / c + base.cert:.4f} exceeds 1/4")
    coords = base.coordinates()
    width = coords.shape[1]
    # base over the ragged product has exactly m_j coords per block; a
    # uniform-m base is truncated per block by psi
    if width == sum(exps):
        widths = list(exps)
    elif width % len(primes) == 0 and width // len(primes) >= max(exps):
        widths = [width // len(primes)] * len(primes)
    else:
        raise ValueError("base vector width incompatible with field sizes")

    cn = c * n
    if any(f.size <= cn for f in fields):
        raise ValueError("field too small for c*n distinct tuple coordinates")
    tuples = tuple(tuple(f.from_index(j) for f in fields) for j in range(cn))

    # psi, the coordinate truncation onto the fields' additive groups: the
    # first m_j columns of block j (every block is at least m_j wide)
    starts = np.cumsum([0] + widths[:-1])
    ymats = [coords[:, pos:pos + f.m] for pos, f in zip(starts, fields)]
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
    if verify and carrier.order <= EXHAUSTIVE_CHAR_CAP:
        measured = bias_exhaustive(carrier, points)
        if measured > cert + 1e-9:
            raise CertificationError(
                f"measured bias {measured} above analytic bound {cert}")
        points = points.with_cert(measured)
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

    ctx: QuotientContext
    xs: tuple[Perm, ...]
    orders: tuple[int, ...]
    primes: tuple[int, ...]
    exps: tuple[int, ...]              # e_j = max_i e_ij
    e_table: tuple[tuple[int, ...], ...]   # e_ij per (i, j)
    ys: tuple[tuple[Perm, ...], ...]       # y_ij per (i, j)

    @property
    def domain_shape(self) -> AbelianShape:
        n = len(self.xs)
        return AbelianShape(tuple(
            (p, e, n) for p, e in zip(self.primes, self.exps)))

    def apply(self, vec) -> Perm:
        """phi(a): canonical representative of N * prod y_ij^{a_ij}."""
        n = len(self.xs)
        acc = Perm.identity(self.ctx.parent.degree)
        pos = 0
        for j in range(len(self.primes)):
            for i in range(n):
                a = vec[pos]
                pos += 1
                if a:
                    acc = acc * (self.ys[i][j] ** a)
        return self.ctx.canonicalize(acc)


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
    ctx = quotient_context(hb, nb)
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
    hom = AbelianizationHom(ctx, tuple(xs), orders, tuple(prime_set),
                            exps, tuple(e_table), tuple(ys))
    for i, (x, r) in enumerate(zip(xs, orders)):   # order sanity
        for j, p in enumerate(prime_set):
            assert ys[i][j].order() == p ** e_table[i][j]
    return hom


# ---------------------------------------------------------------------------
# abelian quotient pipeline

def _level_groups(hom: AbelianizationHom) -> list[BSGS]:
    """L_s = <N, y_ij^(p_j^s)>; L_0 = H and L_emax = N are the quotient
    context's own BSGSs, so only the levels between are built."""
    ctx = hom.ctx
    out = [ctx.parent]
    for s in range(1, max(hom.exps)):
        gens = list(ctx.kernel.gens.gens)
        for i in range(len(hom.xs)):
            for j, p in enumerate(hom.primes):
                if hom.e_table[i][j] > s:
                    gens.append(hom.ys[i][j] ** (p**s))
        out.append(schreier_sims(GenSet(ctx.parent.degree, tuple(gens))))
    return out + [ctx.kernel]


def abelian_quotient_expander(h: BSGS, n: BSGS, target: float = 0.25,
                              c: int = 8, eps: float = 0.125) -> Multiset:
    """Certified expanding multiset on the abelian quotient H/N.

    Builds the final-construction sets R over prod_j Z_{p_j}^r, with
    r = len(hom.xs), per level of the prime-power series, pushes each
    through the level homomorphism (so nothing larger than H/N is ever
    materialized), and folds the resulting normal series of subgroups of
    H/N. A level image measured exactly (order at most DENSE_CAP) above
    its source's bound raises CertificationError.
    """
    hom = build_abelianization(h, n)
    ctx = hom.ctx
    if ctx.order == 1:
        return multiset([(ctx.identity(), 1)], cert=0.0)
    rank = len(hom.xs)
    groups = _level_groups(hom)
    depth = len(groups) - 1
    sets = []
    for s in range(depth):
        live = [j for j in range(len(hom.primes)) if hom.exps[j] > s]
        live_primes = tuple(hom.primes[j] for j in live)
        r_points = _compact_r_points(rank, live_primes, c, eps)
        qcar = QuotientCarrier(quotient_context(groups[s], groups[s + 1]))
        # the level map a -> prod y_ij^(a_ij p_j^s), as row gathers: column
        # (j, i) of R picks one of the p_j image rows of y_ij^(a p_j^s)
        coords = r_points.coordinates()
        ident = qcar.codes([qcar.identity()])
        acc = np.repeat(ident, len(coords), axis=0)
        for b, j in enumerate(live):
            p = hom.primes[j]
            for i in range(rank):
                if hom.e_table[i][j] > s:
                    y = hom.ys[i][j] ** (p**s)
                    # mul_codes makes each product canonical, and N is
                    # normal, so the power rows need not be canonical
                    powers = qcar.codes([y**a for a in range(p)])
                    acc = qcar.mul_codes(acc, powers[coords[:, b * rank + i]])
        img = reverify(qcar, qcar.tally(acc, r_points.mult_array(),
                                        r_points.cert))
        # a pushforward along an onto homomorphism cannot raise the bias;
        # above DENSE_CAP reverify gives the moment iteration's upper end,
        # which sits above the true bias, so only exact values are compared
        if (qcar.order <= DENSE_CAP and img.cert is not None
                and img.cert > r_points.cert + 1e-9):
            raise CertificationError(
                f"level {s} image bias {img.cert} above its source bound "
                f"{r_points.cert}")
        img = compact(qcar, img, 2048, target_cert=target)
        if img.cert is None or img.cert > target + 1e-9:
            img = reduce_to_quarter(qcar, img, target=target)
        sets.append(img)
        obs.event("quotient-level", level=s, total=img.total, cert=img.cert)
    chain = SubgroupChain(tuple(groups), "normal-series", True)
    return fold_series(chain, sets, target=target)


@lru_cache(maxsize=None)
def _final_r_cached(n: int, primes: tuple[int, ...], c: int,
                    eps: float) -> FinalR:
    # R over prod Z_p^n: n is the dimension of a bias space, or the rank
    # len(hom.xs) of an abelian quotient's level map
    return final_R(n, primes, c=c, eps=eps)


@lru_cache(maxsize=None)
def _compact_r_points(n: int, primes: tuple[int, ...], c: int,
                      eps: float) -> Multiset:
    """R points compacted (certified) for cheap pushforwards."""
    r = _final_r_cached(n, primes, c, eps)
    return compact(r_carrier(n, primes), r.points, 2048, target_cert=0.25)
