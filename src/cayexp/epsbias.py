"""Epsilon-bias spaces for Z_d^n.

Z_d^n is split by the prime factorization of d into prod_j Z_{p_j^{e_j}}^n;
each level of the prime-power series gets a final-construction set, the
levels are folded, and the per-prime coordinates are recombined to digits in
[0, d) by CRT. For eps < 1/4 the space is amplified by derandomized
squaring on the abelian Cayley graph, certified by character sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abexp import (_compact_r_points, _final_r_cached, factorize,
                    vector_map)
from .carriers import VectorCarrier
from .combine import (amplified_union, fold_levels, reduce_to_quarter,
                      reverify, symmetrize)
from .multiset import Multiset, format_rows, multiset
from .spectra import EXHAUSTIVE_CHAR_CAP, MethodCapacityError, bias_exhaustive

D_CAP = 10**6


@dataclass(frozen=True)
class BiasSpace:
    d: int
    n: int
    points: Multiset            # over (d,)*n
    certified_eps: float
    method: str

    @property
    def size(self) -> int:
        return self.points.total

    def sidecar(self) -> dict:
        return {"d": self.d, "n": self.n, "eps": self.certified_eps,
                "size": self.size, "certified_eps": self.certified_eps,
                "method": self.method}


def _kfold_carrier(fac, n: int, lo: int, hi: int) -> VectorCarrier:
    moduli = []
    for p, e in fac:
        w = max(0, min(hi, e) - lo)
        if w:
            moduli.extend([p**w] * n)
    return VectorCarrier(tuple(moduli)) if moduli else VectorCarrier((1,))


def _kfold_cols(fac, n, lo, hi, src_lo, src_hi):
    """The embedding of the [src_lo, src_hi) window into the [lo, hi) window,
    as ``vector_map`` columns and scales.

    Exponent digits [src_lo, src_hi) sit at p-adic offset src_lo - lo inside
    the wider window's residues, so each coordinate is scaled by
    p^(src_lo - lo); a prime with no source digits reads column -1 (zero).
    """
    cols, scale = [], []
    pos = 0
    for p, e in fac:
        wd = max(0, min(hi, e) - lo)
        ws = max(0, min(src_hi, e) - src_lo)
        if wd:
            cols.extend(range(pos, pos + n) if ws else [-1] * n)
            scale.extend([p ** (src_lo - lo)] * n)
        if ws:
            pos += n
    return cols, scale


def _crt_digits(ms: Multiset, fac, carrier: VectorCarrier) -> Multiset:
    """Recombine per-prime residue blocks into digits of Z_d by CRT.

    Block j holds the n residues mod q_j = p_j^e_j; digit i is
    sum_j r_ji * m_j * (m_j^-1 mod q_j) mod d with m_j = d / q_j, computed
    over the (support, k*n) residue array. Every term is below d^2 and
    d <= D_CAP = 10^6 has at most 7 prime factors, so int64 is exact.
    carrier is Z_d^n.
    """
    d, n = carrier.moduli[0], len(carrier.moduli)
    depth = max(e for _, e in fac)
    blocks = _kfold_carrier(fac, n, 0, depth)
    res = blocks.unravel(blocks.codes(ms))
    digits = np.zeros((len(res), n), dtype=np.int64)
    for jb, (p, e) in enumerate(fac):
        q = p**e
        m = d // q
        digits += res[:, jb * n:(jb + 1) * n] * (m * pow(m, -1, q) % d)
    return carrier.tally(carrier.ravel(digits % d), ms.mult_array(),
                         cert=ms.cert)


def zdn_bias_space(d: int, n: int, eps: float, c: int = 8,
                   base_eps: float = 0.125) -> BiasSpace:
    """Certified eps-bias space for Z_d^n."""
    if d < 2 or n < 1 or not (0 < eps < 1):
        raise ValueError("need d >= 2, n >= 1, 0 < eps < 1")
    if d > D_CAP:
        raise ValueError(f"d is limited to {D_CAP} (unary-input regime)")
    fac = factorize(d)
    primes = tuple(p for p, _ in fac)
    depth = max(e for _, e in fac)

    def level_set(s: int) -> Multiset:
        live = tuple(p for p, e in fac if e > s)
        if depth == 1:
            # nothing to fold or push forward: keep the construction's exact
            # c*n*|psi(S)| output so sizes stay comparable across n
            return _final_r_cached(n, live, c, base_eps).points
        return _compact_r_points(n, live, c, base_eps)

    def merge(lo: int, mid: int, hi: int, upper: Multiset,
              lower: Multiset) -> Multiset:
        w_low = sum(max(0, min(hi, e) - mid) for _, e in fac)
        w_up = sum(max(0, min(mid, e) - lo) for _, e in fac)
        if w_low == 0:
            return upper
        if w_up == 0:
            return lower
        q = _kfold_carrier(fac, n, lo, hi)
        # the digit lift of the B side is not inverse-closed in the wider
        # window (only its image mod the A part is), so symmetrize both
        a = symmetrize(q, vector_map(
            lower, q, *_kfold_cols(fac, n, lo, hi, mid, hi)))
        b = symmetrize(q, vector_map(
            upper, q, *_kfold_cols(fac, n, lo, hi, lo, mid)))
        return amplified_union(q, a, b, 0.25)

    out = fold_levels([level_set(s) for s in range(depth)],
                      multiset([((0,), 1)], cert=0.0), merge)

    carrier = VectorCarrier((d,) * n)
    pts = reverify(carrier, _crt_digits(out, fac, carrier))
    method = "character-sum" if carrier.order <= EXHAUSTIVE_CHAR_CAP \
        else "analytic"
    if pts.cert is None:
        raise MethodCapacityError(
            "pipeline produced no certificate (group beyond analytic path)")

    if pts.cert > eps:
        if carrier.order > EXHAUSTIVE_CHAR_CAP:
            raise MethodCapacityError(
                f"amplification to eps={eps} needs exhaustive verification; "
                f"d^n = {carrier.order} exceeds {EXHAUSTIVE_CHAR_CAP}")
        pts = reduce_to_quarter(carrier, pts, target=eps)
    if pts.cert is None or pts.cert > eps + 1e-9:
        raise MethodCapacityError(
            f"could not certify eps={eps}: reached {pts.cert}")
    return BiasSpace(d, n, pts, float(pts.cert), method)


def verify_bias(space: BiasSpace, sampled: bool = False) -> float:
    """Exact maximal nontrivial character sum of the space."""
    carrier = VectorCarrier((space.d,) * space.n)
    if carrier.order > EXHAUSTIVE_CHAR_CAP:
        if not sampled:
            raise MethodCapacityError(
                f"d^n = {carrier.order} exceeds exhaustive cap; pass "
                f"sampled=True for a non-certifying estimate")
        from .spectra import bias_sampled
        return bias_sampled(carrier, space.points)
    return bias_exhaustive(carrier, space.points)


# ---------------------------------------------------------------------------
# file format

def format_bias_space(space: BiasSpace) -> str:
    """One line of comma-separated coordinates per point, a point of
    multiplicity m on m equal lines."""
    coords = space.points.coordinates()
    row = ",".join(["%d"] * coords.shape[1]) + "\n"
    lines = format_rows(row, coords).splitlines(keepends=True)
    return "".join([line * m for line, m in zip(lines, space.points.mults)])


def parse_bias_space(text: str, d: int, n: int) -> Multiset:
    pairs = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        vec = tuple(int(c) for c in ln.split(","))
        if len(vec) != n or any(not 0 <= c < d for c in vec):
            raise ValueError(f"bad point {ln!r}")
        pairs.append((vec, 1))
    return multiset(pairs)
