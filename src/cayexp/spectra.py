"""Spectral certification: second eigenvalues and character-sum bias.

Every pipeline output is certified here, and only here is it decided how,
and whether, a multiset is measured: ``exact_method`` names a carrier's
route, or None above its cap (where callers carry analytic bounds only),
and ``measure`` runs a named route. A route asked for above its cap raises
``MethodCapacityError`` (defined in ``carriers``), as ``second_eigenvalue``
does on any carrier where no route is left. The routes:

* dense      -- build the |G| x |G| normalized adjacency of Cay(G,S) from the
                right-regular action and run a symmetric eigensolver.
* power      -- two Krylov phases from delta_0 - 1/n, for groups too
                large to store densely (method "power-iteration", the name
                of the moment iteration they replaced). They bracket
                lambda2: the report's lambda2 is the lower end, the largest
                |Ritz value| of a Lanczos run; lambda2_upper is a
                Chebyshev-filtered trace bound with a rounding margin, and
                that upper end is the one that certifies. Their bits do not
                depend on the BLAS thread count.
* character  -- for abelian carriers the characters diagonalize every Cayley
                operator, so the bias (maximal nontrivial character sum) *is*
                lambda2; computed exhaustively as a multidimensional DFT of
                the weight tensor, up to EXHAUSTIVE_CHAR_CAP.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from . import _kernels
from .carriers import (AbelianShape, Carrier, MethodCapacityError,
                       VectorCarrier, multiset_order_check, require_symmetric)
from .multiset import Multiset, format_rows

DENSE_CAP = 10_000
ITER_CAP = 1_000_000
EXHAUSTIVE_CHAR_CAP = 2_000_000
# power_lambda2 stops once its upper end lies this close to its lower end
KRYLOV_GAP = 2e-3

FORMAT_VERSION = 1


@dataclass(frozen=True)
class SpectrumReport:
    group_order: int
    degree_total: int
    lambda2: float
    method: str
    tolerance: float
    certified_target: float | None = None
    # power route only: lambda2 is the interval's lower end
    lambda2_upper: float | None = None
    matvecs: int | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.lambda2_upper is None:
            del d["lambda2_upper"], d["matvecs"]
        d["format_version"] = FORMAT_VERSION
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @property
    def bound(self) -> float:
        """The end that certifies: the interval's upper end, if any."""
        return self.lambda2 if self.lambda2_upper is None \
            else self.lambda2_upper


def certify(report: SpectrumReport, target: float) -> bool:
    """True iff the measured bound meets the target within tolerance."""
    return report.bound <= target + report.tolerance


# ---------------------------------------------------------------------------
# root-of-unity tables for the greedy character columns

def root_tables(moduli) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(moduli), dtype=np.int64)
    total = 0
    for t, m in enumerate(moduli):
        offsets[t] = total
        total += m
    roots = np.empty(total, dtype=np.complex128)
    for t, m in enumerate(moduli):
        k = np.arange(m)
        roots[offsets[t]:offsets[t] + m] = np.exp(2j * np.pi * k / m)
    return roots, offsets


def seed_body(ms: Multiset) -> bytes:
    """The multiset's part of instance_seed: repr((elem, m)) per pair, a
    Perm written as its image tuple."""
    coords = ms.coordinates()
    width = coords.shape[1]
    elem = "(" + ", ".join(["%d"] * width) + ("," if width == 1 else "") + ")"
    table = np.column_stack((coords, ms.mult_array()))
    return format_rows("(" + elem + ", %d)", table).encode()


def instance_seed(moduli, body: bytes) -> int:
    """Deterministic seed of moduli and a multiset's seed_body."""
    digest = hashlib.sha256(repr(tuple(moduli)).encode() + body).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# abelian bias

def bias_exhaustive(carrier: VectorCarrier, ms: Multiset) -> float:
    """Exact maximal nontrivial character sum via a multidimensional DFT.

    On Z_2^L with total below 2^53 the spectrum is an exact integer
    Walsh-Hadamard transform; the complex FFT gives the same bits there.
    """
    order = carrier.order
    if order > EXHAUSTIVE_CHAR_CAP:
        raise MethodCapacityError(
            f"group order {order} exceeds the exhaustive character cap "
            f"{EXHAUSTIVE_CHAR_CAP}")
    if order == 1:
        return 0.0
    w = ms.mult_array().astype(np.float64)
    flat = np.bincount(carrier.codes(ms), weights=w, minlength=order)
    if set(carrier.moduli) == {2} and ms.total < 2**53:
        mags = np.abs(_kernels.walsh_hadamard(flat))
    else:
        mags = np.abs(np.fft.fftn(flat.reshape(carrier.moduli))).ravel()
    mags[0] = 0.0
    return float(mags.max() / w.sum())


def abelian_bias(shape: AbelianShape | VectorCarrier, ms: Multiset) -> float:
    """Max over nontrivial characters of |E_s chi(s)| (= lambda2 of the
    graph), exactly; above the exhaustive cap, MethodCapacityError."""
    carrier = shape if isinstance(shape, VectorCarrier) else VectorCarrier.of(shape)
    if not multiset_order_check(carrier, ms):
        raise ValueError("element shape mismatch")
    require_symmetric(carrier, ms)
    return bias_exhaustive(carrier, ms)


# ---------------------------------------------------------------------------
# dense and iterative second eigenvalue

def dense_spectrum(carrier: Carrier, ms: Multiset) -> np.ndarray:
    """All eigenvalues of the normalized adjacency operator, ascending."""
    n = carrier.order
    if n > DENSE_CAP:
        raise MethodCapacityError(f"group order {n} exceeds dense cap "
                                  f"{DENSE_CAP}")
    require_symmetric(carrier, ms)   # the eigensolver assumes symmetry
    tables, weights = carrier.action_tables(ms)
    m = _kernels.dense_adjacency(tables, weights, n)
    return np.linalg.eigvalsh(m)


def dense_lambda2(carrier: Carrier, ms: Multiset) -> float:
    evs = dense_spectrum(carrier, ms)
    if len(evs) < 2:
        return 0.0
    return float(max(-evs[0], evs[-2], 0.0))


class MomentInterval(NamedTuple):
    """Bounds on lambda2 from the Krylov route, and the matvecs it took."""
    lower: float
    upper: float
    matvecs: int


def power_lambda2(carrier: Carrier, ms: Multiset, tol: float = 1e-9,
                  itmax: int = 10_000) -> MomentInterval:
    """Bounds on lambda2 from two Krylov phases on x_0 = delta_0 - 1/n.

    x_0 is orthogonal to the constant vector, and the mean is subtracted
    after every matvec, so both phases see M on the nontrivial eigenvalues
    lambda_i only. A Cayley graph is vertex-transitive, so the spectral
    measure of x_0 is the whole nontrivial spectrum: the eigenspace of
    lambda_i holds a share m_i / n >= 1/n of ||x_0||^2 ~ 1, and for any
    polynomial p, n ||p(M) x_0||^2 = n (p(M)^2)_00 - p(1)^2 = sum_i
    p(lambda_i)^2 (the trace identity; Hoory, Linial and Wigderson, Bull.
    AMS 2006). All inner products and norms are numpy pairwise sums, and the
    k x k tridiagonal eigensolve is far below OpenBLAS's threading sizes,
    so the bits do not depend on the BLAS thread count. ``matvecs`` counts
    both phases, and ``itmax`` caps their total.

    Lower end: three-term Lanczos with no stored basis. The Ritz values of
    the tridiagonal T_k lie between the smallest and largest lambda_i, so
    the largest |Ritz value| theta_k is a lower bound on lambda2 in exact
    arithmetic. The phase stops once theta_k gains less than ``tol`` in a
    step, once beta is within the allowance below (the Krylov space is used
    up, and the Ritz values are eigenvalues), or one matvec short of
    ``itmax``. In floating point the Ritz values can leave the spectrum by
    the rounding of the steps (Paige, Linear Algebra Appl. 1980; his
    worst-case bound grows like k^{5/2}; the excess over a dense lambda2
    seen on the catalog groups is at most 4.4e-16). The report subtracts
    the allowance k g, with g = (support + log2 n + 8) eps the relative
    rounding of one step. The lower end is an estimate: it never certifies.

    Upper end: a Chebyshev-filtered trace. With tau = max(lower,
    KRYLOV_GAP / 2) and v_k = T_k(M / tau) x_0 by the recurrence v_{k+1} =
    2 (M / tau) v_k - v_{k-1}, s_k = n ||v_k||^2 = sum_i T_k(lambda_i /
    tau)^2 >= T_k(lambda2 / tau)^2. |T_k| >= 1 grows outside [-1, 1], so
    lambda2 <= tau cosh(arccosh(sqrt(max(s_k, 1))) / k) for every k; the
    best so far is the upper end. The phase stops once it lies within
    KRYLOV_GAP of the lower end, or when ``itmax`` runs out; the trivial
    bound 1 stands until a step beats it. The pair (v_k, v_{k-1}) is
    rescaled by a power of two, exactly, whenever ||v_k||^2 exceeds 2^200,
    so an underestimated tau cannot overflow.

    Rounding of the upper end, to first order in eps. If lambda2 <= tau the
    bound is at least tau and holds as computed, so let r = lambda2 / tau >
    1. A step (matvec, mean subtraction, scaling by 2 / tau, subtraction of
    v_{k-2}) adds an error f_j with ||f_j|| <= g ((2 / tau) ||v_{j-1}|| +
    ||v_{j-2}||): the matvec errs by (support + 1) eps ||v_{j-1}|| (M has
    nonnegative entries and norm 1); the computed mean leaves a constant
    component of norm (log2 n + 2) eps ||M v_{j-1}||, which the scaling
    amplifies by 2 / tau before the next subtraction removes it. The
    computed recurrence applies B = P M / tau (P the projection off the
    constants), whose spectrum is {0} and the lambda_i / tau, so f_j
    reaches v_k as U_{k-j}(B) f_j, with U the Chebyshev polynomials of the
    second kind, and ||U_m(B)|| <= U_m(r). With r = cosh(t), U_m(r) T_i(r)
    = sinh((m+1) t) cosh(i t) / sinh(t) <= (m+1) cosh((m+i) t), so
    U_{k-j}(r) ||v_{j-1}|| <= (k-j+1) T_k(r) ||x_0||, and the same holds
    for v_{j-2}. Summed over j, ||v~_k - v_k|| <= (1 + 2/tau) k(k+1)/2 g
    T_k(r) ||x_0||, while ||v_k|| >= T_k(r) / sqrt(n) (the share of the
    lambda2 eigenspace). So the relative error of v~_k is at most
    eta_k = g (1 + sqrt(n) (1 + (1 + 2/tau) k(k+1)/2)), where the leading
    terms also cover the rounding of x_0 and of the norm's sum, and s_k <=
    s~_k / (1 - eta_k)^2. The bound uses that inflated s_k, and a final
    factor 1 + g covers the logarithms and cosh.
    """
    n = carrier.order
    if n > ITER_CAP:
        raise MethodCapacityError(f"group order {n} exceeds iterative cap "
                                  f"{ITER_CAP}")
    if n == 1:
        return MomentInterval(0.0, 0.0, 0)
    require_symmetric(carrier, ms)
    tables, weights = carrier.action_tables(ms)
    g = (len(weights) + n.bit_length() + 8) * float(np.finfo(np.float64).eps)
    # M fixes the constant vector, so M x_0 = M delta_0 - 1/n; M delta_0
    # holds one weight per entry, so the uniform multiset gives exactly 0.
    # Both phases start from this one matvec.
    mx0 = np.zeros(n)
    mx0[0] = 1.0
    mx0 = _kernels.cayley_matvec(tables, weights, mx0)
    mx0 -= 1.0 / n
    if not mx0.any():
        return MomentInterval(0.0, 0.0, 1)
    lower, lanczos = _lanczos_lower(tables, weights, mx0, g, tol,
                                    max(itmax - 1, 1))
    upper, chebyshev = _chebyshev_upper(tables, weights, mx0, g, lower,
                                        itmax - lanczos)
    return MomentInterval(lower, upper, lanczos + chebyshev)


def _start_vector(n: int) -> np.ndarray:
    x0 = np.full(n, -1.0 / n)
    x0[0] += 1.0
    return x0


def _lanczos_lower(tables, weights, mx0, g, tol, budget) -> tuple[float, int]:
    """The lower end of power_lambda2 and the matvecs it took (mx0 is the
    first)."""
    n = mx0.size
    norm0 = math.sqrt(1.0 - 1.0 / n)
    q_prev, q = None, _start_vector(n) / norm0
    w = mx0 / norm0
    alphas, betas = [], []
    theta = 0.0
    k = 1
    while True:
        alpha = float(np.sum(q * w))
        w -= alpha * q
        alphas.append(alpha)
        t = np.diag(alphas)
        t[np.arange(1, k), np.arange(k - 1)] = betas   # eigvalsh reads "L"
        ritz = np.linalg.eigvalsh(t)
        gain = float(max(-ritz[0], ritz[-1])) - theta
        theta += gain
        beta = math.sqrt(float(np.sum(w * w)))
        if gain < tol or beta <= k * g or k >= budget:
            return max(theta - k * g, 0.0), k
        betas.append(beta)
        w /= beta
        q_prev, q = q, w
        w = _kernels.cayley_matvec(tables, weights, q)
        w -= w.mean()
        w -= beta * q_prev
        k += 1


def _chebyshev_upper(tables, weights, mx0, g, lower,
                     budget) -> tuple[float, int]:
    """The upper end of power_lambda2 and the matvecs it took beyond mx0."""
    n = mx0.size
    tau = max(lower, KRYLOV_GAP / 2)
    v_prev, v = _start_vector(n), mx0 / tau
    upper = 1.0
    scale = 0           # v_k is v * 2^scale
    k = 1
    while True:
        sq = float(np.sum(v * v))
        eta = g * (1.0 + math.sqrt(n) * (1.0 + (1.0 + 2.0 / tau)
                                         * k * (k + 1) / 2))
        if sq > 0.0 and eta < 1.0:
            # log of the inflated s_k, and arccosh(sqrt(s)) =
            # log(sqrt(s)) + log(1 + sqrt(1 - 1/s)) for s >= 1
            log_s = (math.log(n * sq) + 2 * scale * math.log(2.0)
                     - 2.0 * math.log1p(-eta))
            acosh = (0.5 * log_s + math.log1p(math.sqrt(-math.expm1(-log_s)))
                     if log_s > 0.0 else 0.0)
            upper = min(upper, tau * math.cosh(acosh / k) * (1.0 + g))
        if upper - lower <= KRYLOV_GAP or k > budget:
            return upper, k - 1
        if sq > 2.0 ** 200:
            e = math.frexp(sq)[1] // 2
            v *= 2.0 ** -e
            v_prev *= 2.0 ** -e
            scale += e
        y = _kernels.cayley_matvec(tables, weights, v)
        y -= y.mean()
        y *= 2.0 / tau
        y -= v_prev
        v_prev, v = v, y
        k += 1


# ---------------------------------------------------------------------------
# the measurement route and the unified entry point

def exact_method(carrier: Carrier) -> str | None:
    """The route that measures lambda2 exactly on the carrier, or None
    above its cap."""
    n = carrier.order
    if isinstance(carrier, VectorCarrier):
        return "character-sum" if n <= EXHAUSTIVE_CHAR_CAP else None
    if n <= DENSE_CAP:
        return "dense"
    if n <= ITER_CAP:
        return "power-iteration"
    return None


def measure(carrier: Carrier, ms: Multiset, method: str) -> SpectrumReport:
    """The report of one named route; the route makes its own checks."""
    upper = matvecs = None
    tolerance = 1e-9
    if method == "dense":
        lam = dense_lambda2(carrier, ms)
    elif method == "power-iteration":
        lam, upper, matvecs = power_lambda2(carrier, ms)
        tolerance = 0.0     # the upper end carries its rounding margin
    elif method == "character-sum":
        if not isinstance(carrier, VectorCarrier):
            raise ValueError("character-sum method needs an abelian carrier")
        lam = bias_exhaustive(carrier, ms)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectrumReport(group_order=carrier.order, degree_total=ms.total,
                          lambda2=lam, method=method, tolerance=tolerance,
                          lambda2_upper=upper, matvecs=matvecs)


def second_eigenvalue(carrier: Carrier, ms: Multiset,
                      method: str = "auto") -> SpectrumReport:
    """Certified lambda2 of Cay(G, S) for a symmetric multiset S, by
    ``exact_method``'s route unless a method is named. Above the caps
    MethodCapacityError."""
    require_symmetric(carrier, ms)
    if method == "auto":
        method = exact_method(carrier)
        if method is None:
            raise MethodCapacityError(
                f"group order {carrier.order} exceeds all caps")
    # after the capacity check: a permutation group answers membership from
    # its element table, which the measurement then reuses
    if not multiset_order_check(carrier, ms):
        raise ValueError("multiset contains elements outside the group")
    return measure(carrier, ms, method)


# ---------------------------------------------------------------------------
# structural graph checks

def graph_info(carrier: Carrier, ms: Multiset) -> dict:
    """Connectivity, bipartiteness and diameter of Cay(G, S) by BFS."""
    tables, _ = carrier.action_tables(ms)
    dist = _kernels.bfs_distances(tables)
    connected = bool((dist >= 0).all())
    bipartite = True
    reached = np.nonzero(dist >= 0)[0]
    for j in range(tables.shape[0]):
        tj = tables[j][reached]
        if np.any((dist[reached] + dist[tj]) % 2 == 0):
            bipartite = False
            break
    return {
        "connected": connected,
        "bipartite": bipartite,
        "diameter": int(dist.max()) if connected else -1,
    }
