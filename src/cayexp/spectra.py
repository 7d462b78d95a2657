"""Spectral certification: second eigenvalues and character-sum bias.

Every pipeline output is certified here. Three measurement routes:

* dense      -- build the |G| x |G| normalized adjacency of Cay(G,S) from the
                right-regular action and run a symmetric eigensolver.
* power      -- one moment iteration x_k = M x_{k-1} from delta_0 - 1/n,
                for groups too large to store densely. It brackets lambda2:
                the report's lambda2 is the converged lower end, a norm
                ratio; lambda2_upper is the trace-method bound
                (n ||x_k||^2)^{1/(2k)} with a rounding margin, and that
                upper end is the one that certifies.
* character  -- for abelian carriers the characters diagonalize every Cayley
                operator, so the bias (maximal nontrivial character sum) *is*
                lambda2; computed exhaustively as a multidimensional DFT of
                the weight tensor, or on a deterministic pseudorandom sample
                of characters above the exhaustive cap (sampled results are
                lower-bound monitoring, never certificates).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from . import _kernels
from .carriers import (AbelianShape, Carrier, VectorCarrier,
                       multiset_order_check, require_symmetric)
from .multiset import Multiset, format_rows

DENSE_CAP = 10_000
ITER_CAP = 1_000_000
EXHAUSTIVE_CHAR_CAP = 2_000_000
SAMPLED_CHAR_COUNT = 100_000

FORMAT_VERSION = 1


class MethodCapacityError(ValueError):
    """Group too large for the requested measurement method."""


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
    def certifying(self) -> bool:
        return not self.method.endswith("sampled")

    @property
    def bound(self) -> float:
        """The end that certifies: the interval's upper end, if any."""
        return self.lambda2 if self.lambda2_upper is None \
            else self.lambda2_upper


def certify(report: SpectrumReport, target: float) -> bool:
    """True iff the measured bound meets the target within tolerance."""
    return report.certifying and report.bound <= target + report.tolerance


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
            f"{order} characters exceed the exhaustive cap "
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


def bias_direct(carrier: VectorCarrier, ms: Multiset,
                betas: np.ndarray) -> np.ndarray:
    """Character sums |E_s chi(s)| for the given character rows."""
    pts = carrier.unravel(carrier.codes(ms))
    w = ms.mult_array().astype(np.float64)
    sums = _kernels.char_sums(pts, w, betas, carrier.moduli)
    return np.abs(sums) / w.sum()


def bias_sampled(carrier: VectorCarrier, ms: Multiset,
                 count: int = SAMPLED_CHAR_COUNT) -> float:
    """Deterministic pseudorandom character sample; a lower-bound estimate."""
    rng = np.random.default_rng(instance_seed(carrier.moduli,
                                             seed_body(ms)))
    moduli = np.array(carrier.moduli, dtype=np.int64)
    # keep the kernel work bounded for very large point sets
    count = max(1000, min(count, 10**8 // max(ms.support, 1)))
    best = 0.0
    block = 20_000
    drawn = 0
    while drawn < count:
        b = min(block, count - drawn)
        betas = rng.integers(0, moduli, size=(b, len(moduli)), dtype=np.int64)
        betas = betas[np.any(betas != 0, axis=1)]
        if betas.size:
            best = max(best, float(bias_direct(carrier, ms, betas).max()))
        drawn += b
    return best


def abelian_bias(shape: AbelianShape | VectorCarrier, ms: Multiset) -> float:
    """Max over nontrivial characters of |E_s chi(s)| (= lambda2 of the graph)."""
    carrier = shape if isinstance(shape, VectorCarrier) else VectorCarrier.of(shape)
    if not multiset_order_check(carrier, ms):
        raise ValueError("element shape mismatch")
    require_symmetric(carrier, ms)
    if carrier.order <= EXHAUSTIVE_CHAR_CAP:
        return bias_exhaustive(carrier, ms)
    return bias_sampled(carrier, ms)


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
    """Bounds on lambda2 from a moment iteration, and the matvecs it took."""
    lower: float
    upper: float
    matvecs: int


def power_lambda2(carrier: Carrier, ms: Multiset, tol: float = 1e-9,
                  itmax: int = 10_000) -> MomentInterval:
    """Two-sided bounds on lambda2 from one iteration x_k = M x_{k-1}.

    The start is x_0 = delta_0 - 1/n, orthogonal to the constant vector.
    With lambda_i the nontrivial eigenvalues, ||x_k||^2 = x_0^T M^{2k} x_0 =
    (M^{2k})_{00} - 1/n, and a Cayley graph is vertex-transitive, so every
    diagonal entry of M^{2k} is (M^{2k})_{00} and n ||x_k||^2 =
    tr M^{2k} - 1 = sum_i lambda_i^{2k} (the trace method; Hoory, Linial and
    Wigderson, Bull. AMS 2006). Hence lambda2 <= (n ||x_k||^2)^{1/(2k)};
    and ||x_k||^2 / ||x_{k-1}||^2 is an average of the lambda_i^2, so its
    root is a lower bound, nondecreasing in k. The iteration stops once the
    lower bound gains less than tol in a step, or after itmax matvecs.
    """
    n = carrier.order
    if n > ITER_CAP:
        raise MethodCapacityError(f"group order {n} exceeds iterative cap "
                                  f"{ITER_CAP}")
    if n == 1:
        return MomentInterval(0.0, 0.0, 0)
    require_symmetric(carrier, ms)
    tables, weights = carrier.action_tables(ms)
    # M fixes the constant vector, so M x_0 = M delta_0 - 1/n; M delta_0
    # holds one weight per entry, so the uniform multiset gives exactly 0.
    # y is M applied to x_{k-1} / ||x_{k-1}||
    y = np.zeros(n)
    y[0] = 1.0
    y = _kernels.cayley_matvec(tables, weights, y)
    y -= 1.0 / n
    y /= math.sqrt(1.0 - 1.0 / n)
    log_moment = math.log(n - 1.0)      # log(n ||x_0||^2)
    lower = 0.0
    k = 1
    while True:
        ratio = float(y @ y)            # ||x_k||^2 / ||x_{k-1}||^2
        if ratio == 0.0:
            return MomentInterval(0.0, 0.0, k)
        log_moment += math.log(ratio)
        gain = math.sqrt(ratio) - lower
        lower = math.sqrt(ratio)
        if gain < tol or k >= itmax:
            break
        y /= lower
        y = _kernels.cayley_matvec(tables, weights, y)
        y -= y.mean()
        k += 1
    # rounding: a step (matvec, mean subtraction, rescaling) errs by at most
    # g = (support + log2 n + 2) eps relative to its input. M shrinks the
    # error of step i by lambda2^(k-i) and ||x_{i-1}|| <= lambda2^(i-1),
    # while ||x_k|| >= lambda2^k / sqrt(n) (delta_0 has squared norm
    # dim/n >= 1/n in the top eigenspace). So n ||x_k||^2 is off by a
    # factor of at most 1 + 2k g sqrt(n) / lambda2, and its 2k-th root by
    # 1 + g sqrt(n) / lambda2 <= 1 + g sqrt(n) / lower.
    g = (len(weights) + n.bit_length() + 2) * float(np.finfo(np.float64).eps)
    margin = g * math.sqrt(n)
    upper = math.exp(log_moment / (2 * k)) * (1.0 + margin / lower)
    return MomentInterval(lower, upper, k)


# ---------------------------------------------------------------------------
# unified entry point

def second_eigenvalue(carrier: Carrier, ms: Multiset,
                      method: str = "auto") -> SpectrumReport:
    """Certified lambda2 of Cay(G, S) for a symmetric multiset S."""
    require_symmetric(carrier, ms)
    n = carrier.order
    if method == "auto":
        if isinstance(carrier, VectorCarrier):
            method = ("character-sum" if n <= EXHAUSTIVE_CHAR_CAP
                      else "character-sum-sampled")
        elif n <= DENSE_CAP:
            method = "dense"
        elif n <= ITER_CAP:
            method = "power-iteration"
        else:
            raise MethodCapacityError(f"group order {n} exceeds all caps")
    # after the capacity check: a permutation group answers membership from
    # its element table, which the measurement then reuses
    if not multiset_order_check(carrier, ms):
        raise ValueError("multiset contains elements outside the group")
    upper = matvecs = None
    if method == "dense":
        lam = dense_lambda2(carrier, ms)
        tolerance = 1e-9
    elif method == "power-iteration":
        lam, upper, matvecs = power_lambda2(carrier, ms)
        tolerance = 0.0     # the upper end carries its rounding margin
    elif method == "character-sum":
        if not isinstance(carrier, VectorCarrier):
            raise ValueError("character-sum method needs an abelian carrier")
        lam = bias_exhaustive(carrier, ms)
        tolerance = 1e-9
    elif method == "character-sum-sampled":
        if not isinstance(carrier, VectorCarrier):
            raise ValueError("character-sum method needs an abelian carrier")
        lam = bias_sampled(carrier, ms)
        tolerance = 1e-9
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectrumReport(group_order=n, degree_total=ms.total,
                          lambda2=lam, method=method, tolerance=tolerance,
                          lambda2_upper=upper, matvecs=matvecs)


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
