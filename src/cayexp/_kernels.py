"""Hot numeric kernels, in numpy.

- ``cayley_matvec`` and ``dense_adjacency``: the normalized Cayley operator
  from action tables, applied to a vector or filled densely.
- ``char_sums``: direct character sums over a product of cyclic groups,
  from one integer exponent table per block of characters. Nothing in the
  package calls it: it stays, with its tests, because the benchmark's
  tracer names it.
- ``walsh_hadamard``: the exact character spectrum of a weight vector on
  Z_2^L, in place of a complex FFT.
- ``greedy_scores``: the greedy selection potential on a cyclic group
  Z_m, reading every character's real part from one table of the real
  parts of the m-th roots of unity.
- ``bfs_distances``: BFS distances over a Cayley graph.

Per-element work is ordered deterministically, so every kernel returns the
same bits for the same inputs. ``BACKEND`` names the implementation for
run records.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Cayley matvec: y[i] = sum_j w[j] * x[tables[j, i]]
# (equals (M_S x)[i] for symmetric multisets)

def cayley_matvec(tables, weights, x):
    tables = np.ascontiguousarray(tables)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.zeros_like(x)
    for j in range(tables.shape[0]):
        y += weights[j] * x[tables[j]]
    return y


# ---------------------------------------------------------------------------
# dense normalized adjacency fill: M[i, tables[j, i]] += w[j]
#
# One scatter over the j-major flattened tables: every entry receives its
# contributions in ascending j, the order of a per-row fill.

def dense_adjacency(tables, weights, n):
    tables = np.ascontiguousarray(tables)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    flat = (np.arange(n) * n + tables).ravel()
    vals = np.repeat(weights, n)
    return np.bincount(flat, weights=vals, minlength=n * n).reshape(n, n)


# ---------------------------------------------------------------------------
# direct character sums over a product of cyclic groups
#
# points:  (P, L) integer coordinates, weights: (P,)
# betas:   (B, L) character indices
# moduli:  (L,) coordinate moduli
# returns complex sums:
#   out[b] = sum_p w[p] * exp(2 pi i sum_t beta_bt v_pt / m_t)
#
# With Lc = lcm(moduli), character b at point p is the root of unity
# exp(2 pi i e / Lc) with exponent e = sum_t beta_bt v_pt (Lc / m_t) mod Lc.
# So a block of characters is one matmul of exact integers, one lookup in
# the table of the Lc-th roots and one weighted sum. The matmul is float64
# while every partial sum stays below FLOAT_EXACT = 2^53, which makes it
# exact in any summation order, and int64 beyond. Coordinates are split
# into consecutive ranges whose lcm stays within ROOT_TABLE_CAP (a single
# modulus above it gets its own range), and the ranges' roots multiply. The
# work goes in tiles of CHAR_BLOCK characters by as many points as keep a
# tile's complex lookups within CHAR_TABLE_BYTES, so each matmul reads a
# small point tile.

ROOT_TABLE_CAP = 1 << 20
FLOAT_EXACT = 1 << 53
CHAR_BLOCK = 256
CHAR_TABLE_BYTES = 1 << 25


def _lcm_ranges(moduli):
    """(lo, hi, lcm) of consecutive coordinate ranges with small lcms."""
    ranges, lo, lc = [], 0, 1
    for t, m in enumerate(moduli):
        nxt = math.lcm(lc, m)
        if nxt > ROOT_TABLE_CAP and t > lo:
            ranges.append((lo, t, lc))
            lo, nxt = t, m
        lc = nxt
    ranges.append((lo, len(moduli), lc))
    return ranges


def char_sums(points, weights, betas, moduli):
    points = np.ascontiguousarray(points, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    betas = np.ascontiguousarray(betas, dtype=np.int64)
    moduli = [int(m) for m in moduli]
    parts = []
    for lo, hi, lc in _lcm_ranges(moduli):
        scale = np.array([lc // m for m in moduli[lo:hi]], dtype=np.int64)
        dtype = np.float64 if lc * sum(moduli[lo:hi]) < FLOAT_EXACT \
            else np.int64
        roots = np.exp(2j * np.pi * np.arange(lc) / lc)
        parts.append((lo, hi, lc, (points[:, lo:hi] * scale).astype(dtype),
                      roots))
    out = np.zeros(betas.shape[0], dtype=np.complex128)
    step = CHAR_BLOCK
    chunk = max(1, CHAR_TABLE_BYTES // (16 * step))
    for b0 in range(0, betas.shape[0], step):
        block = betas[b0:b0 + step]
        for p0 in range(0, points.shape[0], chunk):
            val = None
            for lo, hi, lc, pts, roots in parts:
                expo = pts[p0:p0 + chunk] @ block[:, lo:hi].T.astype(pts.dtype)
                expo = expo.astype(np.intp)
                expo %= lc
                r = roots[expo]
                val = r if val is None else val * r
            out[b0:b0 + step] += weights[p0:p0 + chunk] @ val
    return out


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform: out[j] = sum_i (-1)^popcount(i & j) * flat[i]
#
# This is fftn(flat.reshape((2,) * L)).real.ravel(). Each step applies a
# +-1 Hadamard matrix of at most 2^4 rows to the lowest bits of the index as
# one matmul, and its output order moves those bits to the top, so the
# original order returns once all L bits are done. On integer weights whose
# absolute values sum to less than 2^53 every partial sum is an exact
# integer, so the result does not depend on the BLAS summation order.

WH_BLOCK_BITS = 4


def _hadamard(k: int) -> np.ndarray:
    i = np.arange(1 << k)
    return 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)


_HADAMARD = [_hadamard(k) for k in range(WH_BLOCK_BITS + 1)]


def walsh_hadamard(flat):
    x = np.asarray(flat, dtype=np.float64)
    n = x.size
    bits = n.bit_length() - 1
    if x.ndim != 1 or n != 1 << bits:
        raise ValueError("walsh_hadamard needs a 1-D array of length 2^L")
    if bits == 0:
        return x.copy()
    done = 0
    while done < bits:
        k = min(WH_BLOCK_BITS, bits - done)
        x = _HADAMARD[k] @ x.reshape(-1, 1 << k).T
        done += k
    return x.ravel()


# ---------------------------------------------------------------------------
# greedy selection scores on Z_m, m = len(re_roots)
#
# Running real sums C of the characters j in chars. Character j at g is
# exp(2 pi i jg / m), whose real part is re_roots[jg mod m]. For each
# candidate g with pair multiplier mult (2 for a {g,-g} pair, 1 for
# self-inverse g), the score is the conditional-expectation potential
#     sum_j (C[j] + mult * Re chi_j(g))^8.

def greedy_scores(c, chars, cands, mults, re_roots):
    c = np.ascontiguousarray(c, dtype=np.float64)
    mults = np.ascontiguousarray(mults, dtype=np.float64)
    m = len(re_roots)
    scores = np.empty(len(cands), dtype=np.float64)
    for p, g in enumerate(cands):
        v = c + mults[p] * re_roots[chars * g % m]
        v2 = v * v
        v4 = v2 * v2
        scores[p] = float((v4 * v4).sum())
    return scores


# ---------------------------------------------------------------------------
# BFS over a Cayley graph given by action tables; returns distances from 0

def bfs_distances(tables):
    tables = np.ascontiguousarray(tables)
    n = tables.shape[1]
    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.array([0], dtype=np.int64)
    d = 0
    while frontier.size:
        reached = np.zeros(n, dtype=bool)
        reached[tables[:, frontier].ravel()] = True
        nxt = np.flatnonzero(reached & (dist < 0))
        d += 1
        dist[nxt] = d
        frontier = nxt
    return dist
