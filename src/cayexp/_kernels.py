"""Hot numeric kernels, in numpy.

Per-element work is ordered deterministically, so every kernel returns the
same bits for the same inputs. ``BACKEND`` names the implementation for
run records.
"""

from __future__ import annotations

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
# roots:   concatenated exact root-of-unity tables, offsets[t] locating the
#          table for coordinate t
# returns complex sums: out[b] = sum_p w[p] * prod_t roots_t[(beta_bt * v_pt) mod m_t]

def char_sums(points, weights, betas, moduli, roots, offsets):
    points = np.ascontiguousarray(points, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    betas = np.ascontiguousarray(betas, dtype=np.int64)
    moduli = np.ascontiguousarray(moduli, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    out = np.empty(betas.shape[0], dtype=np.complex128)
    for b in range(betas.shape[0]):
        val = np.ones(points.shape[0], dtype=np.complex128)
        for t in range(points.shape[1]):
            idx = (betas[b, t] * points[:, t]) % moduli[t]
            val *= roots[offsets[t] + idx]
        out[b] = np.dot(weights, val)
    return out


# ---------------------------------------------------------------------------
# greedy selection scores
#
# Running real character sums C over all nontrivial characters (digits[j] =
# mixed-radix digits of character j). For each candidate row g with pair
# multiplier mult (2 for a {g,-g} pair, 1 for self-inverse g), the score is
# the conditional-expectation potential
#     sum_j (C[j] + mult * Re prod_t roots_t[(digits[j,t]*g[t]) mod m_t])^8;
# minimizing an even moment instead of the max norm avoids the massive ties
# the max produces on small groups.

def greedy_scores(c, digits, cands, mults, moduli, roots, offsets):
    c = np.ascontiguousarray(c, dtype=np.float64)
    digits = np.ascontiguousarray(digits, dtype=np.int64)
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    mults = np.ascontiguousarray(mults, dtype=np.float64)
    moduli = np.ascontiguousarray(moduli, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    scores = np.empty(cands.shape[0], dtype=np.float64)
    for p in range(cands.shape[0]):
        val = np.ones(digits.shape[0], dtype=np.complex128)
        for t in range(digits.shape[1]):
            idx = (digits[:, t] * cands[p, t]) % moduli[t]
            val *= roots[offsets[t] + idx]
        v = c + mults[p] * val.real
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
        nxt = np.unique(tables[:, frontier].ravel())
        nxt = nxt[dist[nxt] < 0]
        d += 1
        dist[nxt] = d
        frontier = nxt
    return dist
