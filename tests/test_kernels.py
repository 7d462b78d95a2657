"""The numpy kernels against plain loop references."""

from collections import deque

import numpy as np

from cayexp import _kernels as K
from cayexp import catalog
from cayexp.carriers import PermCarrier, VectorCarrier
from cayexp.multiset import multiset

rng = np.random.default_rng(42)


def _instance(n=500, k=8):
    tables = rng.integers(0, n, size=(k, n), dtype=np.int64)
    weights = rng.random(k)
    weights /= weights.sum()
    return tables, weights


def test_dispatchers_run_on_selected_backend():
    tables, weights = _instance(n=64)
    x = rng.standard_normal(64)
    y = K.cayley_matvec(tables, weights, x)
    assert y.shape == (64,)
    m = K.dense_adjacency(tables, weights, 64)
    assert np.allclose(m.sum(axis=1), 1.0)
    d = K.bfs_distances(np.concatenate(
        [tables, np.argsort(tables, axis=1)], axis=0))
    assert d[0] == 0


def test_dense_adjacency_matches_per_row_fill_bitwise():
    # few columns, so many entries collect several contributions
    tables, weights = _instance(n=80, k=24)
    tables %= 7
    ref = np.zeros((80, 80))
    rows = np.arange(80)
    for j in range(tables.shape[0]):
        np.add.at(ref, (rows, tables[j]), weights[j])
    assert np.array_equal(K.dense_adjacency(tables, weights, 80), ref)


def _root_product_sums(points, weights, betas, moduli):
    """char_sums as a running product of one complex root per coordinate."""
    out = np.empty(len(betas), dtype=np.complex128)
    for b in range(len(betas)):
        val = np.ones(len(points), dtype=np.complex128)
        for t, m in enumerate(moduli):
            k = (betas[b, t] * points[:, t]) % m
            val *= np.exp(2j * np.pi * k / m)
        out[b] = np.dot(weights, val)
    return out


def _char_instance(moduli, points=300, chars=70):
    moduli = np.array(moduli)
    pts = rng.integers(0, moduli, size=(points, len(moduli)))
    betas = rng.integers(0, moduli, size=(chars, len(moduli)))
    return pts, rng.integers(1, 5, size=points).astype(float), betas, moduli


def test_char_sums_match_root_products(monkeypatch):
    # small tiles and root tables: several character blocks, point chunks
    # and lcm ranges (2*3*4*5 = 120 > 16), and a modulus above the cap
    monkeypatch.setattr(K, "CHAR_BLOCK", 16)
    monkeypatch.setattr(K, "CHAR_TABLE_BYTES", 16 * 16 * 50)
    monkeypatch.setattr(K, "ROOT_TABLE_CAP", 16)
    for moduli in [(2,) * 9, (2, 3, 4, 5, 6), (7, 7, 7), (12, 2, 3, 40)]:
        inst = _char_instance(moduli)
        got = K.char_sums(*inst)
        # no certificate rests on these sums: agreement to rounding is the
        # contract
        assert np.allclose(got, _root_product_sums(*inst), rtol=0,
                           atol=1e-12)
    pts, w, betas, moduli = _char_instance((3, 5))
    assert K.char_sums(pts, w, betas[:0], moduli).shape == (0,)
    # the int64 exponent route of moduli too large for exact floats
    want = K.char_sums(pts, w, betas, moduli)
    monkeypatch.setattr(K, "FLOAT_EXACT", 1)
    assert np.array_equal(K.char_sums(pts, w, betas, moduli), want)
    assert [r[2] for r in K._lcm_ranges((12, 2, 3, 40))] == [12, 40]
    assert [r[2] for r in K._lcm_ranges((2, 3, 4, 5, 6))] == [12, 5, 6]


def _bfs_reference(tables):
    """Distances from 0 by a plain queue over the table rows."""
    n = tables.shape[1]
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for row in tables:
            w = int(row[v])
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return np.array(dist, dtype=np.int64)


def _bfs_cases():
    a5 = catalog.a5()
    gens = a5.nontrivial_gens()
    yield PermCarrier.of(a5), multiset(
        [(x, 1) for x in gens] + [(x.inv(), 1) for x in gens])
    z = VectorCarrier((4, 6, 5))
    # <(1,0,0), (0,2,0)> misses half of Z4 x Z6 x Z5: unreached stay -1
    yield z, multiset([((1, 0, 0), 1), ((3, 0, 0), 1), ((0, 2, 0), 1),
                       ((0, 4, 0), 1)])
    yield z, multiset([((1, 0, 0), 1), ((3, 0, 0), 1), ((0, 1, 1), 1),
                       ((0, 5, 4), 1)])


def test_bfs_distances_match_queue_reference():
    for carrier, ms in _bfs_cases():
        tables, _ = carrier.action_tables(ms)
        got = K.bfs_distances(tables)
        assert got.dtype == np.int64
        assert np.array_equal(got, _bfs_reference(tables))
