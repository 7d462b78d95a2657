"""The numpy kernels against plain loop references."""

import numpy as np

from cayexp import _kernels as K

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
