"""Exact Z_2^L spectra against the complex routes they replace.

On Z_2^L every character is +-1, so with integer weights the complex FFT,
the Walsh-Hadamard transform and the root-product loop all compute exact
integers (or exact +-1 values) below the stated totals. These tests pin
that the new routes give exactly the old values, and that the old routes
still run at and above the bounds and on other moduli.
"""

import hashlib
import itertools

import numpy as np
import pytest

from helpers import elem_inv

from cayexp import _kernels as K
from cayexp.abexp import greedy_expander
from cayexp.carriers import VectorCarrier
from cayexp.combine import square_multiset
from cayexp.multiset import multiset
from cayexp.spectra import bias_exhaustive, root_tables

rng = np.random.default_rng(20)


def fft_spectrum(flat, L):
    return np.fft.fftn(flat.reshape((2,) * L)).real.ravel()


def random_z2_multiset(L, size, high):
    codes = rng.choice(1 << L, size=min(size, 1 << L), replace=False)
    mults = rng.integers(1, high, size=len(codes))
    return pairs_multiset(L, codes, mults)


def pairs_multiset(L, codes, mults):
    return multiset((tuple((int(c) >> (L - 1 - t)) & 1 for t in range(L)),
                     int(m)) for c, m in zip(codes, mults))


def fft_bias(carrier, ms):
    """bias_exhaustive's complex-FFT route."""
    w = np.array(ms.mults, dtype=np.float64)
    flat = np.bincount(carrier.codes(ms.elems), weights=w,
                       minlength=carrier.order)
    mags = np.abs(np.fft.fftn(flat.reshape(carrier.moduli))).ravel()
    mags[0] = 0.0
    return float(mags.max() / w.sum())


def fft_square_counts(carrier, ms):
    """square_multiset's complex-FFT route, as a count per code."""
    w = np.bincount(carrier.codes(ms.elems),
                    weights=np.array(ms.mults, dtype=np.float64),
                    minlength=carrier.order)
    spec = np.fft.fftn(w.reshape(carrier.moduli))
    return np.rint(np.fft.ifftn(spec * spec).real.ravel()).astype(np.int64)


def xor_square_counts(carrier, ms):
    """Exact convolution square on Z_2^L: code a + b is a ^ b."""
    codes = np.asarray(carrier.codes(ms.elems), dtype=np.int64)
    w = np.array(ms.mults, dtype=np.int64)
    counts = np.zeros(carrier.order, dtype=np.int64)
    np.add.at(counts, (codes[:, None] ^ codes).ravel(),
              np.outer(w, w).ravel())
    return counts


def square_counts(carrier, ms):
    sq = square_multiset(carrier, ms)
    counts = np.zeros(carrier.order, dtype=np.int64)
    counts[np.asarray(carrier.codes(sq.elems))] = sq.mults
    return counts


def forbid(monkeypatch, name):
    def fail(*args):
        raise AssertionError(f"{name} must not run here")
    monkeypatch.setattr(K, name, fail)


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(K, name)

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(K, name, counted)
    return calls


class TestKernel:
    @pytest.mark.parametrize("L", [0, 1, 2, 5, 12, 16, 20])
    def test_equals_fftn_real(self, L):
        x = rng.integers(0, 1 << 20, size=1 << L).astype(np.float64)
        assert np.array_equal(K.walsh_hadamard(x), fft_spectrum(x, L))

    @pytest.mark.parametrize("L", [1, 3, 4, 5, 8, 9])
    def test_equals_sylvester_sum_in_integers(self, L):
        x = rng.integers(-1000, 1000, size=1 << L)
        i = np.arange(1 << L)
        signs = 1 - 2 * (np.bitwise_count(i[:, None] & i) & 1).astype(np.int64)
        assert np.array_equal(K.walsh_hadamard(x.astype(np.float64)),
                              (signs @ x).astype(np.float64))

    def test_involution_up_to_order(self):
        x = rng.integers(0, 100, size=1 << 13).astype(np.float64)
        assert np.array_equal(K.walsh_hadamard(K.walsh_hadamard(x)),
                              x * (1 << 13))

    def test_input_unchanged_and_length_checked(self):
        x = np.arange(8, dtype=np.float64)
        K.walsh_hadamard(x)
        assert np.array_equal(x, np.arange(8))
        with pytest.raises(ValueError):
            K.walsh_hadamard(np.ones(6))


class TestBiasExhaustive:
    @pytest.mark.parametrize("L,size,high", [
        (1, 2, 5), (3, 5, 10), (8, 40, 1000), (12, 300, 1 << 30)])
    def test_random_multisets_equal_fft_route(self, monkeypatch, L, size,
                                              high):
        carrier = VectorCarrier((2,) * L)
        ms = random_z2_multiset(L, size, high)
        calls = count_calls(monkeypatch, "walsh_hadamard")
        assert bias_exhaustive(carrier, ms) == fft_bias(carrier, ms)
        assert calls

    def test_total_just_under_bound(self, monkeypatch):
        L = 6
        carrier = VectorCarrier((2,) * L)
        ms = pairs_multiset(L, [0, 5, 17, 42],
                            [2**52, 2**51, 2**50, 2**50 - 1])
        assert ms.total == 2**53 - 1
        calls = count_calls(monkeypatch, "walsh_hadamard")
        assert bias_exhaustive(carrier, ms) == fft_bias(carrier, ms)
        assert calls

    @pytest.mark.parametrize("extra", [0, 2**40])
    def test_fft_route_at_and_above_bound(self, monkeypatch, extra):
        L = 6
        carrier = VectorCarrier((2,) * L)
        ms = pairs_multiset(L, [0, 5, 17, 42],
                            [2**52, 2**51, 2**50, 2**50 + extra])
        assert ms.total >= 2**53
        expected = fft_bias(carrier, ms)
        forbid(monkeypatch, "walsh_hadamard")
        assert bias_exhaustive(carrier, ms) == expected

    def test_other_moduli_keep_fft_route(self, monkeypatch):
        forbid(monkeypatch, "walsh_hadamard")
        for moduli in [(2, 3), (4, 4), (2, 2, 4)]:
            carrier = VectorCarrier(moduli)
            elems = [tuple(int(v) for v in rng.integers(0, moduli))
                     for _ in range(6)]
            ms = multiset((e, 1) for e in elems + [elem_inv(carrier, e)
                                                   for e in elems])
            assert bias_exhaustive(carrier, ms) == fft_bias(carrier, ms)


class TestSquareMultiset:
    @pytest.mark.parametrize("L,size,high", [
        (1, 2, 5), (4, 10, 100), (10, 200, 1000)])
    def test_random_multisets_equal_fft_route(self, monkeypatch, L, size,
                                              high):
        carrier = VectorCarrier((2,) * L)
        ms = random_z2_multiset(L, size, high)
        calls = count_calls(monkeypatch, "walsh_hadamard")
        counts = square_counts(carrier, ms)
        assert calls
        assert np.array_equal(counts, fft_square_counts(carrier, ms))
        assert np.array_equal(counts, xor_square_counts(carrier, ms))

    def test_total_just_under_bound(self, monkeypatch):
        L = 3      # order 8: the bound is total < 2^25
        carrier = VectorCarrier((2,) * L)
        ms = pairs_multiset(L, [0, 3, 6], [2**24, 2**23, 2**23 - 1])
        assert carrier.order * ms.total ** 2 == 8 * (2**25 - 1) ** 2 < 2**53
        calls = count_calls(monkeypatch, "walsh_hadamard")
        counts = square_counts(carrier, ms)
        assert calls
        assert np.array_equal(counts, xor_square_counts(carrier, ms))
        assert np.array_equal(counts, fft_square_counts(carrier, ms))

    def test_fft_route_at_bound(self, monkeypatch):
        L = 3
        carrier = VectorCarrier((2,) * L)
        ms = pairs_multiset(L, [0, 3, 6], [2**24, 2**23, 2**23])
        assert carrier.order * ms.total ** 2 == 2**53
        expected = fft_square_counts(carrier, ms)
        forbid(monkeypatch, "walsh_hadamard")
        assert np.array_equal(square_counts(carrier, ms), expected)

    def test_other_moduli_keep_fft_route(self, monkeypatch):
        forbid(monkeypatch, "walsh_hadamard")
        carrier = VectorCarrier((2, 3, 4))
        ms = multiset([((0, 0, 0), 2), ((1, 1, 1), 1), ((1, 2, 3), 1),
                       ((0, 1, 2), 3), ((0, 2, 2), 3)])
        assert np.array_equal(square_counts(carrier, ms),
                              fft_square_counts(carrier, ms))


def root_product_scores(c, digits, cands, mults, moduli):
    """greedy_scores as a running product of complex roots per coordinate."""
    roots, offsets = root_tables(moduli)
    scores = np.empty(cands.shape[0])
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


def greedy_instance(moduli, cands=40):
    moduli = np.array(moduli, dtype=np.int64)
    digits = np.indices(moduli).reshape(len(moduli), -1).T[1:]
    c = rng.standard_normal(digits.shape[0]) * 3
    rows = rng.integers(0, moduli, size=(cands, len(moduli)))
    mults = rng.choice([1.0, 2.0], size=cands)
    return c, np.ascontiguousarray(digits), rows, mults, moduli


def kernel_scores(c, digits, rows, mults, moduli):
    roots, offsets = root_tables(tuple(moduli))
    return K.greedy_scores(c, digits, rows, mults, moduli, roots, offsets)


class TestGreedyScores:
    @pytest.mark.parametrize("t", [1, 2, 5, 9, 12])
    def test_z2_sign_characters_equal_root_products(self, monkeypatch, t):
        inst = greedy_instance((2,) * t)
        calls = count_calls(monkeypatch, "_sign_characters")
        assert np.array_equal(kernel_scores(*inst),
                              root_product_scores(*inst))
        assert len(calls) == inst[2].shape[0]

    def test_sign_characters_are_root_product_real_parts(self, monkeypatch):
        t = 10
        digits = np.array(list(itertools.product((0, 1), repeat=t)))[1:]
        roots, offsets = root_tables((2,) * t)
        cands = rng.integers(0, 2, size=(20, t))
        calls = count_calls(monkeypatch, "_sign_characters")
        cols = list(K.real_characters(digits, cands, np.full(t, 2), roots,
                                      offsets))
        assert len(calls) == len(cands)
        for g, col in zip(cands, cols):
            val = np.ones(len(digits), dtype=np.complex128)
            for s in range(t):
                val *= roots[offsets[s] + (digits[:, s] * g[s]) % 2]
            assert np.array_equal(col, val.real)

    @pytest.mark.parametrize("moduli", [(2, 3), (2, 2, 3), (3, 3), (4,)])
    def test_other_moduli_keep_root_products(self, monkeypatch, moduli):
        forbid(monkeypatch, "_sign_characters")
        inst = greedy_instance(moduli)
        assert np.array_equal(kernel_scores(*inst),
                              root_product_scores(*inst))


def test_greedy_expander_z2_output_pinned():
    # digest of the root-product greedy's output on Z_2^8
    ms = greedy_expander(VectorCarrier((2,) * 8), 0.25)
    assert (ms.total, ms.cert) == (32, 0.25)
    assert hashlib.sha256(repr(list(ms.pairs())).encode()).hexdigest() == \
        "4ceb261b5d4096bd412064e6d6c8779e35402efa4208c0d1d391da5b84584dae"
