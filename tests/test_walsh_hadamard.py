"""Exact Z_2^L spectra against the complex routes they replace.

On Z_2^L every character is +-1, so with integer weights the complex FFT
and the Walsh-Hadamard transform compute exact integers below the stated
totals. These tests pin that the new routes give exactly the old values,
and that the old routes still run at and above the bounds and on other
moduli. The greedy scores on Z_m, read from one table of the roots' real
parts, equal the real parts of complex root products bit for bit.
"""

import hashlib

import numpy as np
import pytest

from helpers import elem_inv

from cayexp import _kernels as K
from cayexp.abexp import greedy_expander
from cayexp.carriers import VectorCarrier
from cayexp.combine import square_multiset
from cayexp.multiset import multiset
from cayexp.spectra import bias_exhaustive

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


def root_product_scores(c, chars, cands, mults, m):
    """greedy_scores as the real part of a product of complex roots, with a
    root table of its own."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    scores = np.empty(len(cands))
    for p, g in enumerate(cands):
        val = np.ones(len(chars), dtype=np.complex128)
        val *= roots[(chars * g) % m]
        v = c + mults[p] * val.real
        v2 = v * v
        v4 = v2 * v2
        scores[p] = float((v4 * v4).sum())
    return scores


def greedy_instance(m, cands=40):
    chars = np.arange(1, m, dtype=np.int64)
    c = rng.standard_normal(m - 1) * 3
    rows = rng.integers(0, m, size=cands)
    mults = rng.choice([1.0, 2.0], size=cands)
    return c, chars, rows, mults, m


def kernel_scores(c, chars, rows, mults, m):
    re_roots = np.exp(2j * np.pi * np.arange(m) / m).real
    return K.greedy_scores(c, chars, rows, mults, re_roots)


class TestGreedyScores:
    # t = 1 only: Z_2 is the one group Z_2^t the greedy provider is given
    @pytest.mark.parametrize("t", [1])
    def test_z2_sign_characters_equal_root_products(self, t):
        # on Z_2 the roots' real parts are exactly the signs +-1
        inst = greedy_instance(2 ** t)
        assert np.array_equal(np.exp(2j * np.pi * np.arange(2) / 2).real,
                              [1.0, -1.0])
        assert np.array_equal(kernel_scores(*inst),
                              root_product_scores(*inst))

    @pytest.mark.parametrize("moduli", [(3,), (4,), (6,), (9,), (12,), (30,)])
    def test_other_moduli_keep_root_products(self, moduli):
        inst = greedy_instance(*moduli)
        assert np.array_equal(kernel_scores(*inst),
                              root_product_scores(*inst))


@pytest.mark.parametrize("m,lam,total,cert,digest", [
    (20, 0.125, 21, 0.04761904761904767,
     "b0ff5314b77ddb5d36867cecb4fb363abb9c7cf8e1ed93380d982bb413343071"),
    (1024, 0.125, 185, 0.12290135257815965,
     "607b474bac43e199fca906d1889812fcbb7c9408b414bb022e88e6f62e7f09da"),
    (1031, 0.25, 77, 0.24693041465629315,
     "a34e5f1a8191a550b9a887fcff555db187c9b018bab276a0cff9007aacbaabb4"),
    (2310, 0.25, 87, 0.2478144200173954,
     "561bc2938e344d0d8ae8ffece7715835b18a6239c349fa029f33712478a71611"),
], ids=["z20", "z1024", "z1031", "z2310"])
def test_greedy_expander_output_pinned(m, lam, total, cert, digest):
    # digests of the multi-coordinate provider's output: up to
    # GREEDY_FULL_CAP every inverse pair is a candidate, and the identity's
    # place (last) decides ties on Z_20 and Z_1024; above it the candidates
    # are drawn from a seeded pool
    ms = greedy_expander(VectorCarrier((m,)), lam)
    assert (ms.total, ms.cert) == (total, cert)
    assert hashlib.sha256(repr(list(ms.pairs())).encode()).hexdigest() == \
        digest
