import pytest

from helpers import count_calls, count_measurements, elements, naive_bias

from cayexp import combine, epsbias
from cayexp.abexp import factorize
from cayexp.carriers import VectorCarrier
from cayexp.combine import measure_exact, reverify
from cayexp.epsbias import (BiasSpace, _crt_digits, format_bias_space,
                            verify_bias, zdn_bias_space)
from cayexp.multiset import multiset
from cayexp.spectra import MethodCapacityError


class TestZdn:
    def test_d2_n4_quarter(self):
        sp = zdn_bias_space(2, 4, 0.25)
        # exhaustive check over the 15 nontrivial characters
        assert verify_bias(sp) <= 0.25 + 1e-9
        assert abs(verify_bias(sp) - naive_bias((2,) * 4, sp.points)) < 1e-9

    def test_d6_n4_quarter(self):
        sp = zdn_bias_space(6, 4, 0.25)
        assert verify_bias(sp) <= 0.25 + 1e-9

    def test_prime_power_d4(self):
        sp = zdn_bias_space(4, 3, 0.25)
        assert verify_bias(sp) <= 0.25 + 1e-9
        assert all(0 <= c < 4 for v in sp.points.elems for c in v)

    def test_amplified_sixteenth(self):
        sp = zdn_bias_space(2, 6, 1 / 16)
        assert verify_bias(sp) <= 1 / 16 + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            zdn_bias_space(1, 4, 0.25)
        with pytest.raises(ValueError):
            zdn_bias_space(2, 0, 0.25)
        with pytest.raises(ValueError):
            zdn_bias_space(2, 4, 1.5)
        with pytest.raises(ValueError):
            zdn_bias_space(10**6 + 1, 2, 0.25)

    def test_deterministic(self):
        a = zdn_bias_space(6, 3, 0.25)
        b = zdn_bias_space(6, 3, 0.25)
        assert a.points.counts() == b.points.counts()
        assert format_bias_space(a) == format_bias_space(b)


def build_with_fold(monkeypatch, d, n, eps):
    """zdn_bias_space(d, n, eps) and the fold output it was built from."""
    folds = []

    def fold(*args):
        folds.append(combine.fold_levels(*args))
        return folds[-1]
    monkeypatch.setattr(epsbias, "fold_levels", fold)
    space = zdn_bias_space(d, n, eps)
    assert len(folds) == 1
    return space, folds[0]


def same_multiset(a, b):
    return (a.codes.tolist(), a.mults, a.cert) == \
        (b.codes.tolist(), b.mults, b.cert)


# every prime-power d of the benchmark's pool, and depths 1 to 4
PRIME_POWERS = [(2, 12), (2, 16), (3, 8), (4, 6), (5, 6), (7, 4),
                (2, 5), (4, 3), (8, 3), (9, 3), (16, 2)]


class TestPrimePower:
    """A prime power d has nothing to recombine: its fold runs on
    (d,)*n, so the CRT is the identity and the fold's output already
    carries its measurement there."""

    @pytest.mark.parametrize("eps", [0.25, 0.0625])
    @pytest.mark.parametrize("d,n", PRIME_POWERS)
    def test_fold_output_is_recombined_and_measured(self, monkeypatch, d,
                                                    n, eps):
        space, out = build_with_fold(monkeypatch, d, n, eps)
        carrier = VectorCarrier((d,) * n)
        assert same_multiset(_crt_digits(out, factorize(d), carrier), out)
        assert out.cert == measure_exact(carrier, out)     # bit for bit
        if out.cert <= eps:
            assert space.points is out

    def test_above_the_cap_keeps_the_analytic_bound(self, monkeypatch):
        # Z_2^22 lies above the exhaustive cap: no route, and the final
        # construction's bound is the space's
        space, out = build_with_fold(monkeypatch, 2, 22, 0.25)
        carrier = VectorCarrier((2,) * 22)
        assert measure_exact(carrier, out) is None
        crt = _crt_digits(out, factorize(2), carrier)
        assert same_multiset(crt, out) and same_multiset(
            reverify(carrier, crt), out)
        assert space.method == "analytic"
        assert space.points is out and space.certified_eps == out.cert

    def test_warm_build_measures_each_multiset_once(self, monkeypatch):
        # the last merge's output is kept, not measured again on Z_4^6: 10
        # measurements, all distinct
        zdn_bias_space(4, 6, 1 / 16)
        measured = count_measurements(monkeypatch)
        zdn_bias_space(4, 6, 1 / 16)
        assert len(measured) == len(set(measured)) == 10

    def test_only_a_composite_d_is_recombined(self, monkeypatch):
        recombined = count_calls(monkeypatch, epsbias._crt_digits,
                                 lambda ms, fac, carrier: carrier.moduli)
        zdn_bias_space(9, 3, 0.25)
        zdn_bias_space(6, 3, 0.25)
        assert recombined == [(6, 6, 6)]


class TestVerifyBias:
    def test_full_group_is_zero_biased(self):
        carrier = VectorCarrier((2, 2))
        pts = multiset([(v, 1) for v in elements(carrier)])
        sp = BiasSpace(2, 2, pts, 0.0, "manual")
        assert verify_bias(sp) < 1e-12

    def test_half_space_bias_one(self):
        pts = multiset([((0, 0), 1), ((1, 1), 1)])
        sp = BiasSpace(2, 2, pts, 1.0, "manual")
        assert abs(verify_bias(sp) - 1.0) < 1e-12

    def test_own_output_verifies(self):
        sp = zdn_bias_space(2, 4, 0.25)
        assert verify_bias(sp) <= 0.25

    def test_beyond_the_cap_is_refused(self):
        # no estimate stands in for the exact bias
        pts = multiset([((0,) * 24, 1), ((1,) * 24, 1)])
        sp = BiasSpace(2, 24, pts, 1.0, "manual")
        with pytest.raises(MethodCapacityError, match="exceeds"):
            verify_bias(sp)


class TestFileFormat:
    def test_roundtrip(self):
        sp = zdn_bias_space(6, 2, 0.25)
        text = format_bias_space(sp)
        back = multiset((tuple(int(c) for c in line.split(",")), 1)
                        for line in text.splitlines())
        assert back.counts() == sp.points.counts()

    def test_one_point_per_line_with_multiplicity(self):
        pts = multiset([((0, 1), 2), ((1, 0), 1)])
        sp = BiasSpace(2, 2, pts, 1.0, "manual")
        lines = format_bias_space(sp).strip().splitlines()
        assert sorted(lines) == ["0,1", "0,1", "1,0"]
