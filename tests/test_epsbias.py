import pytest

from helpers import elements, naive_bias

from cayexp.carriers import VectorCarrier
from cayexp.epsbias import (BiasSpace, format_bias_space, verify_bias,
                            zdn_bias_space)
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
