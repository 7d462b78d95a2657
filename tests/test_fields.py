import itertools

import pytest

from helpers import field_pow, inner_product

from cayexp.fields import FieldElement, construct_field, is_prime


class TestConstruction:
    def test_prime_field_modulus_convention(self):
        f = construct_field(2, 1)
        assert f.modulus == (0, 1)          # x

    def test_gf4_unique_irreducible_quadratic(self):
        # exhaustively: x^2 + x + 1 is the only irreducible monic quadratic
        # over Z_2
        assert construct_field(2, 2).modulus == (1, 1, 1)

    def test_gf9_lexicographic_first(self):
        # over Z_3 candidates in coefficient order: x^2 reducible,
        # x^2 + 1 irreducible
        assert construct_field(3, 2).modulus == (1, 0, 1)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            construct_field(4, 1)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            construct_field(2, 40)

    def test_modulus_has_no_small_factors(self):
        # independent irreducibility check by root/factor search
        for p, m in [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)]:
            f = construct_field(p, m)
            for r in range(p):
                val = sum(c * r**i for i, c in enumerate(f.modulus)) % p
                assert val != 0, (p, m, r)


class TestArithmetic:
    def test_pow_zero_is_one(self):
        f = construct_field(3, 2)
        a = f.element((2, 1))
        assert field_pow(a, 0) == f.one()

    def test_gf4_x_squared(self):
        f = construct_field(2, 2)
        x = f.element((0, 1))
        assert (x * x).coeffs == (1, 1)     # x^2 = x + 1

    def test_gf4_x_cubed_is_one(self):
        f = construct_field(2, 2)
        x = f.element((0, 1))
        assert field_pow(x, 3) == f.one()

    def test_multiplicative_order_divides_q_minus_one(self):
        for p, m in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                     (7, 1), (2, 4), (3, 4), (2, 6)]:
            f = construct_field(p, m)
            q = f.size
            if q > 81:
                continue
            for idx in range(1, q):
                assert field_pow(f.from_index(idx), q - 1) == f.one()

    def test_field_axioms_small(self):
        # associativity and distributivity on all triples for p^m <= 27
        for p, m in [(2, 2), (3, 1), (2, 3), (5, 1), (3, 3)]:
            f = construct_field(p, m)
            if f.size > 27:
                continue
            els = [f.from_index(i) for i in range(f.size)]
            for a, b, c in itertools.product(els, repeat=3):
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_spec_mismatch_rejected(self):
        a = construct_field(2, 2).one()
        b = construct_field(3, 2).one()
        with pytest.raises(ValueError):
            a * b


class TestInnerProduct:
    def test_zero_element(self):
        f = construct_field(2, 2)
        assert inner_product(f.zero(), f.element((1, 1))) == 0

    def test_gf4_example(self):
        f = construct_field(2, 2)
        assert inner_product(f.element((1, 1)), f.element((0, 1))) == 1

    def test_gf9_example(self):
        f = construct_field(3, 2)
        assert inner_product(f.element((0, 1)), f.element((0, 1))) == 1

    def test_bilinearity_exhaustive_up_to_81(self):
        for p, m in [(2, 2), (3, 2), (2, 3), (2, 4), (5, 1), (7, 1)]:
            f = construct_field(p, m)
            if f.size > 81:
                continue
            els = [f.from_index(i) for i in range(f.size)]
            for a in els:
                for b in els[:9]:
                    for c in els[:9]:
                        lhs = inner_product(a + b, c)
                        rhs = (inner_product(a, c) + inner_product(b, c)) % p
                        assert lhs == rhs
                    for beta in range(p):
                        lhs = inner_product(a.scale(beta), b)
                        rhs = (beta * inner_product(a, b)) % p
                        assert lhs == rhs


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
