import itertools
import random

import pytest

from cayexp.perm import (DegreeMismatch, GenSet, ParseError, Perm,
                         format_perm, parse_group_file, parse_perm)


def P(text, n):
    return parse_perm(text, n)


class TestCompose:
    def test_involution_squares_to_identity(self):
        t = P("(1 2)", 3)
        assert (t * t).is_identity()

    def test_identity_is_neutral(self):
        c = P("(1 2 3)", 3)
        e = Perm.identity(3)
        assert c * e == c
        assert e * c == c

    def test_left_to_right_convention(self):
        # (1 2) then (2 3): 1 -> 2 -> 3
        p = P("(1 2)", 3) * P("(2 3)", 3)
        assert p.img[0] == 2

    def test_exhaustive_s3_against_table_oracle(self):
        els = [Perm(img) for img in itertools.permutations(range(3))]
        for p in els:
            for q in els:
                expected = tuple(q.img[p.img[i]] for i in range(3))
                assert (p * q).img == expected

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            P("(1 2)", 2) * P("(1 2)", 3)

    def test_inverse(self):
        rng = random.Random(0)
        for _ in range(50):
            p = Perm(rng.sample(range(7), 7))
            assert (p * p.inv()).is_identity()
            assert (p.inv() * p).is_identity()


class TestOrder:
    def test_identity(self):
        assert Perm.identity(5).order() == 1

    def test_lcm_of_cycle_lengths(self):
        # (1 2 3)(4 5): lcm(3, 2) = 6, confirmed by repeated composition
        p = P("(1 2 3)(4 5)", 5)
        assert p.order() == 6
        q = Perm.identity(5)
        for k in range(1, 7):
            q = q * p
            assert q.is_identity() == (k == 6)

    def test_five_cycle(self):
        p = P("(1 2 3 4 5)", 5)
        assert p.order() == 5
        assert (p ** 5).is_identity()
        assert not (p ** 4).is_identity()

    def test_conjugation_preserves_cycle_type(self):
        rng = random.Random(1)
        for _ in range(100):
            p = Perm(rng.sample(range(6), 6))
            g = Perm(rng.sample(range(6), 6))
            assert p.conjugate(g).order() == p.order()


class TestParsing:
    @pytest.mark.parametrize("text", ["(1 2 3)(4 5)", "(1 2)", "()",
                                      "(1 3)(2 4)", "(2 5 3)"])
    def test_cycle_roundtrip(self, text):
        p = parse_perm(text, 5)
        assert parse_perm(format_perm(p), 5) == p

    def test_image_list(self):
        assert parse_perm("[2,3,1,5,4]", 5) == parse_perm("(1 2 3)(4 5)", 5)

    def test_commas_allowed_in_cycles(self):
        assert parse_perm("(1, 2, 3)", 3) == parse_perm("(1 2 3)", 3)

    @pytest.mark.parametrize("bad", ["(1 2", "(1 2 7)", "[1,2,2]",
                                     "(1 1 2)", "nonsense", ""])
    def test_bad_input_raises(self, bad):
        with pytest.raises(ParseError):
            parse_perm(bad, 4)

    def test_group_file_roundtrip(self):
        g = GenSet(4, (parse_perm("(1 2 3 4)", 4), parse_perm("(1 2)", 4)))
        text = "degree 4\n" + "".join(format_perm(p) + "\n" for p in g.gens)
        assert text == "degree 4\n(1 2 3 4)\n(1 2)\n"
        assert parse_group_file(text) == g

    def test_group_file_header_required(self):
        with pytest.raises(ParseError):
            parse_group_file("(1 2)\n")

    def test_empty_generator_list_is_trivial_group(self):
        g = parse_group_file("degree 5\n")
        assert g.degree == 5
        assert g.gens == ()
