import bisect
import random

import numpy as np
import pytest

from helpers import (CATALOG_GROUPS, analytic_rounds, aux_from_rotation,
                     count_calls, count_measurements, count_schreier_sims,
                     elem_inv, elem_mul, elements, group_power,
                     random_symmetric_multiset, ref_fold_levels)

from cayexp import abexp, carriers, catalog, combine, obs, spectra
from cayexp.bsgs import schreier_sims
from cayexp.carriers import MethodCapacityError, PermCarrier, VectorCarrier
from cayexp.combine import (AmplificationError, AuxExpander,
                            CertificationError, SolvabilityError,
                            aux_family, aux_from_z2_multiset, balance,
                            combine_union, compact, derandomized_square,
                            fold_levels, fold_series, measure_exact,
                            pad_to_total, reduce_to_quarter, reverify,
                            solvable_expander, square_multiset, symmetrize)
from cayexp.multiset import NonSymmetricError, multiset
from cayexp.perm import GenSet, Perm, parse_perm
from cayexp.series import derived_series, quotient_context
from cayexp.epsbias import zdn_bias_space
from cayexp.spectra import bias_exhaustive, dense_lambda2, second_eigenvalue


def z_n(n):
    cyc = "(" + " ".join(str(i + 1) for i in range(n)) + ")"
    g = parse_perm(cyc, n)
    return g, PermCarrier.of(GenSet(n, (g,)))


class TestBalance:
    def test_equal_sizes_unchanged(self):
        g, carrier = z_n(5)
        a = multiset([(g, 2), (g.inv(), 2)], cert=0.5)
        b = multiset([(g ** 2, 2), (g ** 3, 2)], cert=0.5)
        a2, b2 = balance(carrier, a, b)
        assert a2.counts() == a.counts() and b2.counts() == b.counts()

    def test_three_and_five_to_five(self):
        g, carrier = z_n(7)
        a = multiset([(g, 1), (g.inv(), 1), (Perm.identity(7), 1)])
        b = multiset([(g ** 2, 2), (g ** 5, 2), (Perm.identity(7), 1)])
        lam_a = dense_lambda2(carrier, a)
        lam_b = dense_lambda2(carrier, b)
        a2, b2 = balance(carrier, a.with_cert(lam_a), b.with_cert(lam_b))
        assert a2.total == b2.total == 5
        # the larger side is untouched; the smaller side's remainder goes
        # to the identity
        assert b2.counts() == b.counts()
        assert a2.counts() == {g: 1, g.inv(): 1, Perm.identity(7): 3}
        # both stay symmetric and the certified bound is honored
        for ms in (a2, b2):
            assert carrier.is_symmetric(ms)
            assert dense_lambda2(carrier, ms) <= ms.cert + 1e-9

    def test_pairs_only_side_pads_with_the_identity(self):
        # a side with no self-inverse element and an odd remainder: the
        # remainder cannot be spread over inverse pairs
        g, carrier = z_n(7)
        a = multiset([(g, 2), (g.inv(), 2)])
        b = multiset([(g ** 2, 2), (g ** 5, 2), (Perm.identity(7), 1)])
        a = a.with_cert(dense_lambda2(carrier, a))
        b = b.with_cert(dense_lambda2(carrier, b))
        a2, b2 = balance(carrier, a, b)
        assert a2.total == b2.total == 5
        assert a2.counts() == {g: 2, g.inv(): 2, Perm.identity(7): 1}
        assert b2 is b
        for ms in (a2, b2):
            assert carrier.is_symmetric(ms)
            assert dense_lambda2(carrier, ms) <= ms.cert + 1e-9

    def test_non_symmetric_side_refused_without_padding(self):
        g, carrier = z_n(7)
        odd = multiset([(g, 1), (g ** 2, 1)], cert=0.5)
        even = multiset([(g, 1), (g.inv(), 1)], cert=0.5)
        with pytest.raises(NonSymmetricError):
            pad_to_total(carrier, odd, odd.total)
        for a, b in ((odd, even), (even, odd)):
            with pytest.raises(NonSymmetricError):
                balance(carrier, a, b)

    def test_single_involution_doubles_exactly(self):
        t = parse_perm("(1 2)", 2)
        carrier = PermCarrier.of(GenSet(2, (t,)))
        a = multiset([(t, 1)], cert=1.0)
        b = multiset([(t, 1), (Perm.identity(2), 1)], cert=0.5)
        a2, b2 = balance(carrier, a, b)
        assert a2.total == b2.total == 2
        # pure replication: lambda2 exactly preserved
        assert abs(dense_lambda2(carrier, a2)
                   - dense_lambda2(carrier, a)) < 1e-12

    def test_replication_preserves_lambda_exactly(self):
        g, carrier = z_n(6)
        a = multiset([(g, 1), (g.inv(), 1)], cert=1.0)
        padded = pad_to_total(carrier, a, 8)
        assert padded.total == 8
        assert abs(dense_lambda2(carrier, padded)
                   - dense_lambda2(carrier, a)) < 1e-12


class TestCombine:
    def test_paper_bound_balanced(self):
        # lam = 1/4 with |A| = |B| gives (1 + 1/4)/2 = 5/8
        g = catalog.s4()
        chain = derived_series(g)
        qcar = quotient_context(chain.terms[0], chain.terms[1])
        a4 = chain.groups[1]
        acar = PermCarrier.of(a4)
        a = random_symmetric_multiset(elements(acar), 1, k=6)
        a = a.with_cert(dense_lambda2(acar, a))
        odd = parse_perm("(1 2)", 4)
        b = multiset([(odd, a.total // 2), (odd.inv(), a.total // 2)])
        b = b.with_cert(dense_lambda2(qcar, qcar.image_multiset(b)))
        lam = max(a.cert, b.cert)
        gcar = PermCarrier.of(g)
        out = combine_union(gcar, a, b)
        bound = (1 + lam) * max(a.total, b.total) / (a.total + b.total)
        assert out.cert <= bound + 1e-9
        assert dense_lambda2(gcar, out) <= bound + 1e-9

    def test_bound_formula_unbalanced(self):
        # lam = 1/4, |A| = 4, |B| = 2 -> (1.25 * 4) / 6 = 5/6
        bound = (1 + 0.25) * max(4, 2) / (4 + 2)
        assert abs(bound - 5 / 6) < 1e-15

    def test_bound_formula_balanced_is_five_eighths(self):
        assert abs((1 + 0.25) * 4 / 8 - 5 / 8) < 1e-15

    def test_missing_certification_rejected(self):
        carrier = PermCarrier.of(catalog.s4())
        a = multiset([(parse_perm("(1 2 3)", 4), 1),
                      (parse_perm("(1 3 2)", 4), 1)])
        with pytest.raises(CertificationError):
            combine_union(carrier, a, a)
        with pytest.raises(CertificationError):
            combine_union(carrier, a.with_cert(0.5), a)


class TestReverify:
    # reverify's rule on each route, fed falsely low carried certificates
    def test_dense_route_refuses_a_measurement_above_the_bound(self):
        carrier = PermCarrier.of(catalog.s4())
        ms = random_symmetric_multiset(elements(carrier), 3)
        assert spectra.exact_method(carrier) == "dense"
        with pytest.raises(CertificationError, match="above its source bound"):
            reverify(carrier, ms.with_cert(0.0))

    def test_character_sum_route_refuses_a_measurement_above_the_bound(self):
        carrier = VectorCarrier((2, 2, 2))
        ms = multiset([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
        assert spectra.exact_method(carrier) == "character-sum"
        with pytest.raises(CertificationError, match="above its source bound"):
            reverify(carrier, ms.with_cert(0.0))

    def test_krylov_upper_end_replaces_the_bound(self, monkeypatch):
        # the upper end sits above lambda2, so it is never compared with
        # the carried bound
        carrier = PermCarrier.of(catalog.s4())
        ms = random_symmetric_multiset(elements(carrier), 3)
        monkeypatch.setattr(spectra, "DENSE_CAP", 0)
        assert spectra.exact_method(carrier) == "power-iteration"
        out = reverify(carrier, ms.with_cert(0.0))
        assert out.cert == second_eigenvalue(carrier, ms).lambda2_upper
        assert out.counts() == ms.counts()


@pytest.mark.parametrize("lam", [0, -1, 1, 1.5])
def test_solvable_expander_refuses_lambda_outside_unit_interval(lam):
    with pytest.raises(ValueError, match=r"lambda must be in \(0, 1\)"):
        solvable_expander(derived_series(catalog.a4()), target=lam)


class TestDerandomizedSquare:
    def test_output_degree_and_bound(self):
        g, carrier = z_n(7)
        u = multiset([(g, 1), (g.inv(), 1), (g ** 2, 1), (g ** 5, 1)])
        lam = dense_lambda2(carrier, u)
        u = u.with_cert(lam)
        aux = aux_family(4)
        out = derandomized_square(carrier, u, aux)
        assert out.total == 2 * aux.degree * 4
        assert carrier.is_symmetric(out)
        measured = dense_lambda2(carrier, out)
        assert measured <= lam * lam + aux.certified_mu + 1e-9

    def test_full_group_aux_is_plain_square(self):
        g, carrier = z_n(5)
        u = multiset([(g, 1), (g.inv(), 1)], cert=1.0)
        aux = aux_family(2)
        out = derandomized_square(carrier, u, aux)
        conv = square_multiset(carrier, u)
        # same multiset up to the doubled count from the inverse half
        assert out.counts() == {e: 2 * m for e, m in conv.pairs()}

    def test_explicit_four_cycle_aux(self):
        # C4 rotation map: labels +1/-1 are mutually inverse; mu measured
        # by a dense eigensolve (value 1: C4 is bipartite)
        nbrs = np.array([[1, 3], [2, 0], [3, 1], [0, 2]])
        c4 = aux_from_rotation(nbrs, label_inv=(1, 0))
        assert abs(c4.certified_mu - 1.0) < 1e-12
        g, carrier = z_n(7)
        u = multiset([(g, 1), (g.inv(), 1), (g ** 3, 1), (g ** 4, 1)])
        lam = dense_lambda2(carrier, u)
        out = derandomized_square(carrier, u, c4)
        assert out.total == 2 * 2 * 4
        assert dense_lambda2(carrier, out) <= lam * lam \
            + c4.certified_mu + 1e-9

    def test_loopy_four_cycle_aux(self):
        # adding a self-loop label makes mu = 1/3 and the bound informative
        nbrs = np.array([[1, 3, 0], [2, 0, 1], [3, 1, 2], [0, 2, 3]])
        aux = aux_from_rotation(nbrs, label_inv=(1, 0, 2))
        assert abs(aux.certified_mu - 1 / 3) < 1e-12
        g, carrier = z_n(9)
        u = multiset([(g, 1), (g.inv(), 1), (g ** 2, 1), (g ** 7, 1)])
        lam = dense_lambda2(carrier, u)
        out = derandomized_square(carrier, u, aux)
        assert dense_lambda2(carrier, out) <= lam * lam + 1 / 3 + 1e-9

    def test_vertex_count_mismatch(self):
        g, carrier = z_n(5)
        u = multiset([(g, 1), (g.inv(), 1)], cert=0.9)
        with pytest.raises(ValueError):
            derandomized_square(carrier, u, aux_family(4))

    def test_inconsistent_labeling_rejected(self):
        nbrs = np.array([[1, 1], [0, 0], [3, 3], [2, 1]])  # label 1 not a perm
        with pytest.raises(ValueError):
            aux_from_rotation(nbrs, label_inv=(0, 1))

    def test_square_convolution_matches_pairwise(self):
        carrier = VectorCarrier((2, 2, 3))
        ms = multiset([((0, 0, 1), 2), ((0, 0, 2), 2), ((1, 1, 0), 1)])
        conv = square_multiset(carrier, ms)
        acc = {}
        for x, wx in ms.pairs():
            for y, wy in ms.pairs():
                z = elem_mul(carrier, x, y)
                acc[z] = acc.get(z, 0) + wx * wy
        assert conv.counts() == acc


class TestAuxFamily:
    def test_two_vertices_mu_zero(self):
        aux = aux_family(2)
        assert aux.vertex_count == 2
        assert aux.certified_mu <= 1e-12

    def test_sixteen_vertices(self):
        aux = aux_family(16)
        assert aux.vertex_count == aux.degree == 16
        assert aux.certified_mu == 0.0

    def test_1024_vertices_tight_target(self):
        # the full group at the cap: mu = 0 meets any target
        aux = aux_family(1024)
        assert aux.vertex_count == 1024
        assert aux.certified_mu == 0.0

    def test_z2_masks_match_bit_loop(self):
        # label l of the expanded multiset moves x to x ^ mask, coordinate 0
        # the most significant bit
        t = 5
        ms = multiset([((1, 0, 0, 1, 1), 3), ((0, 1, 1, 0, 0), 1),
                       ((1, 1, 1, 1, 1), 2), ((0, 0, 0, 0, 1), 1)])
        aux = aux_from_z2_multiset(ms, t)
        masks = [int("".join(map(str, v)), 2)
                 for v, m in ms.pairs() for _ in range(m)]
        expect = np.arange(1 << t)[:, None] ^ np.array(masks)[None, :]
        assert aux.degree == 7 and aux.vertex_count == 32
        assert aux.neighbors.dtype == np.int64
        assert np.array_equal(aux.neighbors, expect)

    @pytest.mark.parametrize("t", range(1, 11))
    def test_full_group_from_codes_matches_tuples(self, t):
        # the full Z_2^t multiset built from codes gives the auxiliary the
        # tuple list of every element gave
        aux = aux_family(1 << t)
        full = multiset([(v, 1) for v in elements(VectorCarrier((2,) * t))])
        ref = aux_from_z2_multiset(full, t)
        assert np.array_equal(aux.neighbors, ref.neighbors)
        assert aux.certified_mu == ref.certified_mu

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            aux_family(12)

    def test_above_the_full_group_cap_rejected(self):
        with pytest.raises(ValueError, match="capped at 1024"):
            aux_family(2048)


# carriers whose squares are measured: every catalog group, two dense
# quotients (the group and the derived-series term of N) and two vector
# groups
SQUARE_QUOTIENTS = {"S4/V4": (catalog.s4, 2),
                    "Syl2(S8)/Syl2(S8)'": (catalog.sylow2_s8, 1)}
SQUARE_VECTORS = {"Z3xZ5": (3, 5), "Z2^3xZ4": (2, 2, 2, 4)}
SQUARE_PERMS = CATALOG_GROUPS + sorted(SQUARE_QUOTIENTS)


def square_case(name):
    """A carrier and a lazy symmetric multiset on it: random elements (up
    to eight, at most half the group), their inverses and the identity
    twice."""
    if name in SQUARE_QUOTIENTS:
        group, term = SQUARE_QUOTIENTS[name]
        chain = derived_series(group())
        carrier = quotient_context(chain.terms[0], chain.terms[term])
    elif name in SQUARE_VECTORS:
        carrier = VectorCarrier(SQUARE_VECTORS[name])
    else:
        carrier = PermCarrier.of(getattr(catalog, name)())
    els = elements(carrier)
    picks = random.Random(0).sample(els[1:], min(8, len(els) // 2))
    return carrier, multiset([(e, 1) for e in picks]
                             + [(elem_inv(carrier, e), 1) for e in picks]
                             + [(els[0], 2)])


class TestSquareCertificate:
    """A square carries its input's bound squared, unmeasured; these check
    that bound against a measurement of the square."""

    @pytest.mark.parametrize("name", SQUARE_PERMS + sorted(SQUARE_VECTORS))
    def test_carried_bound_is_the_square_measured(self, name):
        carrier, ms = square_case(name)
        measure = bias_exhaustive if isinstance(carrier, VectorCarrier) \
            else dense_lambda2
        sq = square_multiset(carrier, ms.with_cert(measure(carrier, ms)))
        assert abs(sq.cert - measure(carrier, sq)) <= 1e-12

    @pytest.mark.parametrize("name", SQUARE_PERMS)
    def test_krylov_upper_end_squared(self, monkeypatch, name):
        # U^2 proves the square's bound, at or above its lower end; what
        # reduce_to_quarter returns carries its own measurement
        carrier, ms = square_case(name)
        monkeypatch.setattr(spectra, "DENSE_CAP", 0)
        assert spectra.exact_method(carrier) == "power-iteration"
        u = ms.with_cert(measure_exact(carrier, ms))
        sq = square_multiset(carrier, u)
        lower, _, _ = spectra.power_lambda2(carrier, sq)
        assert sq.cert == u.cert * u.cert >= lower
        out = reduce_to_quarter(carrier, u, target=1 / 16)
        assert out.cert == measure_exact(carrier, out) <= 1 / 16


class TestReduce:
    def test_already_good_returned_unchanged(self):
        g, carrier = z_n(8)
        u = multiset([(g, 1), (g.inv(), 1)], cert=0.2)
        assert reduce_to_quarter(carrier, u) is u

    def test_analytic_rounds_examples(self):
        # iterate x -> x^2 + mu from 3/4: 0.5725 -> 0.3377.. -> 0.124 <= 1/4
        assert analytic_rounds(0.75, 0.01) == 3
        xs = [0.75]
        for _ in range(3):
            xs.append(xs[-1] ** 2 + 0.01)
        assert xs[1] == pytest.approx(0.5725)
        assert xs[3] <= 0.25
        assert analytic_rounds(0.9, 0.01) == 4

    def test_adaptive_rounds_never_exceed_analytic(self):
        g, carrier = z_n(12)
        # lazy step set (the bare 12-cycle is bipartite, lambda = 1)
        u = multiset([(g, 1), (g.inv(), 1), (Perm.identity(12), 1)])
        lam = dense_lambda2(carrier, u)
        u = u.with_cert(lam)
        with obs.recording() as log:
            out = reduce_to_quarter(carrier, u)
        assert out.cert <= 0.25
        measured_rounds = sum(1 for t in log if "round" in t)
        assert measured_rounds <= analytic_rounds(lam, 0.0)

    def test_analytic_branch_above_the_measurement_cap(self, monkeypatch):
        # with the cap below the order, Z3 x Z5 cannot be measured, so the
        # round its bound of 0.468 needs is refused: nothing is squared,
        # derandomized or measured
        carrier = VectorCarrier((3, 5))
        ms = multiset([((0, 0), 2), ((0, 1), 1), ((0, 4), 1), ((1, 2), 1),
                       ((2, 3), 1), ((1, 4), 1), ((2, 1), 1)])
        lam = bias_exhaustive(carrier, ms)
        assert 0.25 < lam <= 0.5
        monkeypatch.setattr(spectra, "EXHAUSTIVE_CHAR_CAP", carrier.order - 1)
        squared = count_calls(monkeypatch, combine.square_multiset)
        derandomized = count_calls(monkeypatch, combine.derandomized_square)
        measured = count_calls(monkeypatch, spectra.measure)
        with obs.recording() as log:
            with pytest.raises(MethodCapacityError,
                               match="group order 15 exceeds the "
                                     "verification cap 14"):
                reduce_to_quarter(carrier, ms.with_cert(lam))
        assert log == []
        assert squared == derandomized == measured == []
        # a bound that already meets the target needs no round, and is kept
        assert reduce_to_quarter(carrier, ms.with_cert(lam),
                                 target=0.5) == ms.with_cert(lam)

    def test_bipartite_cannot_amplify(self):
        t = parse_perm("(1 2)", 2)
        carrier = PermCarrier.of(GenSet(2, (t,)))
        u = multiset([(t, 1)], cert=1.0)
        with pytest.raises(AmplificationError):
            reduce_to_quarter(carrier, u)


class TestFoldSeries:
    def test_single_quotient_returned_unchanged(self):
        chain = derived_series(catalog.z6())
        zcar = PermCarrier.of(catalog.z6())
        s = random_symmetric_multiset(elements(zcar), 0, k=2)
        s = s.with_cert(dense_lambda2(zcar, s))
        if s.cert > 0.25:
            s = reduce_to_quarter(zcar, s)
        out = fold_series(chain, [s])
        assert out.counts() == s.counts()

    def test_length_two_series(self):
        g = catalog.z12()
        chain = derived_series(GenSet(7, g.gens))
        # manual normal series Z12 > Z3 > 1 via the cube of the generator
        x = g.gens[0]
        z4sub = GenSet(7, (x ** 3,))
        from cayexp.series import SubgroupChain
        terms = tuple(schreier_sims(h) for h in (g, z4sub, GenSet(7, ())))
        chain = SubgroupChain(terms, True)
        qcar01 = quotient_context(terms[0], terms[1])
        subcar = PermCarrier.of(z4sub)
        top = random_symmetric_multiset(elements(PermCarrier.of(g)), 2, k=4)
        top = qcar01.image_multiset(top)
        top = top.with_cert(dense_lambda2(qcar01, top))
        if top.cert > 0.25:
            top = reduce_to_quarter(qcar01, top)
        bot = random_symmetric_multiset(elements(subcar), 3, k=2)
        bot = bot.with_cert(dense_lambda2(subcar, bot))
        if bot.cert > 0.25:
            bot = reduce_to_quarter(subcar, bot)
        out = fold_series(chain, [top, bot])
        assert out.cert <= 0.25 + 1e-9
        assert dense_lambda2(PermCarrier.of(g), out) <= 0.25 + 1e-9

    def test_one_term_chain_gives_the_identity(self):
        chain = derived_series(GenSet(4, ()))
        assert chain.length == 0
        out = fold_series(chain, [])
        assert out.elems == (Perm.identity(4),) and out.cert == 0.0

    def test_uncertified_inputs_rejected(self):
        chain = derived_series(catalog.z6())
        s = multiset([(Perm.identity(6), 1)])
        with pytest.raises(CertificationError):
            fold_series(chain, [s])

    def test_non_normal_chain_rejected(self):
        from cayexp.series import SubgroupChain
        g = catalog.s4()
        bad = GenSet(4, (parse_perm("(1 2)", 4),))   # not normal in S4
        terms = tuple(schreier_sims(h) for h in (g, bad, GenSet(4, ())))
        chain = SubgroupChain(terms, True)
        s = multiset([(Perm.identity(4), 1)], cert=0.0)
        with pytest.raises(ValueError, match="not normal"):
            fold_series(chain, [s, s])

    def test_chain_that_is_not_nested_rejected(self):
        # A = <(1 2)> and B = <(3 4)> are both normal in G = <(1 2), (3 4)>,
        # but B is not inside A, so (G, A, B, 1) is no series; the level
        # sets are lazy on a generator of each step
        from cayexp.series import NormalityError, SubgroupChain
        gens = {p: parse_perm(p, 4) for p in ("(1 2)", "(3 4)", "(1 2)(3 4)")}
        terms = tuple(schreier_sims(GenSet(4, tuple(gens[p] for p in ps)))
                      for ps in (("(1 2)", "(3 4)"), ("(1 2)",), ("(3 4)",),
                                 ()))
        chain = SubgroupChain(terms, True)
        sets = [multiset([(Perm.identity(4), 1), (gens[p], 1)], cert=0.0)
                for p in ("(1 2)(3 4)", "(1 2)", "(3 4)")]
        with pytest.raises(NormalityError, match="not in the parent group"):
            fold_series(chain, sets)


class TestFoldLevels:
    @staticmethod
    def _merge(calls, pad=None):
        """A merge that sums totals and records its calls; a side that is
        the pad is the trivial level, so the other side comes back."""
        def merge(lo, mid, hi, upper, lower):
            if lower is pad:
                return upper
            if upper is pad:
                return lower
            calls.append((lo, mid, hi, upper.total, lower.total))
            return multiset([(Perm.identity(1), upper.total + lower.total)],
                            cert=0.0)
        return merge

    @staticmethod
    def _leaves(n):
        # leaf i has total 2^i, so a total names the leaves folded into it
        return [multiset([(Perm.identity(1), 1 << i)], cert=0.0)
                for i in range(n)]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_padded_reference(self, n):
        pad = multiset([(Perm.identity(1), 1 << 20)], cert=0.0)
        ref_calls, calls = [], []
        with obs.recording() as ref_log:
            ref = ref_fold_levels(self._leaves(n), pad,
                                  self._merge(ref_calls, pad))
        with obs.recording() as log:
            out = fold_levels(self._leaves(n), self._merge(calls))
        assert calls == ref_calls
        assert log == ref_log
        assert out.total == ref.total == (1 << n) - 1

    def test_three_leaves_odd_last_moves_up(self):
        calls = []
        with obs.recording() as log:
            out = fold_levels(self._leaves(3), self._merge(calls))
        # leaf-index spans, bottom-up, left to right; leaf 2 moves up alone
        # and then joins with a span that passes the last leaf
        assert calls == [(0, 1, 2, 1, 2), (0, 2, 4, 3, 4)]
        assert out.total == 7
        assert [e["span"] for e in log] == [(0, 1, 2), (0, 2, 4)]
        assert log[0] == {"op": "fold-merge", "span": (0, 1, 2), "total": 3,
                          "cert": 0.0}

    def test_merge_returning_a_side_logs_nothing(self):
        with obs.recording() as log:
            out = fold_levels(self._leaves(2), lambda lo, mid, hi, u, w: u)
        assert out.total == 1 and log == []

    def test_single_and_empty(self):
        calls = []
        with obs.recording() as log:
            out = fold_levels(self._leaves(1), self._merge(calls))
        assert (out.total, calls, log) == (1, [], [])
        with pytest.raises(ValueError):
            fold_levels([], self._merge(calls))


class TestSolvableExpander:
    def test_trivial_group(self):
        out = solvable_expander(derived_series(GenSet(4, ())))
        assert out.cert == 0.0
        assert out.elems == (Perm.identity(4),)

    def test_z8(self):
        g = catalog.z8()
        out = solvable_expander(derived_series(g))
        assert dense_lambda2(PermCarrier.of(g), out) <= 0.25 + 1e-9

    def test_s4(self):
        g = catalog.s4()
        out = solvable_expander(derived_series(g))
        assert dense_lambda2(PermCarrier.of(g), out) <= 0.25 + 1e-9

    @pytest.mark.parametrize("name,lam", [
        ("z12", 1 / 16), ("s3", 1 / 16), ("d8", 1 / 16), ("q8", 1 / 16),
        ("sylow2_s8", 1 / 4), ("sylow2_s8", 1 / 16)])
    def test_krylov_route_merges_certify(self, monkeypatch, name, lam):
        # every merge is measured by the Krylov route, whose upper end may
        # pass the main lemma's bound while lambda2 stays below it
        g = getattr(catalog, name)()
        monkeypatch.setattr(spectra, "DENSE_CAP", 0)
        out = solvable_expander(derived_series(g), lam)
        monkeypatch.undo()
        assert out.cert <= lam + 1e-9
        assert dense_lambda2(PermCarrier.of(g), out) <= out.cert

    def test_nonsolvable_rejected(self):
        with pytest.raises(SolvabilityError):
            solvable_expander(derived_series(catalog.a5()))

    def test_builds_each_group_once(self, monkeypatch):
        # S4 > A4 > V4 > 1: one BSGS per term; then one abelian level,
        # <A4, x^2> for the 4-cycle x that makes S4/A4 a level of exponent
        # 2, the only level that is not a chain term
        calls = count_schreier_sims(monkeypatch)
        chain = derived_series(catalog.s4())
        assert len(calls) == 4
        solvable_expander(chain)
        assert len(calls) == 5

    def test_top_merge_takes_the_groups_own_carrier(self, monkeypatch):
        # the merge onto G_0/1 uses g's carrier when term 0 is its chain,
        # and otherwise a quotient of its own, never building a carrier
        g = catalog.s4()
        chain = derived_series(g)
        searches = count_calls(monkeypatch,
                               carriers.QuotientCarrier._products)
        out = solvable_expander(chain)
        second_eigenvalue(PermCarrier.of(g), out)
        assert [c.order for c in searches].count(24) == 1
        assert any(c is PermCarrier.of(g) for c in searches)
        fresh = GenSet(g.degree, g.gens)
        own_chain = type(chain)((schreier_sims(fresh),) + chain.terms[1:],
                                chain.solvable)
        assert solvable_expander(own_chain) == out
        assert PermCarrier.kept(fresh) is None
        # a carrier whose chain is not term 0 is not taken
        PermCarrier.of(fresh)
        searches.clear()
        assert solvable_expander(own_chain) == out
        assert all(c is not PermCarrier.kept(fresh) for c in searches)

    def test_quotient_above_the_table_cap_is_a_capacity_error(self,
                                                              monkeypatch):
        # the derived quotients (orders 2, 3 and 4) build their own tables,
        # but the top fold merge measures S4 itself, whose 24 cosets over the
        # trivial group are above the table cap: the construction stops with
        # the package's one capacity error, which the CLI maps to exit 6
        monkeypatch.setattr(carriers, "TABLE_CAP", 20)
        with pytest.raises(MethodCapacityError):
            solvable_expander(derived_series(catalog.s4()))

    def test_unmeasurable_fold_refused_before_its_levels(self, monkeypatch):
        # S4^5's derived quotients have orders 32, 243 and 1024, but its
        # top merge on S4^5 itself (order 7962624) has no route: refused
        # before any abelian quotient expander runs
        quotients = count_calls(monkeypatch, abexp.abelian_quotient_expander)
        chain = derived_series(group_power(catalog.s4(), 5))
        assert chain.orders == (7962624, 248832, 1024, 1)
        with pytest.raises(MethodCapacityError, match="group order 7962624 "
                           "exceeds the verification cap"):
            solvable_expander(chain)
        assert quotients == []

    def test_unmeasurable_level_fold_refused_before_its_levels(self,
                                                               monkeypatch):
        # Z4^11 is its own abelian quotient, with two levels of order 2048;
        # their fold on Z4^11 (order 4194304) has no route, so neither
        # level set is built or measured
        levels = count_calls(monkeypatch, abexp._compact_r_points)
        measured = count_calls(monkeypatch, spectra.measure)
        chain = derived_series(group_power(catalog.cyclic(4), 11))
        with pytest.raises(MethodCapacityError, match="group order 4194304 "
                           "exceeds the verification cap"):
            solvable_expander(chain)
        assert levels == measured == []

    def test_one_level_above_the_caps_keeps_its_analytic_bound(self,
                                                               monkeypatch):
        # Z_2^21 (order 2097152 > ITER_CAP) has one level and nothing to
        # fold: the final construction's bound certifies it, and squares
        # run only on the small carriers of that construction's base
        squared = count_calls(monkeypatch, combine.square_multiset)
        g = group_power(catalog.z2(), 21)
        out = solvable_expander(derived_series(g))
        assert (out.total, out.cert) == (48384, 0.18055555555555555)
        assert all(spectra.exact_method(c) is not None for c in squared)

    def test_symmetrize_noop_on_symmetric(self):
        g, carrier = z_n(5)
        ms = multiset([(g, 2), (g.inv(), 2)], cert=0.5)
        assert symmetrize(carrier, ms).counts() == ms.counts()


class TestCompact:
    def test_gcd_only_when_small(self):
        g, carrier = z_n(5)
        ms = multiset([(g, 4), (g.inv(), 4)], cert=0.9)
        out = compact(carrier, ms, 1024)
        assert out.counts() == {g: 1, g.inv(): 1}

    def test_reweight_recertifies(self):
        g, carrier = z_n(12)
        base = {g ** k: 2 * k + 1 for k in range(1, 6)}
        base.update({(g ** k).inv(): 2 * k + 1 for k in range(1, 6)})
        ms = multiset(base.items()).scaled(997)
        out = compact(carrier, ms, 64)
        assert out.total <= 64 + len(out.elems)
        assert abs(dense_lambda2(carrier, out) - out.cert) < 1e-12

    def test_each_distinct_candidate_measured_once(self, monkeypatch):
        # Z_2^6 uniform: the trims at budgets 16 and 32 are refused, and the
        # one at 64 keeps every unit: it is the input, which keeps its
        # bound 0 unmeasured
        carrier = VectorCarrier((2,) * 6)
        ms = multiset([(v, 1) for v in elements(carrier)], cert=0.0)
        measured = count_measurements(monkeypatch)
        out = compact(carrier, ms, 16, target_cert=0.0)
        assert (out.codes.tolist(), out.mults, out.cert) == \
            (ms.codes.tolist(), ms.mults, 0.0)
        assert len(measured) == len(set(measured)) == 4

    def test_a_trim_that_keeps_every_unit_is_the_last(self, monkeypatch):
        # 27 elements of Z_3^4 in 13 inverse pairs and the heavy identity:
        # at budget 26 both trims keep every unit, so they are one
        # candidate, measured once, and no larger budget is tried; nothing
        # meets a target_cert of 0
        carrier = VectorCarrier((3,) * 4)
        els = elements(carrier)
        heads = [e for e in els[1:] if e < elem_inv(carrier, e)]
        rng = random.Random(1)
        pairs = [(els[0], 5)]
        for e in rng.sample(heads, 13):
            w = rng.randint(1, 3)
            pairs += [(e, w), (elem_inv(carrier, e), w)]
        ms = multiset(pairs, cert=0.5)
        assert ms.support == 27
        measured = count_measurements(monkeypatch)
        out = compact(carrier, ms, 26, target_cert=0.0)
        assert out == ms
        assert measured and len(measured) == len(set(measured))

    def test_no_candidate_measured_twice_in_a_call(self, monkeypatch):
        # in a Z_4^6 bias space build at 1/16, no compact call measures one
        # candidate twice; every measurement that reverify does not make is
        # compact's, in the last call begun before it
        measured = count_measurements(monkeypatch)
        starts = count_calls(monkeypatch, combine.compact,
                             lambda *args: len(measured))
        reverified = count_calls(monkeypatch, combine.reverify,
                                 lambda *args: len(measured))
        zdn_bias_space(4, 6, 1 / 16)
        ours = [(bisect.bisect_right(starts, i), m)
                for i, m in enumerate(measured) if i not in reverified]
        assert len(starts) > 1 and ours
        assert len(ours) == len(set(ours))

    def test_warm_bias_space_measures_each_multiset_once(self, monkeypatch):
        # a square carries its bound and a trim equal to compact's input
        # keeps the input's, so a warm Z_12^3 build at 1/16 measures no
        # multiset twice
        zdn_bias_space(12, 3, 1 / 16)
        measured = count_measurements(monkeypatch)
        zdn_bias_space(12, 3, 1 / 16)
        assert measured and len(measured) == len(set(measured))

    def test_trim_respects_target_cert(self):
        carrier = VectorCarrier((2,) * 6)
        ms = multiset([(v, 1) for v in elements(carrier)], cert=0.0)
        out = compact(carrier, ms, 16, target_cert=0.5)
        assert out.cert <= 0.5
        assert carrier.is_symmetric(out)
