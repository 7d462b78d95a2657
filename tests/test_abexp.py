import math

import pytest

from helpers import (canonicalize, elem_mul, elements, field_pow, hom_apply,
                     hom_domain, inner_product, naive_bias, psi_to_fields)

from cayexp import abexp, catalog
from cayexp.abexp import (abelian_quotient_expander, build_abelianization,
                          cyclic_expander, factorize, final_R,
                          greedy_expander, product_base_expander,
                          r_carrier, vector_map)
from cayexp.bsgs import schreier_sims
from cayexp.carriers import PermCarrier, VectorCarrier
from cayexp.combine import CertificationError, reverify, solvable_expander
from cayexp.multiset import multiset
from cayexp.perm import GenSet, Perm, parse_perm
from cayexp.series import derived_series, quotient_context
from cayexp.spectra import bias_exhaustive, dense_lambda2, second_eigenvalue


class TestFactorize:
    @pytest.mark.parametrize("d,expected", [
        (12, [(2, 2), (3, 1)]),
        (7, [(7, 1)]),
        (360, [(2, 3), (3, 2), (5, 1)]),
    ])
    def test_examples(self, d, expected):
        assert factorize(d) == expected

    def test_too_small(self):
        with pytest.raises(ValueError):
            factorize(1)


class TestGreedyProvider:
    def test_certificate_is_exhaustive_bias(self):
        for moduli in [(5,), (6,), (64,), (9,)]:
            carrier = VectorCarrier(moduli)
            ms = greedy_expander(carrier, 0.25)
            assert abs(bias_exhaustive(carrier, ms) - ms.cert) < 1e-9
            assert ms.cert <= 0.25
            assert carrier.is_symmetric(ms)

    def test_small_case_matches_naive_oracle(self):
        carrier = VectorCarrier((6,))
        ms = greedy_expander(carrier, 0.25)
        assert abs(naive_bias((6,), ms) - ms.cert) < 1e-9

    @pytest.mark.parametrize("moduli", [(2, 3), (2, 2), (1, 1)])
    def test_rejects_more_than_one_modulus(self, moduli):
        # the provider works on one cyclic group Z_m
        with pytest.raises(ValueError, match="one cyclic group"):
            greedy_expander(VectorCarrier(moduli), 0.25)

    def test_trivial_group(self):
        ms = greedy_expander(VectorCarrier((1,)), 0.25)
        assert ms.cert == 0.0 and ms.total == 1


class TestCyclicExpander:
    def test_t1_selfloop_convention(self):
        ms = cyclic_expander(1, 0.25)
        assert ms.cert == 0.0
        assert ms.elems == ((0,),)

    def test_t2_lazy_set(self):
        ms = cyclic_expander(2, 0.25)
        assert ms.cert <= 0.25
        # a single generator alone would give lambda2 = 1; the provider's
        # set must include identity mass
        assert (0,) in ms.elems and (1,) in ms.elems

    def test_t210_quarter(self):
        ms = cyclic_expander(210, 0.25)
        assert ms.cert <= 0.25
        assert abs(bias_exhaustive(VectorCarrier((210,)), ms)
                   - ms.cert) < 1e-9
        # size stays modest relative to t (logged trend, not a proof)
        assert ms.total <= 40 * math.ceil(math.log2(210))

    def test_generates(self):
        # bias < 1 forces generation; check directly for Z_8
        ms = cyclic_expander(8, 0.25)
        reached = {0}
        frontier = [0]
        step = [v[0] for v in ms.elems]
        while frontier:
            nxt = []
            for x in frontier:
                for s in step:
                    y = (x + s) % 8
                    if y not in reached:
                        reached.add(y)
                        nxt.append(y)
            frontier = nxt
        assert reached == set(range(8))


class TestProductBase:
    def test_single_prime_m1_is_cyclic(self):
        out = product_base_expander([2], 1, 0.25)
        assert out.cert <= 0.25
        assert all(len(v) == 1 for v in out.elems)

    def test_spec_pair_exhaustive(self):
        out = product_base_expander([2, 3], 2, 0.25)
        carrier = VectorCarrier((2, 2, 3, 3))
        assert out.cert <= 0.25
        assert abs(bias_exhaustive(carrier, out) - out.cert) < 1e-9

    def test_three_primes_order_27000(self):
        out = product_base_expander([2, 3, 5], 3, 0.25)
        carrier = VectorCarrier((2, 2, 2, 3, 3, 3, 5, 5, 5))
        assert carrier.order == 27000
        assert out.cert <= 0.25
        assert abs(bias_exhaustive(carrier, out) - out.cert) < 1e-9

    def test_crt_split(self):
        # x -> (x mod p)_p on Z_30: every column reads coordinate 0
        ms = multiset([((7,), 2), ((29,), 1)], cert=0.5)
        out = vector_map(ms, VectorCarrier((2, 3, 5)), [0, 0, 0])
        assert out.counts() == {(1, 1, 2): 2, (1, 2, 4): 1}
        assert out.cert == 0.5


class TestAbelianization:
    def test_z6_orders(self):
        g = catalog.z6()
        hom = build_abelianization(schreier_sims(g),
                                   schreier_sims(GenSet(6, ())))
        assert hom.primes == (2, 3)
        orders = sorted(hom.ys[0][j].order() for j in range(2))
        assert orders == [2, 3]
        # phi is onto: image covers the whole group
        carrier = hom_domain(hom)
        image = {hom_apply(hom, v) for v in elements(carrier)}
        assert len(image) == 6

    def test_s4_mod_a4_parity(self):
        g = catalog.s4()
        chain = derived_series(g)
        hom = build_abelianization(chain.terms[0], chain.terms[1])
        # image must include an odd permutation's coset
        domain = hom_domain(hom)
        images = {hom_apply(hom, v) for v in elements(domain)[:64]}
        assert len(images) == 2

    def test_h_equals_n_constant(self):
        b = schreier_sims(catalog.s4())
        hom = build_abelianization(b, b)
        width = len(hom_domain(hom).moduli)
        assert hom_apply(hom, (0,) * width) == Perm.identity(4)

    def test_nonabelian_quotient_rejected(self):
        with pytest.raises(ValueError) as exc:
            build_abelianization(schreier_sims(catalog.s4()),
                                 schreier_sims(GenSet(4, ())))
        assert "abelian" in str(exc.value)

    def test_homomorphism_property_random(self):
        import random
        g = catalog.z12()
        hom = build_abelianization(schreier_sims(g),
                                   schreier_sims(GenSet(7, ())))
        carrier = hom_domain(hom)
        rng = random.Random(0)
        moduli = carrier.moduli
        for _ in range(1000):
            a = tuple(rng.randrange(m) for m in moduli)
            b = tuple(rng.randrange(m) for m in moduli)
            lhs = hom_apply(hom, elem_mul(carrier, a, b))
            rhs = canonicalize(hom.quotient,
                               hom_apply(hom, a) * hom_apply(hom, b))
            assert lhs == rhs

    def test_generator_preimages_exist(self):
        # Appendix-style CRT witnesses: x_i = prod_j y_ij^(d_j q_j)
        g = catalog.z12()
        hom = build_abelianization(schreier_sims(g),
                                   schreier_sims(GenSet(7, ())))
        for i, (x, r) in enumerate(zip(hom.xs, hom.orders)):
            acc = g.identity()
            for j, p in enumerate(hom.primes):
                e = hom.e_table[i][j]
                if not e:
                    continue
                q = r // p**e
                d = pow(q, -1, p**e)
                acc = acc * (hom.ys[i][j] ** d)
            assert canonicalize(hom.quotient, acc) == \
                canonicalize(hom.quotient, x)


class TestHomImage:
    """Images along onto homomorphisms: ``vector_map`` and the level guard
    of ``abelian_quotient_expander``."""

    def test_identity_hom(self):
        ms = multiset([((1,), 1), ((3,), 1)], cert=0.5)
        out = vector_map(ms, VectorCarrier((4,)), [0])
        assert out.counts() == ms.counts()
        assert out.cert == ms.cert

    def test_vector_map_transports_multiplicity(self):
        # the projection (a, b) -> a merges the images' multiplicities
        ms = multiset([((0, 1), 2), ((1, 1), 3), ((1, 0), 4)])
        img = vector_map(ms, VectorCarrier((2,)), [0])
        assert img.counts() == {(0,): 2, (1,): 7}

    def test_z4_to_z2_reduction(self):
        z4 = VectorCarrier((4,))
        z2 = VectorCarrier((2,))
        ms = greedy_expander(z4, 0.25)
        img = reverify(z2, vector_map(ms, z2, [0]))
        want = {}
        for (v,), m in ms.pairs():
            want[(v % 2,)] = want.get((v % 2,), 0) + m
        assert img.counts() == want
        # a pushforward along an onto homomorphism cannot raise the bias
        assert img.cert <= ms.cert + 1e-9

    def test_containment_violation_detected(self, monkeypatch):
        # R handed out with a falsely low certificate: its level image is
        # re-measured above it, and the guard refuses the level
        real = abexp._compact_r_points

        def lying(*args):
            return real(*args).with_cert(0.0)
        monkeypatch.setattr(abexp, "_compact_r_points", lying)
        chain = derived_series(catalog.s4())
        with pytest.raises(CertificationError, match="above its source"):
            abelian_quotient_expander(chain.terms[1], chain.terms[2])

    def test_iterated_level_above_dense_cap_certifies(self):
        # Z_2^14: one level of order 16384, above DENSE_CAP, whose level map
        # is an isomorphism; its image is measured by the Krylov route's
        # upper end, which sits above R's exact bias, and must not be refused
        gens = tuple(Perm.from_cycles(28, [(2 * i, 2 * i + 1)])
                     for i in range(14))
        h = schreier_sims(GenSet(28, gens))
        n = schreier_sims(GenSet(28, ()))
        ms = abelian_quotient_expander(h, n)
        assert ms.cert is not None and ms.cert <= 0.25 + 1e-9


class TestFinalR:
    def test_acceptance_instance_n4(self):
        r = final_R(4, (2, 3), c=8, eps=0.125)
        carrier = r_carrier(4, (2, 3))
        assert carrier.order == 1296
        measured = bias_exhaustive(carrier, r.points)
        assert measured <= 0.25 + 1e-9
        assert measured <= 1 / 8 + r.base.cert + 1e-9

    def test_size_identity(self):
        r = final_R(4, (2, 3), c=8)
        assert r.points.total == 8 * 4 * r.base.total

    def test_tuples_distinct_in_every_coordinate(self):
        r = final_R(4, (2, 3), c=8)
        for j in range(len(r.primes)):
            coords = [t[j] for t in r.tuples]
            assert len({c.coeffs for c in coords}) == len(coords)

    def test_tuple_count(self):
        r = final_R(4, (2, 3), c=8)
        assert len(r.tuples) == 32

    def test_character_reduction_identity(self):
        # <beta_j, v_j> = <q_j(x_j), y_j> with q_j(x) = sum beta_l x^l:
        # the bilinearity that drives the bias bound
        import random
        r = final_R(3, (2, 3), c=4)
        rng = random.Random(1)
        fields = r.fields
        base_vecs = list(r.base.elems)
        widths = [f.m for f in fields]
        for _ in range(40):
            x = r.tuples[rng.randrange(len(r.tuples))]
            y = psi_to_fields(rng.choice(base_vecs), fields, widths)
            for j, (p, f) in enumerate(zip(r.primes, fields)):
                beta = [rng.randrange(p) for _ in range(r.n)]
                v = [inner_product(field_pow(x[j], ell), y[j])
                     for ell in range(r.n)]
                lhs = sum(b * c for b, c in zip(beta, v)) % p
                q = f.zero()
                for ell in reversed(range(r.n)):
                    q = q * x[j] + f.one().scale(beta[ell])
                rhs = inner_product(q, y[j])
                assert lhs == rhs

    def test_root_counting(self):
        # a nonzero polynomial of degree <= n-1 has at most n-1 roots among
        # the distinct tuple coordinates
        import random
        r = final_R(4, (2, 3), c=8)
        rng = random.Random(2)
        for _ in range(200):
            j = rng.randrange(len(r.primes))
            p = r.primes[j]
            f = r.fields[j]
            beta = [rng.randrange(p) for _ in range(r.n)]
            if not any(beta):
                beta[rng.randrange(r.n)] = 1
            zeros = 0
            for t in r.tuples:
                q = f.zero()
                for ell in reversed(range(r.n)):
                    q = q * t[j] + f.one().scale(beta[ell])
                if q == f.zero():
                    zeros += 1
            assert zeros <= r.n - 1

    def test_bad_parameters(self):
        with pytest.raises(Exception):
            final_R(4, (2, 3), c=2, eps=0.125)   # 1/c + eps > 1/4

    def test_n16_structural_identity(self):
        # 6^16 characters exceed the exhaustive cap: the certificate is the
        # analytic 1/c + eps
        r = final_R(16, (2, 3), c=8)
        assert r.points.total == 8 * 16 * r.base.total
        assert r.cert <= 0.25 + 1e-9


class TestLevelGroups:
    def test_z8_chain_orders(self):
        from cayexp.abexp import _level_groups
        g = catalog.z8()
        hom = build_abelianization(schreier_sims(g),
                                   schreier_sims(GenSet(8, ())))
        orders = [b.order() for b in _level_groups(hom)]
        assert orders == [8, 4, 2, 1]

    def test_z12_chain_orders(self):
        from cayexp.abexp import _level_groups
        g = catalog.z12()
        hom = build_abelianization(schreier_sims(g),
                                   schreier_sims(GenSet(7, ())))
        orders = [b.order() for b in _level_groups(hom)]
        assert orders == [12, 2, 1]    # e = (2, 1): primes 3 dies first

    def test_fold_trace_logs_merges(self):
        g = catalog.s4()
        from cayexp import obs
        with obs.recording() as log:
            solvable_expander(derived_series(g))
        merges = [t for t in log if t["op"] == "fold-merge"]
        assert merges
        for t in merges:
            assert t["cert"] <= 0.25 + 1e-9


class TestAbelianQuotient:
    def test_s4_mod_a4(self):
        g = catalog.s4()
        chain = derived_series(g)
        out = abelian_quotient_expander(chain.terms[0], chain.terms[1])
        qcar = quotient_context(chain.terms[0], chain.terms[1])
        assert dense_lambda2(qcar, out) <= 0.25 + 1e-9

    def test_z12_full(self):
        g = catalog.z12()
        out = abelian_quotient_expander(schreier_sims(g),
                                        schreier_sims(GenSet(7, ())))
        assert dense_lambda2(PermCarrier.of(g), out) <= 0.25 + 1e-9

    def test_h_equals_n_neutral(self):
        b = schreier_sims(catalog.s4())
        out = abelian_quotient_expander(b, b)
        assert out.cert == 0.0
        assert out.total == 1

    def test_agl_1_13_certifies(self):
        # degree 13, rank 2: an R at the degree (over Z_13^13) is too large
        # to measure, so no squaring round on it could be certified
        g = GenSet(13, (Perm(tuple((x + 1) % 13 for x in range(13))),
                        Perm(tuple((2 * x) % 13 for x in range(13)))))
        assert schreier_sims(g).order() == 156
        out = solvable_expander(derived_series(g), 0.25)
        assert out.cert <= 0.25 + 1e-9
        report = second_eigenvalue(PermCarrier.of(g), out)
        assert report.lambda2 <= 0.25 + 1e-9

    def test_s4_power_5_quotients_above_the_table_cap(self):
        # S4^5 (order 7962624) is above the element-table cap, but G/G'
        # (order 32) and G'/G'' (order 243) number their own cosets
        cycles = [c for k in range(0, 20, 4)
                  for c in (f"({k + 1} {k + 2} {k + 3} {k + 4})",
                            f"({k + 1} {k + 2})")]
        g = GenSet(20, tuple(parse_perm(c, 20) for c in cycles))
        chain = derived_series(g)
        assert chain.orders[:3] == (7962624, 248832, 1024)
        for h, k in zip(chain.terms[:2], chain.terms[1:3]):
            out = abelian_quotient_expander(h, k)
            assert out.cert <= 0.25 + 1e-9
            qcar = quotient_context(h, k)
            assert dense_lambda2(qcar, out) <= out.cert + 1e-9


class TestLevelRank:
    """Each level's R is built over prod_j Z_{p_j}^r, r = len(hom.xs)."""

    # ranks of the derived-series quotients; Z6 is a rank-1 quotient
    @pytest.mark.parametrize("group,ranks", [
        (catalog.s4, [2, 2, 2]),
        (catalog.sylow2_s8, [3, 3, 1]),
        (catalog.z6, [1]),
    ])
    def test_r_points_at_quotient_rank(self, group, ranks, monkeypatch):
        real = abexp._compact_r_points
        calls = []

        def spy(n, primes):
            calls.append(n)
            return real(n, primes)

        monkeypatch.setattr(abexp, "_compact_r_points", spy)
        chain = derived_series(group())
        quotients = list(zip(chain.terms, chain.terms[1:]))
        assert [len(build_abelianization(h, k).xs)
                for h, k in quotients] == ranks
        for (h, k), rank in zip(quotients, ranks):
            calls.clear()
            out = abelian_quotient_expander(h, k)
            assert calls and set(calls) == {rank}
            assert out.cert <= 0.25 + 1e-9
            qcar = quotient_context(h, k)
            assert dense_lambda2(qcar, out) <= 0.25 + 1e-9
