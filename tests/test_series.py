import random

import pytest

from helpers import (brute_closure, brute_commutator_subgroup, canonicalize,
                     transversal_elements)

from cayexp import catalog
from cayexp.bsgs import schreier_sims
from cayexp.perm import GenSet, Perm, parse_perm
from cayexp.series import (NormalityError, derived_series, dixon_bound,
                           quotient_context)


class TestDerivedSeries:
    def test_s4_full_chain(self):
        chain = derived_series(catalog.s4())
        assert chain.orders == (24, 12, 4, 1)
        assert chain.solvable
        assert chain.length == 3

    def test_abelian_z6_one_step(self):
        chain = derived_series(catalog.z6())
        assert chain.orders == (6, 1)
        assert chain.length == 1

    def test_s5_stabilizes_at_a5(self):
        chain = derived_series(catalog.s5())
        assert not chain.solvable
        assert chain.orders == (120, 60)

    def test_commutator_matches_brute_force(self):
        for fn in (catalog.s4, catalog.d8, catalog.q8, catalog.z12,
                   catalog.a4, catalog.d12):
            g = fn()
            chain = derived_series(g)
            els = brute_closure(g)
            expected = brute_commutator_subgroup(els)
            assert chain.orders[1] == len(expected), fn.__name__

    def test_each_group_contained_in_predecessor(self):
        chain = derived_series(catalog.sylow2_s8())
        for top, sub in zip(chain.groups, chain.groups[1:]):
            b = schreier_sims(top)
            for x in sub.nontrivial_gens():
                assert b.contains(x)

    def test_each_term_normal_in_top(self):
        chain = derived_series(catalog.s4())
        top = chain.groups[0]
        for sub in chain.groups[1:]:
            nb = schreier_sims(sub)
            for x in sub.nontrivial_gens():
                for g in top.nontrivial_gens():
                    assert nb.contains(x.conjugate(g))

    def test_dixon_bound_on_solvable_catalog(self):
        for name, fn in catalog.SOLVABLE_CATALOG.items():
            g = fn()
            chain = derived_series(g)
            assert chain.solvable, name
            assert chain.length <= dixon_bound(g.degree), name


def canonical(carrier, perms) -> list[Perm]:
    """The quotient carrier's canonical representatives of perms, computed
    for all of them at once."""
    return list(carrier.decode(carrier._canonical(carrier.codes(perms))))


class TestQuotientContext:
    def test_s4_mod_a4_order_two(self):
        chain = derived_series(catalog.s4())
        quo = quotient_context(chain.terms[0], chain.terms[1])
        assert quo.order == 2

    def test_h_equals_n_gives_trivial_quotient(self):
        s4 = schreier_sims(catalog.s4())
        quo = quotient_context(s4, s4)
        assert quo.order == 1
        els = transversal_elements(schreier_sims(catalog.s4()))
        assert set(canonical(quo, els)) == {Perm.identity(4)}

    def test_not_normal_is_an_error(self):
        with pytest.raises(NormalityError) as exc:
            quotient_context(schreier_sims(catalog.s4()), schreier_sims(
                GenSet(4, (parse_perm("(1 2)", 4),))))
        assert "conjugate" in str(exc.value)

    def test_canonicalize_constant_on_cosets(self):
        g = catalog.s4()
        chain = derived_series(g)
        v4 = chain.groups[2]
        quo = quotient_context(chain.terms[0], chain.terms[2])
        els = transversal_elements(schreier_sims(g))
        can = canonical(quo, els)
        assert can == [canonicalize(quo, h) for h in els]
        nb = schreier_sims(v4)
        for i, h1 in enumerate(els[:8]):
            for j, h2 in enumerate(els):
                same = nb.contains(h1 * h2.inv())
                assert (can[i] == can[j]) == same

    def test_multiplication_well_defined_thousand_pairs(self):
        g = catalog.s4()
        chain = derived_series(g)
        quo = quotient_context(chain.terms[0], chain.terms[2])
        els = transversal_elements(schreier_sims(g))
        rng = random.Random(5)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(1000)]
        lhs = canonical(quo, [h1 * h2 for h1, h2 in pairs])
        c1 = canonical(quo, [h1 for h1, _ in pairs])
        c2 = canonical(quo, [h2 for _, h2 in pairs])
        assert lhs == canonical(quo, [a * b for a, b in zip(c1, c2)])

    def test_index_computation(self):
        g = catalog.sylow2_s8()
        chain = derived_series(g)
        quo = quotient_context(chain.terms[0], chain.terms[1])
        assert quo.order == 128 // chain.orders[1]
