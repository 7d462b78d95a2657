import hashlib
import json
import random

import pytest

from helpers import (CATALOG_GROUPS, brute_closure, elements,
                     transversal_elements)

from cayexp import carriers, catalog
from cayexp.bsgs import jerrum_reduce, schreier_sims
from cayexp.carriers import MethodCapacityError, PermCarrier
from cayexp.perm import GenSet, Perm, parse_perm
from cayexp.series import derived_series


class TestSchreierSims:
    def test_s3(self):
        g = catalog.s3()
        assert schreier_sims(g).order() == 6

    def test_identity_only(self):
        g = GenSet(3, (Perm.identity(3),))
        assert schreier_sims(g).order() == 1

    def test_s4_from_cycle_and_transposition(self):
        assert schreier_sims(catalog.s4()).order() == 24

    @pytest.mark.parametrize("name,order", [
        ("Z8", 8), ("Z12", 12), ("D8", 8), ("A4", 12), ("S3xS4", 144),
        ("Sylow2_S8", 128), ("Q8", 8), ("A5", 60), ("S5", 120),
        ("A6", 360), ("A7", 2520),
    ])
    def test_catalog_orders(self, name, order):
        g = catalog.FULL_CATALOG[name]()
        assert schreier_sims(g).order() == order

    def test_order_matches_brute_closure_random(self):
        rng = random.Random(7)
        for trial in range(40):
            gens = tuple(Perm(rng.sample(range(6), 6))
                         for _ in range(rng.randint(1, 3)))
            g = GenSet(6, gens)
            assert schreier_sims(g).order() == len(brute_closure(g)), trial

    def test_strong_gens_pass_membership(self):
        b = schreier_sims(catalog.s3_x_s4())
        for p in b.strong_gens():
            assert b.contains(p)

    def test_strong_gens_at_most_n_squared(self):
        for fn in catalog.FULL_CATALOG.values():
            g = fn()
            b = schreier_sims(g)
            assert len(b.strong_gens()) <= g.degree ** 2

    def test_transversal_product_is_order(self):
        for fn in (catalog.s4, catalog.a5, catalog.sylow2_s8):
            g = fn()
            b = schreier_sims(g)
            assert b.order() == len(brute_closure(g))


def chain_record(b) -> list:
    """A chain as plain lists: base, each level's generators, each level's
    orbit points with their transversal rows, and the strong generators
    in ``strong_gens()`` order."""
    return [b.base,
            [[list(g) for g in lv.gens] for lv in b.levels],
            [[lv.points.tolist(), lv.rows.tolist()] for lv in b.levels],
            [list(p.img) for p in b.strong_gens()]]


def random_groups(count: int, seed: int) -> list[GenSet]:
    """Groups of degree 2-10 on one to three random permutations."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 10)
        out.append(GenSet(n, tuple(Perm(rng.sample(range(n), n))
                                   for _ in range(rng.randint(1, 3)))))
    return out


def test_chains_are_pinned():
    # every term of the derived series of every catalog group and of 60
    # random groups: term 0 is schreier_sims itself, the others come from
    # normal closures, which adjoin conjugates to a finished chain. The
    # digest was recorded with the Perm-based Schreier-Sims, so the chains
    # (base, level generators, transversal rows and their order, strong
    # generators) are the same ones, operation for operation.
    groups = [getattr(catalog, name)() for name in CATALOG_GROUPS]
    groups += random_groups(60, 29)
    records = [chain_record(term) for g in groups
               for term in derived_series(g).terms]
    assert len(records) == 169
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == \
        "ec5f4413c92449b76a3ddf9654b33854d0992e69732819d14ff9da59ecfad57c"


class TestMembership:
    def test_a4_excludes_transposition(self):
        b = schreier_sims(catalog.a4())
        assert not b.contains(parse_perm("(1 2)", 4))

    def test_identity_always_member(self):
        for fn in (catalog.s4, catalog.z8, catalog.q8):
            g = fn()
            assert schreier_sims(g).contains(Perm.identity(g.degree))

    def test_square_of_four_cycle(self):
        b = schreier_sims(GenSet(4, (parse_perm("(1 2 3 4)", 4),)))
        assert b.contains(parse_perm("(1 3)(2 4)", 4))

    def test_agrees_with_enumeration(self):
        g = catalog.d12()
        b = schreier_sims(g)
        els = brute_closure(g)
        rng = random.Random(3)
        for _ in range(200):
            p = Perm(rng.sample(range(6), 6))
            assert b.contains(p) == (p in els)

    def test_degree_mismatch(self):
        b = schreier_sims(catalog.s3())
        with pytest.raises(ValueError):
            b.contains(Perm.identity(4))


class TestEnumerate:
    """The element table a BSGS's transversals give its carrier."""

    def test_trivial(self):
        b = schreier_sims(GenSet(3, ()))
        assert elements(PermCarrier(b)) == [Perm.identity(3)]

    def test_z3(self):
        b = schreier_sims(GenSet(3, (parse_perm("(1 2 3)", 3),)))
        els = elements(PermCarrier(b))
        assert len(els) == 3
        assert len(set(els)) == 3

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setattr(carriers, "TABLE_CAP", 10)
        b = schreier_sims(catalog.s4())
        with pytest.raises(MethodCapacityError):
            elements(PermCarrier(b))

    def test_each_element_once(self):
        b = schreier_sims(catalog.sylow2_s8())
        els = elements(PermCarrier(b))
        assert len(els) == 128
        assert len(set(els)) == 128
        assert els == sorted(transversal_elements(b))

    def test_deterministic_order(self):
        g = catalog.s4()
        a = elements(PermCarrier(schreier_sims(g)))
        b = elements(PermCarrier(schreier_sims(g)))
        assert a == b


class TestJerrum:
    def test_duplicates_collapse(self):
        t = parse_perm("(1 2)", 4)
        r = jerrum_reduce(GenSet(4, (t, t, t)))
        assert len(r.gens) == 1
        assert schreier_sims(r).order() == 2

    def test_identity_only_gives_empty(self):
        r = jerrum_reduce(GenSet(4, (Perm.identity(4),)))
        assert len(r.gens) == 0

    def test_redundant_s3_generators(self):
        g = catalog.s3()
        els = sorted(brute_closure(g))
        many = GenSet(3, tuple(els[1:]))  # 5 nontrivial elements generate S3
        r = jerrum_reduce(many)
        assert len(r.gens) <= 3
        assert schreier_sims(r).order() == 6

    def test_random_same_group_and_size_bound(self):
        rng = random.Random(11)
        for trial in range(60):
            degree = rng.choice([4, 5, 6, 7])
            gens = tuple(Perm(rng.sample(range(degree), degree))
                         for _ in range(rng.randint(1, 6)))
            g = GenSet(degree, gens)
            r = jerrum_reduce(g)
            assert len(r.gens) <= degree - 1, trial
            assert schreier_sims(r).order() == schreier_sims(g).order(), trial
