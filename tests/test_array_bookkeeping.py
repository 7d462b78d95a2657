"""combine's multiset bookkeeping over the carriers' array protocol against
element-by-element references (tests/helpers.py), on a permutation group,
a quotient and a vector group."""

import random

import numpy as np
import pytest

from helpers import (aux_from_rotation, elem_inv, elements,
                     ref_derandomized_square, ref_pad_to_total, ref_pair_units,
                     ref_symmetrize, route_off)

from cayexp import catalog
from cayexp.carriers import PermCarrier, QuotientCarrier, VectorCarrier
from cayexp.combine import (_pair_units, aux_family, combine_union,
                            derandomized_square, pad_to_total, symmetrize)
from cayexp.multiset import NonSymmetricError, multiset
from cayexp.series import derived_series, quotient_context


def carriers():
    s4 = derived_series(catalog.s4())
    return {
        "A5": PermCarrier.of(catalog.a5()),
        "S4": PermCarrier.of(catalog.s4()),
        # S4 over V4, its derived term 2: order 6
        "S4/V4": quotient_context(s4.terms[0], s4.terms[2]),
        "Z2xZ3": VectorCarrier((2, 3)),
    }


CARRIERS = carriers()


def symmetric(carrier, elems, rng, extra=()):
    pairs = list(extra)
    for e in elems:
        m = rng.randint(1, 3)
        pairs += [(e, m), (elem_inv(carrier, e), m)]
    return multiset(pairs)


def cases():
    """(id, carrier, multiset): symmetric with and without self-inverse
    elements, inverse-closed with unequal multiplicities, not closed."""
    out = []
    for name, carrier in CARRIERS.items():
        rng = random.Random(name)
        els = elements(carrier)
        ident = carrier.identity()
        pool = [e for e in els if e != ident]
        pairs = [e for e in pool if elem_inv(carrier, e) != e]
        for seed in range(3):
            picks = rng.sample(pool, min(4, len(pool)))
            out.append((f"{name} symmetric {seed}", carrier,
                        symmetric(carrier, picks, rng, [(ident, seed + 1)])))
        if pairs:
            out.append((f"{name} pairs only", carrier,
                        symmetric(carrier, rng.sample(pairs, 1), rng)))
            e = rng.choice(pairs)
            out.append((f"{name} unequal", carrier, multiset(
                [(e, 1), (elem_inv(carrier, e), 2), (ident, 1)])))
            out.append((f"{name} not closed", carrier, multiset(
                [(e, 2), (ident, 2)])))
    return out


CASES = cases()
IDS = [c[0] for c in CASES]


def outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        out = fn(*args)
    except NonSymmetricError as e:
        return type(e), str(e)
    return out, out.elems, out.mults, out.cert


@pytest.mark.parametrize("name,carrier,ms", CASES, ids=IDS)
def test_pair_units_match_reference(name, carrier, ms):
    sizes, members = _pair_units(carrier, ms)
    want_sizes, want_members = ref_pair_units(carrier, ms)
    assert sizes.tolist() == want_sizes.tolist()
    n = len(sizes)
    for us in (np.arange(n), np.arange(n)[::2], np.arange(min(2, n))):
        got, want = members(us), want_members(us)
        assert (got.elems, got.mults) == (want.elems, want.mults)


@pytest.mark.parametrize("name,carrier,ms", CASES, ids=IDS)
def test_pad_to_total_matches_reference(name, carrier, ms):
    ms = ms.with_cert(0.5)
    t = ms.total
    for target in sorted({t, t + 1, t + 2, t + 3, 2 * t + 1, 3 * t + 5,
                          1 << t.bit_length()}):
        assert outcome(pad_to_total, carrier, ms, target) == \
            outcome(ref_pad_to_total, carrier, ms, target), target


@pytest.mark.parametrize("name,carrier,ms", CASES, ids=IDS)
def test_symmetrize_matches_reference(name, carrier, ms):
    for cert in (None, 0.25):
        ms = ms.with_cert(cert)
        assert outcome(symmetrize, carrier, ms) == \
            outcome(ref_symmetrize, carrier, ms)


@pytest.mark.parametrize("name,carrier,ms", CASES, ids=IDS)
def test_union_matches_reference(name, carrier, ms, monkeypatch):
    # with no route the union is not measured, so it may be not closed
    route_off(monkeypatch)
    a, b = ms.with_cert(0.5), symmetrize(carrier, ms).with_cert(0.25)
    got = combine_union(carrier, a, b)
    want = multiset(list(a.pairs()) + list(b.pairs()))
    assert (got.elems, got.mults) == (want.elems, want.mults)
    assert got.cert == 1.5 * max(a.total, b.total) / (a.total + b.total)


@pytest.mark.parametrize("name,carrier,ms", CASES, ids=IDS)
def test_derandomized_square_matches_reference(name, carrier, ms):
    ms = ms.with_cert(0.5)
    if carrier.is_symmetric(ms):
        ms = ref_pad_to_total(carrier, ms, 1 << (ms.total - 1).bit_length())
    auxes = [aux_family(ms.total)]
    if ms.total == 4:
        # a loopy four-cycle: labels +1 and -1 are mutually inverse
        auxes.append(aux_from_rotation(
            np.array([[1, 3, 0], [2, 0, 1], [3, 1, 2], [0, 2, 3]]),
            label_inv=(1, 0, 2)))
    for aux in auxes:
        assert outcome(derandomized_square, carrier, ms, aux) == \
            outcome(ref_derandomized_square, carrier, ms, aux)


def test_bookkeeping_builds_no_element_table(monkeypatch):
    # A5 and S4/V4 under a table cap below both orders: the array protocol
    # works from image rows alone, so none of these calls enumerates the
    # group
    cases = ((CARRIERS["A5"], elements(CARRIERS["A5"])[1:30]),
             (CARRIERS["S4/V4"], elements(CARRIERS["S4/V4"])[1:]))
    monkeypatch.setattr("cayexp.carriers.TABLE_CAP", 23)
    a5 = PermCarrier(cases[0][0].parent)
    quo = QuotientCarrier(cases[1][0].parent, cases[1][0].kernel)
    for carrier, elems in ((a5, cases[0][1]), (quo, cases[1][1])):
        rng = random.Random(5)
        ms = symmetric(carrier, elems[:3], rng,
                       [(carrier.identity(), 1)]).with_cert(0.5)
        assert carrier.is_symmetric(ms)
        assert pad_to_total(carrier, ms, ms.total + 3) == \
            ref_pad_to_total(carrier, ms, ms.total + 3)
        sizes, members = _pair_units(carrier, ms)
        assert members(np.arange(len(sizes))).support == ms.support
        odd = multiset([(e, 1) for e in elems[:3]])
        assert symmetrize(carrier, odd) == ref_symmetrize(carrier, odd)
        with monkeypatch.context() as m:
            route_off(m)
            assert combine_union(carrier, ms, ms) == \
                ms.scaled(2).with_cert(0.75)
        padded = pad_to_total(carrier, ms, 1 << (ms.total - 1).bit_length())
        aux = aux_family(padded.total)
        assert derandomized_square(carrier, padded, aux) == \
            ref_derandomized_square(carrier, padded, aux)
        assert "_table" not in carrier.__dict__
