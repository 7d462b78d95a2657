import random

import numpy as np
import pytest

from helpers import elem_inv, elements, route_off, symmetric_by_elements

from cayexp import catalog
from cayexp.carriers import (PermCarrier, PermRows, VectorCarrier,
                             require_symmetric)
from cayexp.combine import combine_union
from cayexp.multiset import (NonSymmetricError, multiset,
                             format_perm_multiset, parse_perm_multiset)
from cayexp.perm import DegreeMismatch, GenSet, Perm, parse_perm
from cayexp.spectra import dense_lambda2, seed_body


def z5_setup():
    g = parse_perm("(1 2 3 4 5)", 5)
    carrier = PermCarrier.of(GenSet(5, (g,)))
    return g, carrier


def test_canonical_merge_and_sort():
    g, _ = z5_setup()
    ms = multiset([(g, 1), (g.inv(), 2), (g, 2)])
    assert ms.counts()[g] == 3
    assert list(ms.elems) == sorted(ms.elems)


def test_total_must_be_positive():
    with pytest.raises(ValueError):
        multiset([])


def test_symmetry_check():
    g, carrier = z5_setup()
    ok = multiset([(g, 2), (g.inv(), 2)])
    assert symmetric_by_elements(carrier, ok)
    assert carrier.is_symmetric(ok)
    bad = multiset([(g, 2), (g.inv(), 1)])
    assert not symmetric_by_elements(carrier, bad)
    assert not carrier.is_symmetric(bad)
    with pytest.raises(NonSymmetricError):
        require_symmetric(carrier, bad)


def test_inverse_pairing_is_involution():
    # the inverse codes of the multiplicity-expanded rows pair the i-th
    # copy of an element with the i-th copy of its inverse
    g, carrier = z5_setup()
    ms = multiset([(g, 2), (g.inv(), 2), (Perm.identity(5), 1)])
    rows = carrier.codes(ms).repeat(ms.mult_array(), axis=0)
    inv = carrier.inv_codes(rows)
    assert np.array_equal(carrier.inv_codes(inv), rows)
    expanded = [e for e, m in ms.pairs() for _ in range(m)]
    assert [Perm(r) for r in inv.tolist()] == \
        [elem_inv(carrier, e) for e in expanded]
    assert carrier.tally(inv) == ms


def test_scaling_leaves_lambda2_unchanged():
    g, carrier = z5_setup()
    ms = multiset([(g, 1), (g.inv(), 1)])
    lam1 = dense_lambda2(carrier, ms)
    lam7 = dense_lambda2(carrier, ms.scaled(7))
    assert abs(lam1 - lam7) < 1e-12


def test_gcd_reduction():
    g, _ = z5_setup()
    ms = multiset([(g, 6), (g.inv(), 6)])
    r = ms.gcd_reduced()
    assert r.mults == (1, 1)
    assert r.total == 2


def test_union_adds_multiplicities(monkeypatch):
    g, carrier = z5_setup()
    route_off(monkeypatch)      # the union is not inverse-closed
    a = multiset([(g, 1)], cert=0.5)
    b = multiset([(g, 2), (g.inv(), 1)], cert=0.5)
    u = combine_union(carrier, a, b)
    assert u.counts() == {g: 3, g.inv(): 1}
    assert u.cert == 1.5 * 3 / 4


def test_perm_multiset_file_roundtrip():
    g, _ = z5_setup()
    ms = multiset([(g, 3), (g.inv(), 3), (Perm.identity(5), 2)])
    text = format_perm_multiset(ms, 5)
    degree, back = parse_perm_multiset(text)
    assert degree == 5
    assert back.counts() == ms.counts()
    assert format_perm_multiset(back, 5) == text


@pytest.mark.parametrize("name", ["S4", "Z3xZ4xZ5"])
def test_pairs_are_stored_as_codes(name):
    # a multiset built from pairs stores codes like one a carrier builds:
    # permutations as image rows of their degree, tuples as codes over
    # their column-wise maxima plus 1
    carrier = {"S4": PermCarrier.of(catalog.s4()),
               "Z3xZ4xZ5": VectorCarrier((3, 4, 5))}[name]
    rng = random.Random(8)
    pairs = [(e, rng.randint(1, 5)) for e in rng.sample(elements(carrier), 9)]
    ms = multiset(pairs, cert=0.5)
    coords = np.array([getattr(e, "img", e) for e, _ in sorted(pairs)])
    if name == "S4":
        assert isinstance(ms.space, PermRows) and ms.space.degree == 4
        assert ms.codes.shape == (9, 4)
    else:
        assert ms.space.moduli == tuple((coords.max(axis=0) + 1).tolist())
        assert ms.codes.shape == (9,)
    assert not ms.codes.flags.writeable
    coded = carrier.tally(carrier.codes([e for e, _ in pairs]),
                          np.array([m for _, m in pairs]), cert=0.5)
    assert coded.space is carrier
    assert ms == coded and hash(ms) == hash(coded)
    assert ms.coordinates().tolist() == coded.coordinates().tolist() \
        == coords.tolist()
    assert seed_body(ms) == seed_body(coded)
    if name == "S4":
        assert format_perm_multiset(ms, 4) == format_perm_multiset(coded, 4)


def test_pairs_of_mixed_shapes_are_refused():
    t, t5 = Perm((1, 0, 2, 3)), Perm((1, 0, 2, 3, 4))
    with pytest.raises(DegreeMismatch):
        multiset([(t, 1), (t5, 1)])
    with pytest.raises(ValueError, match="mixed widths"):
        multiset([((1, 0), 1), ((1, 0, 2), 1)])
    with pytest.raises(ValueError, match="outside its modulus"):
        multiset([((1, 0), 1), ((0, -1), 1)])


def test_add_identity():
    # the lazy step: a tally of the codes with the identity's appended
    carrier = VectorCarrier((5,))
    ms = multiset([((1,), 1), ((4,), 1)])
    ident = carrier.codes([carrier.identity()])
    lazy = carrier.tally(np.concatenate((carrier.codes(ms), ident)),
                         np.append(ms.mult_array(), 2))
    assert lazy.counts() == {(0,): 2, (1,): 1, (4,): 1}
    assert lazy.total == 4
