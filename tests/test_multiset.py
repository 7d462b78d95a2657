import numpy as np
import pytest

from helpers import symmetric_by_elements

from cayexp.carriers import (AbelianShape, PermCarrier, VectorCarrier,
                             require_symmetric)
from cayexp.combine import combine_union
from cayexp.multiset import (NonSymmetricError, multiset,
                             format_perm_multiset, format_vector_multiset,
                             parse_perm_multiset, parse_vector_multiset)
from cayexp.perm import GenSet, Perm, parse_perm
from cayexp.spectra import dense_lambda2


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
        [carrier.inv(e) for e in expanded]
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


def test_union_adds_multiplicities():
    g, carrier = z5_setup()
    a = multiset([(g, 1)], cert=0.5)
    b = multiset([(g, 2), (g.inv(), 1)], cert=0.5)
    u = combine_union(carrier, a, b, verify=False)
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


def test_vector_multiset_file_roundtrip():
    shape = AbelianShape(((2, 1, 2), (3, 2, 1)))
    ms = multiset([((0, 1, 4), 2), ((1, 0, 5), 1), ((1, 1, 4), 1)])
    text = format_vector_multiset(ms, shape)
    shape2, back = parse_vector_multiset(text)
    assert shape2 == shape
    assert back.counts() == ms.counts()
    assert format_vector_multiset(back, shape2) == text


def test_vector_width_checked_on_parse():
    shape = AbelianShape(((2, 1, 2),))
    text = format_vector_multiset(multiset([((0, 1), 1)]), shape)
    with pytest.raises(ValueError):
        parse_vector_multiset(text.replace("0,1", "0,1,0"))


def test_add_identity():
    # the lazy step: a tally of the codes with the identity's appended
    carrier = VectorCarrier((5,))
    ms = multiset([((1,), 1), ((4,), 1)])
    ident = carrier.codes([carrier.identity()])
    lazy = carrier.tally(np.concatenate((carrier.codes(ms), ident)),
                         np.append(ms.mult_array(), 2))
    assert lazy.counts() == {(0,): 2, (1,): 1, (4,): 1}
    assert lazy.total == 4


def test_abelian_shape_validation():
    with pytest.raises(ValueError):
        AbelianShape(((4, 1, 1),))          # not prime
    with pytest.raises(ValueError):
        AbelianShape(((3, 1, 1), (2, 1, 1)))  # not increasing
    sh = AbelianShape(((2, 2, 3),))
    assert sh.moduli == (4, 4, 4)
    assert VectorCarrier.of(sh).order == 64
