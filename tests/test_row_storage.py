"""Permutation and quotient multisets keep their image rows.

A multiset made by a permutation or quotient carrier (``from_codes``,
``tally``, ``square_multiset``) stores the carrier and its (k, degree) image
rows, and ``codes`` hands those rows back without making a ``Perm``; read
element by element it equals the multiset built from the same pairs.
"""

import random

import numpy as np
import pytest

from helpers import elem_inv, elements

from cayexp import catalog
from cayexp.carriers import (PermCarrier, QuotientCarrier, VectorCarrier,
                             multiset_order_check)
from cayexp.combine import square_multiset
from cayexp.multiset import format_perm_multiset, multiset
from cayexp.perm import DegreeMismatch, Perm
from cayexp.series import derived_series, quotient_context
from cayexp.spectra import dense_lambda2, seed_body


def carriers():
    s4 = derived_series(catalog.s4())
    return {
        "A5": PermCarrier.of(catalog.a5()),
        # S4 over V4, its derived term 2: order 6
        "S4/V4": QuotientCarrier(quotient_context(s4.terms[0], s4.terms[2])),
    }


CARRIERS = carriers()


def pairs_of(carrier, seed):
    """Random symmetric (element, multiplicity) pairs, identity included."""
    rng = random.Random(seed)
    els = elements(carrier)
    out = [(els[0], rng.randint(1, 3))]
    for e in rng.sample(els[1:], min(4, len(els) - 1)):
        m = rng.randint(1, 3)
        out += [(e, m), (elem_inv(carrier, e), m)]
    return out


def count_perms(monkeypatch) -> list:
    made = []
    init = Perm.__init__

    def counting(self, img):
        made.append(1)
        init(self, img)

    monkeypatch.setattr(Perm, "__init__", counting)
    return made


def holds_rows(ms, carrier) -> bool:
    degree = carrier.degree
    return (ms.space is carrier and ms.codes.ndim == 2
            and ms.codes.shape == (ms.support, degree)
            and not ms.codes.flags.writeable)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_carrier_outputs_hold_rows(name, monkeypatch):
    carrier = CARRIERS[name]
    twin = multiset(pairs_of(carrier, 1), cert=0.5)
    rows = carrier.codes(twin)
    order = np.random.default_rng(2).permutation(len(rows))
    made = count_perms(monkeypatch)
    coded = carrier.from_codes(rows, twin.mult_array(), cert=0.5)
    tallied = carrier.tally(np.concatenate((rows[order], rows)),
                            np.concatenate((twin.mult_array()[order],
                                            twin.mult_array())), cert=0.5)
    square = square_multiset(carrier, coded)
    for ms in (coded, tallied, square):
        assert holds_rows(ms, carrier)
        assert carrier.codes(ms) is ms.codes
    assert carrier.is_symmetric(square)
    assert made == []
    monkeypatch.undo()
    assert coded == twin and tallied == twin.scaled(2)
    assert square == square_multiset(carrier, twin)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_rows_agree_with_pairs(name):
    carrier = CARRIERS[name]
    for seed in range(3):
        twin = multiset(pairs_of(carrier, seed), cert=0.25)
        ms = carrier.tally(carrier.codes(twin), twin.mult_array(), cert=0.25)
        # the pairs' rows are stored by degree alone and pass to the carrier
        assert ms.space is carrier and twin.space is not carrier
        assert carrier.codes(twin) is twin.codes
        assert ms == twin and hash(ms) == hash(twin)
        assert ms.elems == twin.elems and ms.mults == twin.mults
        assert seed_body(ms) == seed_body(twin)
        degree = len(twin.elems[0].img)
        assert format_perm_multiset(ms, degree) == \
            format_perm_multiset(twin, degree)
        assert ms.coordinates().tolist() == [list(e.img) for e in twin.elems]


def test_measurement_decodes_no_rows(monkeypatch):
    carrier = CARRIERS["A5"]
    twin = multiset(pairs_of(carrier, 4))
    ms = carrier.tally(carrier.codes(twin), twin.mult_array())
    made = count_perms(monkeypatch)
    assert multiset_order_check(carrier, ms)
    lam = dense_lambda2(carrier, ms)
    assert made == [] and ms._elems is None
    monkeypatch.undo()
    assert lam == dense_lambda2(carrier, twin)


def test_rows_pass_between_carriers_of_one_degree():
    a5 = CARRIERS["A5"]
    s5 = PermCarrier.of(catalog.s5())
    twin = multiset(pairs_of(a5, 5))
    ms = a5.tally(a5.codes(twin), twin.mult_array())
    assert s5.codes(ms) is ms.codes
    assert dense_lambda2(s5, ms) == dense_lambda2(s5, twin)
    # the quotient's rows pass to its parent group
    quo = CARRIERS["S4/V4"]
    qms = quo.tally(quo.codes(elements(quo)))
    assert PermCarrier(quo.ctx.parent).codes(qms) is qms.codes


def test_other_degree_raises():
    a5 = CARRIERS["A5"]
    twin = multiset(pairs_of(a5, 6))
    ms = a5.tally(a5.codes(twin), twin.mult_array())
    s4 = PermCarrier.of(catalog.s4())
    with pytest.raises(DegreeMismatch):
        s4.codes(ms)
    with pytest.raises(DegreeMismatch):
        s4.is_symmetric(ms)


def test_vector_carrier_refuses_rows():
    # a (k, 5) row array must not be read as k-by-5 vector codes
    a5 = CARRIERS["A5"]
    ms = a5.tally(a5.codes(elements(a5)[:4]))
    vec = VectorCarrier((5,) * 5)
    with pytest.raises(ValueError):
        vec.codes(ms)
    assert not multiset_order_check(vec, ms)
