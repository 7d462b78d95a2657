"""The index-native permutation and quotient carriers against Perm-loop
oracles."""

import math
import random

import pytest

from helpers import canonicalize, elements, transversal_elements

from cayexp import carriers, catalog
from cayexp.carriers import (MethodCapacityError, PermCarrier, QuotientCarrier,
                             multiset_order_check)
from cayexp.combine import square_multiset
from cayexp.multiset import multiset
from cayexp.perm import DegreeMismatch, GenSet, Perm, parse_perm
from cayexp.series import derived_series, quotient_context


def z2_power(k: int, degree: int) -> GenSet:
    """Z_2^k as k disjoint transpositions (i, degree - 1 - i)."""
    gens = tuple(Perm.from_cycles(degree, [(i, degree - 1 - i)])
                 for i in range(k))
    return GenSet(degree, gens)


GROUPS = {
    "S4": catalog.s4,
    "D8": catalog.d8,
    "Q8": catalog.q8,
    "A5": catalog.a5,
    "A6": catalog.a6,
    # 9 base points of 8 bits each do not fit an int64 key
    "Z2^9 on 200": lambda: z2_power(9, 200),
    # images above 255 need two-byte keys
    "Z2^9 on 300": lambda: z2_power(9, 300),
}

# dtype kind of the lookup keys: "i" packed int64, "V" big-endian bytes
KEY_KIND = {"S4": "i", "D8": "i", "Q8": "i", "A5": "i", "A6": "i",
            "Z2^9 on 200": "V", "Z2^9 on 300": "V"}


def sample_multiset(els, seed, k=5):
    rng = random.Random(seed)
    pick = rng.sample(els, min(k, len(els)))
    return multiset([(p, rng.randint(1, 4)) for p in pick]
                    + [(p.inv(), 1) for p in pick])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_matches_perm_loop_oracle(name):
    g = GROUPS[name]()
    carrier = PermCarrier.of(g)
    oracle = sorted(transversal_elements(carrier.bsgs))
    assert elements(carrier) == oracle
    assert carrier._table[2].dtype.kind == KEY_KIND[name]
    index = {p: i for i, p in enumerate(oracle)}
    assert carrier._indices(oracle).tolist() == list(range(len(oracle)))
    assert list(carrier.decode(carrier.image_rows([3 % len(oracle), 0]))) \
        == [oracle[3 % len(oracle)], oracle[0]]
    ms = sample_multiset(oracle, 1)
    tables, weights = carrier.action_tables(ms)
    expected = [[index[e * s] for e in oracle] for s in ms.elems]
    assert tables.tolist() == expected
    assert weights.tolist() == [m / ms.total for m in ms.mults]


@pytest.mark.parametrize("name,support", [
    ("A6", 360),            # integer keys, the whole group as support
    ("Z2^9 on 300", 260),   # byte keys, two full chunks and a short one
])
def test_action_tables_span_several_chunks(name, support):
    carrier = PermCarrier.of(GROUPS[name]())
    oracle = sorted(transversal_elements(carrier.bsgs))
    index = {p: i for i, p in enumerate(oracle)}
    rng = random.Random(4)
    ms = multiset([(p, rng.randint(1, 3))
                   for p in rng.sample(oracle, support)])
    assert ms.support > carriers._CHUNK_ENTRIES // carrier.order
    tables, _ = carrier.action_tables(ms)
    expected = [[index[e * s] for e in oracle] for s in ms.elems]
    assert tables.tolist() == expected


def test_foreign_element_raises():
    carrier = PermCarrier.of(catalog.a5())
    odd = parse_perm("(1 2)", 5)
    with pytest.raises(KeyError):
        carrier._indices([odd])
    with pytest.raises(KeyError):
        carrier.action_tables(multiset([(odd, 1)]))


def test_foreign_element_with_matching_base_images_raises():
    # <(1 2)> on 3 points has base [0]; (2 3) fixes it like the identity
    carrier = PermCarrier.of(GenSet(3, (parse_perm("(1 2)", 3),)))
    with pytest.raises(KeyError):
        carrier._indices([parse_perm("(2 3)", 3)])


def test_degree_mismatch_raises():
    carrier = PermCarrier.of(catalog.s4())
    wrong = parse_perm("(1 2)", 5)
    with pytest.raises(DegreeMismatch):
        carrier._indices([wrong])
    with pytest.raises(DegreeMismatch):
        carrier.action_tables(multiset([(wrong, 1)]))


def test_capacity_error_before_enumeration(monkeypatch):
    monkeypatch.setattr(carriers, "TABLE_CAP", 100)
    carrier = PermCarrier.of(catalog.s5())
    with pytest.raises(MethodCapacityError):
        elements(carrier)
    with pytest.raises(MethodCapacityError):
        carrier._indices([Perm.identity(5)])


def test_trivial_group():
    carrier = PermCarrier.of(GenSet(3, ()))
    e = Perm.identity(3)
    assert elements(carrier) == [e]
    tables, _ = carrier.action_tables(multiset([(e, 2)]))
    assert tables.tolist() == [[0]]


def naive_square(ms):
    acc = {}
    for x, wx in ms.pairs():
        for y, wy in ms.pairs():
            acc[x * y] = acc.get(x * y, 0) + wx * wy
    return multiset(acc.items())


@pytest.mark.parametrize("name", ["S4", "D8", "A5", "Z2^9 on 300"])
def test_square_multiset_matches_dict_convolution(name):
    carrier = PermCarrier.of(GROUPS[name]())
    ms = sample_multiset(elements(carrier), 2, k=8).with_cert(0.5)
    out = square_multiset(carrier, ms)
    assert out == naive_square(ms).with_cert(0.25)


def test_square_multiset_exact_beyond_int64():
    carrier = PermCarrier.of(catalog.s4())
    ms = sample_multiset(elements(carrier), 3, k=6)
    big = multiset([(e, m * (1 << 40) + 1) for e, m in ms.pairs()])
    assert big.total ** 2 >= 2**63
    out = square_multiset(carrier, big)
    assert out == naive_square(big)
    assert out.total == big.total ** 2
    assert all(type(m) is int for m in out.mults)


def test_square_multiset_int64_edge():
    # the largest total whose square stays below 2**63 takes the int64 path
    carrier = PermCarrier.of(catalog.s4())
    t = parse_perm("(1 2)", 4)
    total = math.isqrt(2**63 - 1)
    ms = multiset([(t, total)])
    out = square_multiset(carrier, ms)
    assert out.elems == (Perm.identity(4),)
    assert out.mults == (total * total,)


# G/G_i for every term G_i of the derived series: G_0 = G gives the trivial
# quotient, the last (trivial) term the trivial kernel
QUOTIENTS = [(name, i) for name, g in (("S4", catalog.s4),
                                       ("Syl2(S8)", catalog.sylow2_s8))
             for i in range(len(derived_series(g()).groups))]


@pytest.mark.parametrize("name,term", QUOTIENTS)
def test_quotient_matches_canonical_rep_oracle(name, term):
    g = {"S4": catalog.s4, "Syl2(S8)": catalog.sylow2_s8}[name]()
    chain = derived_series(g)
    ctx = quotient_context(chain.terms[0], chain.terms[term])
    carrier = QuotientCarrier(ctx)
    parent = transversal_elements(ctx.parent)
    oracle = sorted({canonicalize(ctx, p) for p in parent})
    assert elements(carrier) == oracle
    assert carrier.order == len(oracle)
    index = {p: i for i, p in enumerate(oracle)}
    # the support may hold any parent elements, not only representatives
    ms = sample_multiset(parent, 5, k=6).with_cert(0.5)
    tables, weights = carrier.action_tables(ms)
    assert tables.tolist() == [[index[canonicalize(ctx, e * s)]
                                for e in oracle] for s in ms.elems]
    assert weights.tolist() == [m / ms.total for m in ms.mults]
    acc = {}
    for x, wx in ms.pairs():
        for y, wy in ms.pairs():
            z = canonicalize(ctx, x * y)
            acc[z] = acc.get(z, 0) + wx * wy
    assert square_multiset(carrier, ms) == multiset(acc.items(), cert=0.25)


def test_quotient_membership_is_parent_membership():
    chain = derived_series(catalog.a4())
    ctx = quotient_context(chain.terms[0], chain.terms[1])
    carrier = QuotientCarrier(ctx)
    inside = multiset([(p, 1) for p in transversal_elements(ctx.parent)])
    assert multiset_order_check(carrier, inside)
    odd = parse_perm("(1 2)", 4)
    assert not multiset_order_check(carrier, multiset([(odd, 1)]))
    with pytest.raises(KeyError):
        carrier.action_tables(multiset([(odd, 1)]))
    # (3 4) fixes A4's base points 1 and 2, so its key is the identity's:
    # only the full rows tell it from A4's elements
    whole = QuotientCarrier(quotient_context(chain.terms[0],
                                             chain.terms[-1]))
    swap = multiset([(parse_perm("(3 4)", 4), 1)])
    assert whole._table[1][0].tolist() == \
        swap.codes[0, whole._key_points].tolist()
    assert not multiset_order_check(whole, swap)
    with pytest.raises(KeyError):
        whole.action_tables(swap)


def test_quotient_capacity_error_on_own_order(monkeypatch):
    # the cap applies to the quotient's own order, not to its parent's: S4/V4
    # (order 6) builds its tables under a cap below |S4| = 24, S4/1 does not
    chain = derived_series(catalog.s4())
    monkeypatch.setattr(carriers, "TABLE_CAP", 20)
    carrier = QuotientCarrier(quotient_context(chain.terms[0],
                                               chain.terms[2]))
    assert carrier.order == 6
    assert len(elements(carrier)) == 6
    tables, _ = carrier.action_tables(multiset([(Perm.identity(4), 1)]))
    assert tables.tolist() == [list(range(6))]
    whole = QuotientCarrier(quotient_context(chain.terms[0],
                                             chain.terms[-1]))
    assert whole.order == 24
    with pytest.raises(MethodCapacityError):
        elements(whole)
    with pytest.raises(MethodCapacityError):
        whole.action_tables(multiset([(Perm.identity(4), 1)]))
