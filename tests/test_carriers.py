"""The index-native permutation and quotient carriers against Perm-loop
oracles."""

import gc
import math
import os
import random
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import (CATALOG_GROUPS, canonicalize, elements,
                     transversal_elements)

from cayexp import carriers, catalog
from cayexp.bsgs import BSGS
from cayexp.carriers import MethodCapacityError, PermCarrier, QuotientCarrier
from cayexp.combine import square_multiset
from cayexp.general import general_expander
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
    oracle = sorted(transversal_elements(carrier.parent))
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
def test_action_tables_span_several_chunks(monkeypatch, name, support):
    # above the cut-over the tables are searched per support, in chunks
    monkeypatch.setattr(carriers, "DENSE_CAP", 0)
    carrier = PermCarrier.of(GROUPS[name]())
    oracle = sorted(transversal_elements(carrier.parent))
    index = {p: i for i, p in enumerate(oracle)}
    rng = random.Random(4)
    ms = multiset([(p, rng.randint(1, 3))
                   for p in rng.sample(oracle, support)])
    assert ms.support > carriers._CHUNK_ENTRIES // carrier.order
    tables, _ = carrier.action_tables(ms)
    expected = [[index[e * s] for e in oracle] for s in ms.elems]
    assert tables.tolist() == expected
    assert "_cayley" not in carrier.__dict__


# groups on either side of the Cayley-table cut-over: every catalog group,
# byte row keys and the trivial group (and the quotients below)
CUT_OVER = {name: getattr(catalog, name) for name in CATALOG_GROUPS}
CUT_OVER.update({"Z2^9 on 300": GROUPS["Z2^9 on 300"],
                 "trivial": lambda: GenSet(3, ())})


# dense proper quotients H/N: H and the derived-series term of N
QUOTIENT_TERMS = {"S4/V4": (catalog.s4, 2), "A4/V4": (catalog.a4, 1),
                  "Syl2(S8)/Syl2(S8)'": (catalog.sylow2_s8, 1)}


def cut_over_carrier(name):
    """A fresh carrier: it has built no tables yet. ``PermCarrier.of``
    keeps a group's carrier on the ``GenSet`` object, so the group is built
    anew on every call: a carrier taken under a patched ``DENSE_CAP`` or
    ``TABLE_CAP`` must not be one an earlier call has filled."""
    if name in QUOTIENT_TERMS:
        group, term = QUOTIENT_TERMS[name]
        chain = derived_series(group())
        return quotient_context(chain.terms[0], chain.terms[term])
    return PermCarrier.of(CUT_OVER[name]())


@pytest.mark.parametrize("name", sorted(CUT_OVER) + sorted(QUOTIENT_TERMS))
def test_cayley_table_rows_equal_support_search(monkeypatch, name):
    # up to DENSE_CAP the tables are rows of the carrier's one int32 Cayley
    # table, above it a search per support row: the same indices either way;
    # the table composed from the generators' rows is the order^2 search of
    # every product e_i * e_j, entry for entry
    below = cut_over_carrier(name)
    ms = sample_multiset(elements(below), 2, k=4)
    tables, weights = below.action_tables(ms)
    assert tables.dtype == np.int32
    assert np.array_equal(below._cayley, below._products(
        below.image_rows(slice(None)), np.int32))
    monkeypatch.setattr(carriers, "DENSE_CAP", below.order - 1)
    above = cut_over_carrier(name)
    searched, same = above.action_tables(ms)
    assert "_cayley" not in above.__dict__
    assert searched.dtype == np.int64
    assert np.array_equal(tables, searched)
    assert np.array_equal(weights, same)


def test_general_expander_searches_one_cayley_table(monkeypatch):
    # A5's carrier searches its elements once for the rows of its two
    # generators, from which it composes its whole Cayley table; every other
    # search is a lookup of a multiset's support
    found, looked_up, products = [], [], []
    find, indices, table = (QuotientCarrier._find, QuotientCarrier._indices,
                            QuotientCarrier._products)

    def spy_find(self, cols):
        found.append(len(cols))
        return find(self, cols)

    def spy_indices(self, items):
        out = indices(self, items)
        looked_up.append(len(out))
        return out

    def spy_products(self, sup, dtype):
        products.append((self.order, len(sup)))
        return table(self, sup, dtype)

    monkeypatch.setattr(QuotientCarrier, "_find", spy_find)
    monkeypatch.setattr(QuotientCarrier, "_indices", spy_indices)
    monkeypatch.setattr(QuotientCarrier, "_products", spy_products)
    out = general_expander(catalog.a5(), 1 / 16)
    assert out.cert <= 1 / 16
    assert products == [(60, 2)]
    assert len(looked_up) > 1
    assert sum(found) == 2 * 60 + sum(looked_up)


OUTSIDE = "outside the group"


def test_foreign_element_raises():
    carrier = PermCarrier.of(catalog.a5())
    odd = parse_perm("(1 2)", 5)
    with pytest.raises(ValueError, match=OUTSIDE):
        carrier._indices([odd])
    with pytest.raises(ValueError, match=OUTSIDE):
        carrier.action_tables(multiset([(odd, 1)]))


def test_foreign_element_with_matching_base_images_raises():
    # <(1 2)> on 3 points has base [0]; (2 3) fixes it like the identity
    carrier = PermCarrier.of(GenSet(3, (parse_perm("(1 2)", 3),)))
    with pytest.raises(ValueError, match=OUTSIDE):
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


def test_of_is_the_groups_one_carrier():
    # kept on the GenSet object itself: an equal but distinct one gets its
    # own, and nothing outside the group keeps the carrier alive
    g = catalog.a5()
    carrier = PermCarrier.of(g)
    assert PermCarrier.of(g) is carrier
    twin = catalog.a5()
    assert twin == g and hash(twin) == hash(g)
    assert PermCarrier.of(twin) is not carrier
    carrier.action_tables(multiset([(Perm.identity(5), 1)]))
    ref = weakref.ref(carrier)
    del g, carrier
    gc.collect()
    assert ref() is None


def test_derived_series_starts_from_the_groups_carrier(monkeypatch):
    # A5 is perfect: its commutator subgroup is grown by BSGS.adjoin to all
    # of A5, on a chain of its own; the carrier's chain is term 0, unchanged
    adjoined = []
    adjoin = BSGS.adjoin

    def spy(self, p):
        adjoined.append(self)
        return adjoin(self, p)

    monkeypatch.setattr(BSGS, "adjoin", spy)
    g = catalog.a5()
    chain = derived_series(g)
    assert chain.orders == (60,) and adjoined
    carrier = PermCarrier.of(g)
    assert carrier.parent is chain.terms[0]
    assert all(b is not carrier.parent for b in adjoined)
    assert carrier.order == carrier.parent.order() == 60


def test_shared_tables_are_read_only():
    # every holder of the group's carrier reads the same arrays, so an
    # in-place write into any of them raises
    carrier = PermCarrier.of(catalog.a5())
    carrier.action_tables(multiset([(Perm.identity(5), 1)]))
    shared = [*carrier._table, carrier._cayley]
    for lv in carrier.parent.levels:
        shared += [lv.points, lv.rows]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


@pytest.mark.parametrize("dense", [True, False])
def test_tables_handed_out_are_the_callers(monkeypatch, dense):
    # action_tables and image_rows return arrays the caller may write
    # into; doing so changes nothing the carrier keeps
    if not dense:
        monkeypatch.setattr(carriers, "DENSE_CAP", 0)
    carrier = PermCarrier.of(catalog.a5())
    ms = sample_multiset(elements(carrier), 3)
    tables, _ = carrier.action_tables(ms)
    rows = [carrier.image_rows(slice(None)), carrier.image_rows([0, 1]),
            carrier.image_rows(np.arange(3))]
    before = [tables.copy()] + [r.copy() for r in rows]
    for a in [tables] + rows:
        assert a.flags.writeable
        a[...] = 0
    assert np.array_equal(carrier.action_tables(ms)[0], before[0])
    assert np.array_equal(carrier.image_rows(slice(None)), before[1])
    assert np.array_equal(carrier.image_rows([0, 1]), before[2])


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
    carrier = quotient_context(chain.terms[0], chain.terms[term])
    parent = transversal_elements(carrier.parent)
    oracle = sorted({canonicalize(carrier, p) for p in parent})
    assert elements(carrier) == oracle
    assert carrier.order == len(oracle)
    index = {p: i for i, p in enumerate(oracle)}
    # the support may hold any parent elements, not only representatives
    ms = sample_multiset(parent, 5, k=6).with_cert(0.5)
    tables, weights = carrier.action_tables(ms)
    assert tables.tolist() == [[index[canonicalize(carrier, e * s)]
                                for e in oracle] for s in ms.elems]
    assert weights.tolist() == [m / ms.total for m in ms.mults]
    acc = {}
    for x, wx in ms.pairs():
        for y, wy in ms.pairs():
            z = canonicalize(carrier, x * y)
            acc[z] = acc.get(z, 0) + wx * wy
    assert square_multiset(carrier, ms) == multiset(acc.items(), cert=0.25)
    if term == len(chain.terms) - 1:
        # G/1 numbers G by its transversals: PermCarrier's tables, bit for bit
        group = PermCarrier(carrier.parent)
        for mine, theirs in zip(carrier._table, group._table):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        assert np.array_equal(tables, group.action_tables(ms)[0])


def test_quotient_membership_is_parent_membership():
    chain = derived_series(catalog.a4())
    carrier = quotient_context(chain.terms[0], chain.terms[1])
    inside = multiset([(p, 1) for p in transversal_elements(carrier.parent)])
    assert len(carrier._indices(inside)) == 12
    odd = parse_perm("(1 2)", 4)
    with pytest.raises(ValueError, match=OUTSIDE):
        carrier._indices(multiset([(odd, 1)]))
    with pytest.raises(ValueError, match=OUTSIDE):
        carrier.action_tables(multiset([(odd, 1)]))
    # (3 4) fixes A4's base points 1 and 2, so its key is the identity's:
    # only the full rows tell it from A4's elements
    whole = quotient_context(chain.terms[0], chain.terms[-1])
    swap = multiset([(parse_perm("(3 4)", 4), 1)])
    assert whole._table[1][0].tolist() == \
        swap.codes[0, whole._key_points].tolist()
    with pytest.raises(ValueError, match=OUTSIDE):
        whole._indices(swap)
    with pytest.raises(ValueError, match=OUTSIDE):
        whole.action_tables(swap)


def test_quotient_capacity_error_on_own_order(monkeypatch):
    # the cap applies to the quotient's own order, not to its parent's: S4/V4
    # (order 6) builds its tables under a cap below |S4| = 24, S4/1 does not
    chain = derived_series(catalog.s4())
    monkeypatch.setattr(carriers, "TABLE_CAP", 20)
    carrier = quotient_context(chain.terms[0], chain.terms[2])
    assert carrier.order == 6
    assert len(elements(carrier)) == 6
    tables, _ = carrier.action_tables(multiset([(Perm.identity(4), 1)]))
    assert tables.tolist() == [list(range(6))]
    whole = quotient_context(chain.terms[0], chain.terms[-1])
    assert whole.order == 24
    with pytest.raises(MethodCapacityError):
        elements(whole)
    with pytest.raises(MethodCapacityError):
        whole.action_tables(multiset([(Perm.identity(4), 1)]))


def test_tracer_counts_each_carrier_apart():
    # perfbench's tracer wraps action_tables in each class's own __dict__:
    # a call on a PermCarrier, a QuotientCarrier subclass, must count under
    # PermCarrier alone. A fresh process keeps the wrappers out of this one.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    code = textwrap.dedent(f"""
        import importlib.util
        from cayexp import catalog
        from cayexp.carriers import PermCarrier
        from cayexp.multiset import multiset
        from cayexp.perm import Perm
        from cayexp.series import derived_series, quotient_context
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", {str(tracer)!r})
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        t = mod.Tracer()
        t.install()
        chain = derived_series(catalog.s4())
        ms = multiset([(Perm.identity(4), 1)])
        PermCarrier(chain.terms[0]).action_tables(ms)
        quotient_context(chain.terms[0], chain.terms[2]).action_tables(ms)
        spans = t.summary()["spans"]
        print(spans["carriers.PermCarrier.action_tables"]["calls"],
              spans["carriers.QuotientCarrier.action_tables"]["calls"])
    """)
    src = str(Path(carriers.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1"]
