"""Integer-code paths of vector multisets against tuple-loop oracles.

Vector multisets are paired, trimmed, squared, recombined and deduplicated
as mixed-radix codes; each oracle here is the element-by-element tuple loop
that the code path must reproduce exactly.
"""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from helpers import (elem_inv, elem_mul, elements, field_pow, inner_product,
                     psi_to_fields, ref_map_elems, symmetric_by_elements)

from cayexp import catalog
from cayexp.abexp import final_R
from cayexp.carriers import PermCarrier, VectorCarrier
from cayexp.combine import (_pair_units, _trim_support, compact,
                            measure_exact, square_multiset)
from cayexp.epsbias import (BiasSpace, _crt_digits, format_bias_space,
                            zdn_bias_space)
from cayexp.multiset import NonSymmetricError, format_rows, multiset
from cayexp.perm import DegreeMismatch, Perm
from cayexp.series import derived_series, quotient_context
from cayexp.spectra import (exact_method, instance_seed, second_eigenvalue,
                            seed_body)


# ---------------------------------------------------------------------------
# oracles: the tuple loops

def oracle_trim(carrier, ms, k, seeded=False):
    units = []
    seen = set()
    for e, m in ms.pairs():
        if e in seen:
            continue
        f = elem_inv(carrier, e)
        seen.add(e)
        seen.add(f)
        units.append((-m, e, (e,) if f == e else (e, f)))
    units.sort(key=lambda u: (u[0], u[1]))
    if seeded:
        h = hashlib.sha256()
        h.update(repr((k,)).encode())
        for e, m in ms.pairs():
            elem = e.img if isinstance(e, Perm) else tuple(e)
            h.update(repr((elem, m)).encode())
        rng = np.random.default_rng(int.from_bytes(h.digest()[:8], "big"))
        units = [units[i] for i in rng.permutation(len(units))]
    kept = []
    total = 0
    for _, _, elems in units:
        if total >= k:
            break
        kept.extend(elems)
        total += len(elems)
    return multiset([(e, 1) for e in kept])


def oracle_compact(carrier, ms, target_total, target_cert=None):
    ms = ms.gcd_reduced()
    if ms.total <= target_total or exact_method(carrier) is None:
        return ms
    accept = target_cert if target_cert is not None else ms.cert
    if ms.support > target_total:
        budget = target_total
        done = False
        while not done and budget < 2 * ms.support:
            for seeded in (False, True):
                trimmed = oracle_trim(carrier, ms, budget, seeded)
                lam = measure_exact(carrier, trimmed)
                if accept is None or lam <= accept:
                    ms = trimmed.with_cert(lam)
                    done = True
                    break
            budget *= 2
    if ms.total <= target_total:
        return ms
    scale = target_total / ms.total
    out = multiset((e, max(1, round(m * scale)))
                   for e, m in ms.pairs()).gcd_reduced()
    lam = measure_exact(carrier, out)
    if accept is not None and lam > accept:
        return ms
    return out.with_cert(lam)


def random_elems(moduli, count, rng, pool=None):
    if pool is not None:
        return [tuple(rng.choice(c) for c in pool) for _ in range(count)]
    return [tuple(rng.randrange(m) for m in moduli) for _ in range(count)]


def symmetric(carrier, elems, rng):
    pairs = []
    for e in elems:
        m = rng.randint(1, 5)
        pairs += [(e, m), (elem_inv(carrier, e), m)]
    return multiset(pairs)


def trim_cases():
    rng = random.Random(7)
    cases = []
    for moduli in [(3, 4, 5), (2, 2, 2, 2, 2, 2), (6, 6)]:
        c = VectorCarrier(moduli)
        cases.append((f"symmetric {moduli}", c,
                      symmetric(c, random_elems(moduli, 25, rng), rng)))
        cases.append((f"non-symmetric {moduli}", c, multiset(
            [(e, rng.randint(1, 4)) for e in random_elems(moduli, 30, rng)])))
    # self-inverse elements: every coordinate 0 or m/2
    c = VectorCarrier((2, 4, 6, 8))
    halves = [(0, 1), (0, 2), (0, 3), (0, 4)]
    cases.append(("self-inverse", c, multiset(
        [(e, rng.randint(1, 6))
         for e in random_elems(c.moduli, 20, rng, halves)])))
    cases.append(("self-inverse mixed", c, symmetric(
        c, random_elems(c.moduli, 20, rng, halves)
        + random_elems(c.moduli, 20, rng), rng)))
    for m in (7, 8):
        c = VectorCarrier((m,))
        cases.append((f"width 1, Z{m}", c, multiset(
            [((x,), rng.randint(1, 3)) for x in range(m)])))
        cases.append((f"width 1, Z{m} non-symmetric", c, multiset(
            [((x,), x + 1) for x in range(1, m, 3)])))
    # the element-by-element pairing of the other carriers
    c = PermCarrier.of(catalog.s4())
    els = elements(c)
    cases.append(("perm symmetric", c,
                  symmetric(c, rng.sample(els, 8), rng)))
    cases.append(("perm non-symmetric", c, multiset(
        [(e, rng.randint(1, 4)) for e in rng.sample(els, 12)])))
    # every key kind of the one inverse search: void row keys (Z_30 on 30
    # points), a proper quotient's canonical rows, object vector codes
    c = PermCarrier.of(catalog.cyclic(30))
    assert c.keys(c.codes([c.identity()])).dtype.kind == "V"
    els = elements(c)
    cases.append(("void keys symmetric", c,
                  symmetric(c, rng.sample(els, 8), rng)))
    cases.append(("void keys non-symmetric", c, multiset(
        [(e, rng.randint(1, 4)) for e in rng.sample(els, 12)])))
    s4 = derived_series(catalog.s4())
    c = quotient_context(s4.terms[0], s4.terms[2])
    els = elements(c)
    cases.append(("S4/V4 symmetric", c, symmetric(c, els[1:4], rng)))
    cases.append(("S4/V4 non-symmetric", c, multiset(
        [(e, rng.randint(1, 4)) for e in els[1:5]])))
    c = VectorCarrier((2,) * 70)       # every element self-inverse
    cases.append(("object codes Z2^70", c, multiset(
        [(e, rng.randint(1, 4)) for e in random_elems(c.moduli, 30, rng)])))
    c = VectorCarrier((3,) + (2,) * 69)
    cases.append(("object codes non-symmetric", c, multiset(
        [(e, rng.randint(1, 4)) for e in random_elems(c.moduli, 30, rng)])))
    assert all(ms.codes.dtype == object for _, _, ms in cases[-2:])
    return cases


CASES = trim_cases()


@pytest.mark.parametrize("name,carrier,ms", CASES,
                         ids=[c[0] for c in CASES])
def test_trim_matches_tuple_loop(name, carrier, ms):
    units = _pair_units(carrier, ms)
    body = seed_body(ms)
    for k in sorted({1, 2, 3, 5, ms.support // 2, ms.support,
                     2 * ms.support}):
        for seeded in (False, True):
            got = _trim_support(units, k, body if seeded else None)
            want = oracle_trim(carrier, ms, k, seeded)
            assert got == want, (k, seeded)
            assert got.elems == want.elems and got.mults == want.mults


@pytest.mark.parametrize("name,carrier,ms", CASES,
                         ids=[c[0] for c in CASES])
def test_compact_matches_tuple_loop(name, carrier, ms):
    for target_total, target_cert in [(4, None), (8, 0.9), (16, 0.6),
                                      (ms.support - 1, None)]:
        try:
            want = oracle_compact(carrier, ms, target_total, target_cert)
        except NonSymmetricError:
            # the dense verifier measures symmetric multisets only
            with pytest.raises(NonSymmetricError):
                compact(carrier, ms, target_total, target_cert)
            continue
        got = compact(carrier, ms, target_total, target_cert)
        assert (got.elems, got.mults, got.cert) == \
            (want.elems, want.mults, want.cert)


def test_out_of_range_element_is_rejected():
    carrier = VectorCarrier((4, 4))
    for bad in [(4, 0), (0, -1)]:
        with pytest.raises(ValueError):
            carrier.codes([(1, 1), bad])
    # a multiset cannot hold a negative coordinate; one of 4 is recoded
    # from the multiset's own moduli and refused here
    with pytest.raises(ValueError):
        multiset([((1, 1), 1), ((0, -1), 1)])
    ms = multiset([((1, 1), 1), ((4, 0), 1)])
    with pytest.raises(ValueError):
        carrier.codes(ms.elems)
    with pytest.raises(ValueError):
        carrier.codes(ms)
    with pytest.raises(ValueError):
        _pair_units(carrier, ms)
    with pytest.raises(ValueError):
        carrier.codes(((1, 1), (1, 1, 1)))
    with pytest.raises(ValueError):
        carrier.codes(multiset([((1, 1, 1), 1)]))


def test_seed_body_matches_incremental_hash():
    ms = multiset([((0, 1), 2), ((2, 2), 1), ((1, 0), 5)])
    h = hashlib.sha256()
    h.update(repr((3, 3)).encode())
    for e, m in ms.pairs():
        h.update(repr((e, m)).encode())
    want = int.from_bytes(h.digest()[:8], "big")
    assert instance_seed((3, 3), seed_body(ms)) == want


# ---------------------------------------------------------------------------
# codes themselves

@pytest.mark.parametrize("moduli", [(3, 4, 5), (7,), (1000,) * 7])
def test_code_order_is_tuple_order(moduli):
    rng = random.Random(3)
    carrier = VectorCarrier(moduli)
    elems = sorted(set(random_elems(moduli, 200, rng)))
    codes = carrier.codes(elems)
    if carrier.order >= 2**63:
        assert codes.dtype == object
    assert list(codes) == sorted(codes)
    assert len(set(codes.tolist())) == len(elems)
    assert carrier.unravel(codes).tolist() == [list(e) for e in elems]
    inv = carrier.inv_codes(codes)
    assert carrier.unravel(inv).tolist() == \
        [list(elem_inv(carrier, e)) for e in elems]
    weights = np.array([rng.randint(1, 9) for _ in elems], dtype=np.int64)
    doubled = np.concatenate((codes, codes[::-1]))
    ms = carrier.tally(doubled, np.concatenate((weights, weights[::-1])))
    assert ms == multiset([(e, 2 * int(w)) for e, w in zip(elems, weights)])


def test_square_matches_pairwise_sums():
    rng = random.Random(5)
    carrier = VectorCarrier((3, 4, 6))
    ms = symmetric(carrier, random_elems(carrier.moduli, 10, rng), rng)
    acc = Counter()
    for x, wx in ms.pairs():
        for y, wy in ms.pairs():
            acc[elem_mul(carrier, x, y)] += wx * wy
    sq = square_multiset(carrier, ms)
    assert sq == multiset(acc.items())


# ---------------------------------------------------------------------------
# CRT recombination and final_R deduplication

@pytest.mark.parametrize("d,fac", [(6, [(2, 1), (3, 1)]),
                                   (12, [(2, 2), (3, 1)]),
                                   (60, [(2, 2), (3, 1), (5, 1)])])
def test_crt_array_matches_scalar_formula(d, fac):
    n = 3
    rng = random.Random(d)
    moduli = tuple(p**e for p, e in fac for _ in range(n))
    ms = multiset([(e, rng.randint(1, 4))
                   for e in random_elems(moduli, 60, rng)], cert=0.5)

    def crt_vec(v):
        digits = []
        for i in range(n):
            x = 0
            for jb, (p, e) in enumerate(fac):
                q = p**e
                m = d // q
                x = (x + (v[jb * n + i] % q) * m * pow(m, -1, q)) % d
            digits.append(x)
        return tuple(digits)

    got = _crt_digits(ms, fac, VectorCarrier((d,) * n))
    want = ref_map_elems(ms, crt_vec, cert=ms.cert)
    assert (got.elems, got.mults, got.cert) == \
        (want.elems, want.mults, want.cert)


@pytest.mark.parametrize("n,primes,c", [(3, (2,), 8), (3, (2, 3), 4),
                                        (2, (2, 3), 8), (2, (5,), 8)])
def test_final_r_points_match_row_unique(n, primes, c):
    r = final_R(n, primes, c=c)
    widths = [f.m for f in r.fields]
    rows, weights = [], []
    for x in r.tuples:
        for v, m in r.base.pairs():
            y = psi_to_fields(v, r.fields, widths)
            rows.append([inner_product(field_pow(x[j], ell), y[j])
                         for j in range(len(primes)) for ell in range(n)])
            weights.append(m)
    uniq, inverse = np.unique(np.array(rows), axis=0, return_inverse=True)
    counts = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(counts, inverse.ravel(), weights)
    assert r.points.elems == tuple(tuple(int(c) for c in row)
                                   for row in uniq)
    assert r.points.mults == tuple(int(k) for k in counts)


# ---------------------------------------------------------------------------
# code storage: formats and identity against the tuple loops

def oracle_bias_text(ms):
    lines = []
    for v, m in ms.pairs():
        line = ",".join(str(c) for c in v)
        lines.extend([line] * m)
    return "\n".join(lines) + "\n"


def oracle_vector_text(ms):
    return "".join(f"{m} {','.join(str(c) for c in v)}\n"
                   for v, m in ms.pairs())


def oracle_seed_body(ms):
    return "".join(repr((tuple(e), m)) for e, m in ms.pairs()).encode()


def coded_multiset(carrier, count, rng, big=False):
    """A carrier-built multiset of random distinct elements (weights above
    2^63 when big) and its twin built from pairs."""
    elems = sorted(set(random_elems(carrier.moduli, count, rng)))
    codes = carrier.codes(elems)
    if big:
        weights = np.array([2**63 + rng.randint(0, 9) for _ in elems],
                           dtype=object)
    else:
        weights = np.array([rng.randint(1, 4) for _ in elems],
                           dtype=np.int64)
    order = list(range(len(elems)))
    rng.shuffle(order)
    ms = carrier.tally(codes[order], weights[order], cert=0.5)
    twin = multiset(zip(elems, weights.tolist()), cert=0.5)
    return ms, twin


@pytest.mark.parametrize("d,n", [(2, 5), (7, 3), (10, 2), (12, 3), (12, 1),
                                 (1000, 7)])
def test_bias_text_and_seed_body_match_tuple_loops(d, n):
    rng = random.Random(d * 100 + n)
    carrier = VectorCarrier((d,) * n)
    ms, twin = coded_multiset(carrier, 40, rng)
    assert ms.space is carrier and ms.codes is not None
    if carrier.order >= 2**63:
        assert ms.codes.dtype == object
    for space in (BiasSpace(d, n, ms, 0.5, "test"),
                  BiasSpace(d, n, twin, 0.5, "test")):
        assert format_bias_space(space) == oracle_bias_text(twin)
    assert seed_body(ms) == seed_body(twin) == oracle_seed_body(twin)


@pytest.mark.parametrize("d,n", [(2, 8), (6, 3), (11, 2), (12, 2)])
def test_quarter_bias_space_with_repeated_points(d, n):
    # eps = 1/4 spaces repeat their points: each line is written m times
    space = zdn_bias_space(d, n, 0.25)
    assert max(space.points.mults) > 1
    assert format_bias_space(space) == oracle_bias_text(space.points)


def oracle_rows(template, table):
    return "".join(template % tuple(row) for row in table.tolist())


EDGE_VALUES = [0, 9, 10, 99, 100, 2**53, 2**62]


@pytest.mark.parametrize("template,table", [
    # widths differ within each row and down each column
    ("%d,%d;%d\n", np.array([EDGE_VALUES,
                             EDGE_VALUES[::-1],
                             EDGE_VALUES[3:] + EDGE_VALUES[:3]],
                            dtype=np.int64).T.copy()),
    ("(%d,)", np.array([[v] for v in EDGE_VALUES], dtype=np.int64)),
    ("%d", np.array([[5], [7]], dtype=np.int64)),
    ("((), %d)", np.array([[1], [12], [3]], dtype=np.int64)),
    ("[%d %d]", np.array([[2**63 + k, k] for k in (0, 1, 9, 10, 12345)],
                         dtype=object)),
    ("%d-%d\n", np.zeros((0, 2), dtype=np.int64)),
    ("%d-%d\n", np.zeros((0, 2), dtype=object)),
])
def test_format_rows_matches_percent_formatting(template, table):
    assert format_rows(template, table) == oracle_rows(template, table)


def test_format_rows_random_tables():
    rng = random.Random(14)
    for _ in range(200):
        rows, cols = rng.randint(0, 12), rng.randint(1, 5)
        big = rng.random() < 0.3
        top = 10 ** rng.randint(1, 25) if big else 2**63
        table = np.array([[rng.randrange(rng.choice([1, 10, 1000, top]))
                           for _ in range(cols)] for _ in range(rows)],
                         dtype=object if big else np.int64)
        table = table.reshape(rows, cols)
        template = "".join(rng.choice(["", ",", "(", ", ", ")\n"]) + "%d"
                           for _ in range(cols)) + "\n"
        assert format_rows(template, table) == oracle_rows(template, table)


PADDED = np.arange(121, dtype=np.int64)


@pytest.mark.parametrize("template,table,repeats", [
    # widths 1 to 3 down one column, beside a zero column
    ("%d,%d\n", np.column_stack((PADDED, np.zeros_like(PADDED))),
     np.arange(121) % 7 + 1),
    ("%d;%d\n", np.column_stack((PADDED[::-1], PADDED)),
     np.ones(121, dtype=np.int64)),
    ("%d %d\n", np.column_stack((PADDED, PADDED % 10)),
     np.arange(121) ** 2 + 1),
    ("%d,%d\n", np.array([[0, 120]], dtype=np.int64), np.array([5000])),
    ("%d\n", np.array([[7]], dtype=np.uint8), np.array([1])),
    ("[%d %d]", np.array([[2**63 + k, k] for k in (0, 1, 9, 10, 12345)],
                         dtype=object), np.array([1, 3, 1, 250, 2])),
])
def test_format_rows_repeats_each_formatted_row(template, table, repeats):
    repeated = np.repeat(table, repeats, axis=0)
    want = oracle_rows(template, repeated)
    assert format_rows(template, table, repeats) == want
    assert format_rows(template, repeated) == want


def test_format_rows_random_repeats():
    rng = random.Random(32)
    for _ in range(100):
        rows, cols = rng.randint(1, 12), rng.randint(1, 4)
        table = np.array([[rng.randrange(rng.choice([1, 10, 121, 2**40]))
                           for _ in range(cols)] for _ in range(rows)],
                         dtype=np.int64)
        repeats = np.array([rng.choice([1, 1, 2, 17, 300])
                            for _ in range(rows)])
        template = ",".join(["%d"] * cols) + "\n"
        assert format_rows(template, table, repeats) == \
            oracle_rows(template, np.repeat(table, repeats, axis=0))


@pytest.mark.parametrize("template,table", [
    ("%d,%d\n", np.array([[1, 2], [3, -4]], dtype=np.int64)),
    ("%d\n", np.array([[2**64], [-1]], dtype=object)),
    ("%d,%d\n", np.array([[1]], dtype=np.int64)),
    ("%d%%\n", np.array([[1]], dtype=np.int64)),
])
def test_format_rows_refuses(template, table):
    with pytest.raises(ValueError):
        format_rows(template, table)


@pytest.mark.parametrize("elems", [
    [Perm((1, 2, 0)), Perm((2, 0, 1)), Perm((0, 1, 2))],
    [(3,), (0,), (11,)],
    [()],
    [(0, 10), (12, 1)],
])
def test_seed_body_of_tuple_storage_is_repr(elems):
    # multisets built from pairs; Perms are written as their image tuples
    ms = multiset([(e, 10 ** i + 1) for i, e in enumerate(elems)])
    want = "".join(repr((getattr(e, "img", e), m))
                   for e, m in ms.pairs()).encode()
    assert seed_body(ms) == want


@pytest.mark.parametrize("factors", [((2, 1, 4),), ((7, 1, 1),),
                                     ((2, 1, 2), (5, 1, 2)),
                                     ((2, 4, 2), (3, 1, 3)),
                                     ((2, 1, 3), (1009, 1, 7))])
@pytest.mark.parametrize("big", [False, True])
def test_vector_text_matches_tuple_loop(factors, big):
    rng = random.Random(len(factors) + big)
    # (prime, exponent, copies) per factor
    carrier = VectorCarrier(tuple(p**e for p, e, k in factors
                                  for _ in range(k)))
    ms, twin = coded_multiset(carrier, 30, rng, big)
    if big:
        assert ms.total >= 2**63 and ms.mult_array().dtype == object
    # "<m> <coordinates>" per element, from either storage's arrays
    row = "%d " + ",".join(["%d"] * len(carrier.moduli)) + "\n"
    for stored in (ms, twin):
        table = np.column_stack((stored.mult_array(), stored.coordinates()))
        assert format_rows(row, table) == oracle_vector_text(twin)
    assert seed_body(ms) == oracle_seed_body(twin)


def test_multisets_compare_by_element():
    rng = random.Random(11)
    carrier = VectorCarrier((3, 4, 5))
    ms, twin = coded_multiset(carrier, 25, rng)
    # the pairs are coded over their column-wise maxima plus 1
    assert ms.space is carrier
    assert twin.space.moduli == tuple(
        (twin.coordinates().max(axis=0) + 1).tolist())
    assert ms == twin and hash(ms) == hash(twin)
    assert {ms: 1}[twin] == 1
    assert ms.elems == twin.elems and ms.mults == twin.mults
    assert ms.total == twin.total and ms.support == twin.support
    assert ms != twin.with_cert(0.25)
    assert ms != twin.scaled(2) and ms.scaled(2) != twin
    assert ms.with_cert(0.25) == twin.with_cert(0.25)
    assert ms.scaled(3) == twin.scaled(3)
    assert ms.scaled(3).gcd_reduced() == twin
    # the same pairs in a carrier of other moduli are the same elements
    wide = VectorCarrier((5, 5, 5))
    other = wide.from_codes(wide.codes(ms.elems), ms.mult_array(), cert=0.5)
    assert other == ms and hash(other) == hash(ms)


def test_int64_counts_whose_total_overflows_become_python_ints():
    carrier = VectorCarrier((4,))
    ms = carrier.from_codes(np.array([1, 3]),
                            np.array([2**62, 2**62], dtype=np.int64))
    assert ms.mult_array().dtype == object
    assert ms.total == 2**63
    assert ms.scaled(2).total == 2**64
    assert ms.mults == (2**62, 2**62)


@pytest.mark.parametrize("name,carrier,ms", CASES,
                         ids=[c[0] for c in CASES])
def test_symmetry_in_batch_matches_element_loop(name, carrier, ms):
    want = symmetric_by_elements(carrier, ms)
    assert carrier.is_symmetric(ms) == want
    if isinstance(carrier, VectorCarrier):
        coded = carrier.from_codes(carrier.codes(ms), ms.mult_array())
        assert carrier.is_symmetric(coded) == want


def test_perm_symmetry_needs_no_element_table():
    # symmetric, but outside A4: decided without building A4's table
    carrier = PermCarrier.of(catalog.a4())
    t = Perm((1, 0, 2, 3))
    c = Perm((1, 2, 3, 0))
    assert carrier.is_symmetric(multiset([(t, 2), (c, 1), (c.inv(), 1)]))
    assert not carrier.is_symmetric(multiset([(c, 1), (c.inv(), 2)]))
    assert "_table" not in carrier.__dict__
    # elements of another degree are not coded: they are outside the group
    c5 = Perm((1, 2, 0, 4, 3))
    for ms in (multiset([(c5, 1), (c5.inv(), 1)]),
               multiset([(c5, 1), (c5.inv(), 2)])):
        with pytest.raises(DegreeMismatch):
            carrier.is_symmetric(ms)


def test_quotient_symmetry_needs_paired_positions():
    # the identity and (1 2)(3 4) are two representatives of A4/V4's
    # identity coset: both inverses are found (at the identity) with equal
    # counts, but the positions do not pair, and the stored rows are not
    # inverse-closed
    chain = derived_series(catalog.a4())
    carrier = quotient_context(chain.terms[0], chain.terms[1])
    ms = multiset([(Perm.identity(4), 1), (Perm((1, 0, 3, 2)), 1)])
    assert carrier.inverse_positions(ms)[2].tolist() == [0, 0]
    assert not carrier.is_symmetric(ms)
    assert carrier.is_symmetric(carrier.image_multiset(ms))


def test_proportional_reweight_matches_round_loop():
    # scale 1/2 puts every odd multiplicity on a tie; 2^53 + 1 and 2^60 + 3
    # round on their conversion to float
    carrier = VectorCarrier((8, 8))
    mults = [1, 3, 5, 7, 9, 11, 2**53 + 1, 2**60 + 3]
    elems = [(1, 0), (7, 0), (0, 1), (0, 7), (2, 3), (6, 5), (4, 4), (3, 1)]
    ms = multiset(zip(elems, mults))
    # the pairs' moduli are the carrier's: its codes are handed over
    assert carrier.codes(ms) is ms.codes
    target = ms.total // 2 + (ms.total % 2)
    got = compact(carrier, ms, target)
    want = oracle_compact(carrier, ms, target)
    assert (got.elems, got.mults, got.cert) == \
        (want.elems, want.mults, want.cert)
    assert got.mults != ms.gcd_reduced().mults


def test_proportional_reweight_of_python_int_multiplicities():
    # one float path for int64 and object multiplicities: float(m) * scale
    # rounded half to even is Python's round(m * scale) on every input
    rng = random.Random(11)
    cases = [(VectorCarrier((8,)), multiset(
        [((1,), 2**64 + 1), ((7,), 2**64 + 1), ((4,), 3)]), 1000)]
    for _ in range(40):
        elems = rng.sample(range(16), rng.randint(2, 16))
        cases.append((VectorCarrier((16,)), multiset(
            [((x,), rng.randint(1, 2**rng.randint(1, 100))) for x in elems]
            + [((0,), 2**63)]), rng.randint(256, 2048)))
    for carrier, ms, target in cases:
        assert ms.total >= 2**63 and ms.mult_array().dtype == object
        got = compact(carrier, ms, target)
        want = oracle_compact(carrier, ms, target)
        assert (got.elems, got.mults, got.cert) == \
            (want.elems, want.mults, want.cert)


@pytest.mark.parametrize("width", [63, 64, 65])
def test_codes_wider_than_numpy_index_functions(width):
    # modulus-1 columns keep the order below 2^63 at any width; past
    # numpy's dimension limit the codes come from the column loop, int64
    ms = multiset([((1,) + (0,) * (width - 1), 1)])
    carrier = ms.space
    assert carrier.moduli == (2,) + (1,) * (width - 1)
    assert ms.codes.dtype == np.int64 and ms.codes.tolist() == [1]
    assert ms.elems == ((1,) + (0,) * (width - 1),)
    assert carrier.is_symmetric(ms)
    tables, _ = carrier.action_tables(ms)
    assert tables.tolist() == [[1, 0]]
    wide = VectorCarrier((3,) + (1,) * (width - 1))
    assert wide.codes(ms).tolist() == [1]
    assert wide.inv_codes(wide.codes(ms)).tolist() == [2]
    # the FFTs drop the modulus-1 axes, so the width does not count there
    assert second_eigenvalue(carrier, ms).lambda2 == 1.0
    square = square_multiset(carrier, ms)
    assert square.elems == ((0,) * width,) and square.mults == (1,)
