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

from helpers import psi_to_fields, ref_map_elems, symmetric_by_elements

from cayexp import catalog
from cayexp.abexp import final_R
from cayexp.carriers import AbelianShape, PermCarrier, VectorCarrier
from cayexp.combine import (_pair_units, _trim_support, compact,
                            measure_exact, square_multiset)
from cayexp.epsbias import BiasSpace, _crt_digits, format_bias_space
from cayexp.fields import field_pow, inner_product
from cayexp.multiset import (Multiset, NonSymmetricError,
                             format_vector_multiset, multiset,
                             parse_vector_multiset)
from cayexp.perm import DegreeMismatch, Perm
from cayexp.spectra import instance_seed, seed_body


# ---------------------------------------------------------------------------
# oracles: the tuple loops

def oracle_trim(carrier, ms, k, seeded=False):
    units = []
    seen = set()
    for e, m in ms.pairs():
        if e in seen:
            continue
        f = carrier.inv(e)
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
    if ms.total <= target_total:
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
    out = Multiset(ms.elems, tuple(max(1, round(m * scale))
                                   for m in ms.mults)).gcd_reduced()
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
        pairs += [(e, m), (carrier.inv(e), m)]
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
    els = c.elements()
    cases.append(("perm symmetric", c,
                  symmetric(c, rng.sample(els, 8), rng)))
    cases.append(("perm non-symmetric", c, multiset(
        [(e, rng.randint(1, 4)) for e in rng.sample(els, 12)])))
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
        ms = multiset([((1, 1), 1), (bad, 1)])
        with pytest.raises(ValueError):
            carrier.codes(ms.elems)
        with pytest.raises(ValueError):
            _pair_units(carrier, ms)
    with pytest.raises(ValueError):
        carrier.codes(((1, 1), (1, 1, 1)))


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
        [list(carrier.inv(e)) for e in elems]
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
            acc[carrier.mul(x, y)] += wx * wy
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


def oracle_vector_text(ms, shape):
    lines = ["shape " + " ".join(f"{p}^{e}:{n}" for p, e, n in shape.factors)]
    for v, m in ms.pairs():
        lines.append(f"{m} {','.join(str(c) for c in v)}")
    return "\n".join(lines) + "\n"


def oracle_seed_body(ms):
    return "".join(repr((tuple(e), m)) for e, m in ms.pairs()).encode()


def coded_multiset(carrier, count, rng, big=False):
    """A code-storage multiset of random distinct elements (weights above
    2^63 when big) and its tuple-built twin."""
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


@pytest.mark.parametrize("factors", [((2, 1, 4),), ((7, 1, 1),),
                                     ((2, 1, 2), (5, 1, 2)),
                                     ((2, 4, 2), (3, 1, 3)),
                                     ((2, 1, 3), (1009, 1, 7))])
@pytest.mark.parametrize("big", [False, True])
def test_vector_text_matches_tuple_loop(factors, big):
    rng = random.Random(len(factors) + big)
    shape = AbelianShape(factors)
    carrier = VectorCarrier.of(shape)
    ms, twin = coded_multiset(carrier, 30, rng, big)
    if big:
        assert ms.total >= 2**63 and ms.mult_array().dtype == object
    text = oracle_vector_text(twin, shape)
    assert format_vector_multiset(ms, shape) == text
    assert format_vector_multiset(twin, shape) == text
    assert seed_body(ms) == oracle_seed_body(twin)
    assert parse_vector_multiset(text) == (shape, twin.with_cert(None))


def test_code_and_tuple_storage_compare_by_element():
    rng = random.Random(11)
    carrier = VectorCarrier((3, 4, 5))
    ms, twin = coded_multiset(carrier, 25, rng)
    assert ms.space is not None and twin.space is None
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
    c5, t5 = Perm((1, 2, 0, 4, 3)), Perm((1, 0, 2, 3, 4))
    for ms in (multiset([(c5, 1), (c5.inv(), 1)]),
               multiset([(c5, 1), (c5.inv(), 2)]),
               multiset([(t, 1), (t5, 1)])):
        with pytest.raises(DegreeMismatch):
            carrier.is_symmetric(ms)


@pytest.mark.parametrize("coded", [False, True])
def test_proportional_reweight_matches_round_loop(coded):
    # scale 1/2 puts every odd multiplicity on a tie; 2^53 + 1 and 2^60 + 3
    # round on their conversion to float
    carrier = VectorCarrier((8, 8))
    mults = [1, 3, 5, 7, 9, 11, 2**53 + 1, 2**60 + 3]
    elems = [(1, 0), (7, 0), (0, 1), (0, 7), (2, 3), (6, 5), (4, 4), (3, 1)]
    ms = multiset(zip(elems, mults))
    if coded:
        ms = carrier.from_codes(carrier.codes(ms), ms.mult_array())
    target = ms.total // 2 + (ms.total % 2)
    got = compact(carrier, ms, target)
    want = oracle_compact(carrier, ms, target)
    assert (got.elems, got.mults, got.cert) == \
        (want.elems, want.mults, want.cert)
    assert got.mults != ms.gcd_reduced().mults


def test_proportional_reweight_of_python_int_multiplicities():
    carrier = VectorCarrier((8,))
    ms = multiset([((1,), 2**64 + 1), ((7,), 2**64 + 1), ((4,), 3)])
    assert ms.mult_array().dtype == object
    got = compact(carrier, ms, 1000)
    want = oracle_compact(carrier, ms, 1000)
    assert (got.elems, got.mults, got.cert) == \
        (want.elems, want.mults, want.cert)
