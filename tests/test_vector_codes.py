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

from cayexp import catalog
from cayexp.abexp import final_R, psi_to_fields
from cayexp.carriers import PermCarrier, VectorCarrier
from cayexp.combine import (_pair_units, _trim_support, compact,
                            measure_exact, square_multiset)
from cayexp.epsbias import _crt_digits
from cayexp.fields import field_pow, inner_product
from cayexp.multiset import Multiset, NonSymmetricError, multiset
from cayexp.perm import Perm
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
    want = ms.map_elems(crt_vec, cert=ms.cert)
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
