"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from helpers import (aux_from_rotation, canonicalize, dense_lambda2_signed,
                     elements, np_closure, np_commutator_closure,
                     random_symmetric_multiset, route_off, rv_composition)

from cayexp import catalog
from cayexp.abexp import final_R, r_carrier
from cayexp.bsgs import schreier_sims
from cayexp.carriers import PermCarrier, VectorCarrier
from cayexp.combine import (aux_family, combine_union, derandomized_square,
                            solvable_expander)
from cayexp.epsbias import verify_bias, zdn_bias_space
from cayexp.general import babai_bound, strong_generator_multiset
from cayexp.multiset import format_perm_multiset, multiset
from cayexp.perm import GenSet, Perm, parse_perm
from cayexp.series import derived_series, dixon_bound, quotient_context
from cayexp.spectra import (bias_exhaustive, dense_lambda2, dense_spectrum,
                            graph_info)

TOL = 1e-9
SPEC_TOL = 1e-6   # quotient spectrum containment


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num} ({name}): PASS {detail}")


# ---------------------------------------------------------------------------
# criterion 1: solvable end-to-end on the named catalog

def test_criterion_1_solvable_end_to_end():
    worst = 0.0
    slowest = 0.0
    for name, fn in catalog.SOLVABLE_CATALOG.items():
        g = fn()
        t0 = time.time()
        ms = solvable_expander(derived_series(g))
        lam = dense_lambda2(PermCarrier.of(g), ms)
        dt = time.time() - t0
        assert lam <= 0.25 + TOL, (name, lam)
        assert dt < 60.0, (name, dt)
        worst = max(worst, lam)
        slowest = max(slowest, dt)
    report(1, "solvable end-to-end",
           f"8 groups, worst lambda2 {worst:.4f}, slowest {slowest:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: main combination lemma, >= 100 instances + U/W geometry

def _normal_pairs():
    s4 = catalog.s4()
    ch4 = derived_series(s4)
    a4, v4 = ch4.groups[1], ch4.groups[2]
    d8 = catalog.d8()
    z12 = catalog.z12()
    x12 = z12.gens[0]
    d12 = catalog.d12()
    rot = d12.gens[0]
    q8 = catalog.q8()
    chq = derived_series(q8)
    s34 = catalog.s3_x_s4()
    ch34 = derived_series(s34)
    syl = catalog.sylow2_s8()
    chs = derived_series(syl)
    pairs = [
        (s4, a4), (s4, v4), (catalog.a4(), v4),
        (d8, GenSet(4, (parse_perm("(1 2 3 4)", 4),))),
        (d8, derived_series(d8).groups[1]),
        (z12, GenSet(7, (x12 ** 2,))), (z12, GenSet(7, (x12 ** 3,))),
        (z12, GenSet(7, (x12 ** 4,))),
        (d12, GenSet(6, (rot,))), (d12, GenSet(6, (rot ** 2,))),
        (q8, chq.groups[1]),
        (s34, ch34.groups[1]),
        (s34, GenSet(7, (parse_perm("(4 5 6 7)", 7),
                         parse_perm("(4 5)", 7)))),
        (syl, chs.groups[1]), (catalog.s3(), derived_series(
            catalog.s3()).groups[1]),
    ]
    return pairs


def _coset_lift_multiset(g, qcar, seed):
    """Representatives of every coset, symmetrized in G (so B-hat generates)."""
    import random
    rng = random.Random(seed)
    els = elements(PermCarrier(qcar.parent))
    reps = {}
    for p in els:
        key = canonicalize(qcar, p)
        reps.setdefault(key, []).append(p)
    pairs = {}
    ident = Perm.identity(qcar.parent.degree)
    for key, bucket in sorted(reps.items()):
        if key == ident:
            continue
        p = rng.choice(bucket)
        pairs[p] = pairs.get(p, 0) + 1
        q = p.inv()
        pairs[q] = pairs.get(q, 0) + 1
    pairs[ident] = pairs.get(ident, 0) + 2
    return multiset(pairs.items())


def _uw_geometry_checks(gcar, qcar, a, b, lam):
    els = elements(gcar)
    n = len(els)
    idx = {p: i for i, p in enumerate(els)}
    coset_of = {}
    for p in els:
        coset_of[idx[p]] = canonicalize(qcar, p)
    cosets = sorted(set(coset_of.values()))
    cidx = {c: j for j, c in enumerate(cosets)}
    k = len(cosets)
    size = n // k
    # dense operators
    import cayexp._kernels as K
    ta, wa = gcar.action_tables(a)
    tb, wb = gcar.action_tables(b)
    ma = K.dense_adjacency(ta, wa, n)
    mb = K.dense_adjacency(tb, wb, n)
    # coset-uniform projector P_U
    e = np.zeros((n, k))
    for i in range(n):
        e[i, cidx[coset_of[i]]] = 1.0
    pu = (e / size) @ e.T
    pw = np.eye(n) - pu
    for m in (ma, mb):
        assert np.linalg.norm(pw @ m @ pu, 2) < TOL
        assert np.linalg.norm(pu @ m @ pw, 2) < TOL
    # orthonormal bases of U \cap 1-perp and of W
    eb = e / math.sqrt(size)
    hq, _ = np.linalg.qr(np.eye(k) - np.ones((k, k)) / k)
    qu = eb @ hq[:, :k - 1]
    qw_blocks = []
    helm = np.linalg.qr(np.eye(size) - np.ones((size, size)) / size)[0]
    helm = helm[:, :size - 1]
    for c in cosets:
        members = sorted(i for i in range(n) if coset_of[i] == c)
        blk = np.zeros((n, size - 1))
        for r, i in enumerate(members):
            blk[i] = helm[r]
        qw_blocks.append(blk)
    qw = np.concatenate(qw_blocks, axis=1) if size > 1 \
        else np.zeros((n, 0))
    assert np.linalg.norm(ma @ qu, 2) <= 1 + TOL
    assert np.linalg.norm(mb @ qw, 2) <= 1 + TOL
    assert np.linalg.norm(mb @ qu, 2) <= lam + TOL
    if qw.shape[1]:
        assert np.linalg.norm(ma @ qw, 2) <= lam + TOL


def test_criterion_2_main_lemma_suite(monkeypatch):
    instances = 0
    uw_checked = 0
    for g, nsub in _normal_pairs():
        qcar = quotient_context(schreier_sims(g), schreier_sims(nsub))
        if qcar.order == 1:
            continue
        gcar = PermCarrier(qcar.parent)
        ncar = PermCarrier(qcar.kernel)
        for seed in range(7):
            a = random_symmetric_multiset(elements(ncar), 31 * seed + 1,
                                          k=min(4, ncar.order))
            lam_a = dense_lambda2(ncar, a)
            if lam_a >= 1 - 1e-12:
                continue
            b = _coset_lift_multiset(g, qcar, 97 * seed + 5)
            lam_b = dense_lambda2(qcar, qcar.image_multiset(b))
            lam = max(lam_a, lam_b)
            # with no route, the union keeps the lemma's analytic bound
            with monkeypatch.context() as m:
                route_off(m)
                out = combine_union(gcar, a.with_cert(lam_a),
                                    b.with_cert(lam_b))
            measured = dense_lambda2(gcar, out)
            bound = (1 + lam) * max(a.total, b.total) / (a.total + b.total)
            assert out.cert == bound
            assert measured <= bound + TOL, (gcar.order, seed)
            instances += 1
            if gcar.order <= 500 and uw_checked < 30:
                _uw_geometry_checks(gcar, qcar, a, b, lam)
                uw_checked += 1
    assert instances >= 100, instances
    report(2, "main combination lemma",
           f"{instances} instances, {uw_checked} U/W geometry checks")


# ---------------------------------------------------------------------------
# criterion 3: derandomized squaring bound and degree law

def test_criterion_3_derandomized_squaring():
    count = 0
    groups = [catalog.z8(), catalog.z12(), catalog.s3(), catalog.s4(),
              catalog.d8(), catalog.a4(), catalog.d12(), catalog.q8()]
    loopy_c4 = aux_from_rotation(
        np.array([[1, 3, 0], [2, 0, 1], [3, 1, 2], [0, 2, 3]]),
        label_inv=(1, 0, 2))
    for gi, g in enumerate(groups):
        carrier = PermCarrier.of(g)
        els = elements(carrier)
        for seed in range(7):
            u = random_symmetric_multiset(els, 13 * gi + seed,
                                          k=2 + seed % 3)
            lam = dense_lambda2(carrier, u)
            if u.total == 4 and seed % 2:
                aux = loopy_c4
            else:
                aux = aux_family(1 << (u.total - 1).bit_length())
                if aux.vertex_count != u.total:
                    from cayexp.combine import pad_to_total
                    u = pad_to_total(carrier, u, aux.vertex_count)
                    lam = dense_lambda2(carrier, u)
            out = derandomized_square(carrier, u, aux)
            assert out.total == 2 * aux.degree * u.total
            measured = dense_lambda2(carrier, out)
            assert measured <= lam * lam + aux.certified_mu + TOL
            assert measured <= rv_composition(lam, aux.certified_mu) + TOL
            count += 1
    assert count >= 50, count
    report(3, "derandomized squaring", f"{count} instances")


# ---------------------------------------------------------------------------
# criterion 4: quotient spectrum containment

def test_criterion_4_quotient_spectrum_containment():
    pairs = []
    for g in (catalog.s4(), catalog.a4(), catalog.d8(), catalog.q8(),
              catalog.z12(), catalog.d12(), catalog.s3_x_s4(),
              catalog.sylow2_s8(), catalog.s5(), catalog.s6()):
        chain = derived_series(g)
        for i in range(len(chain.groups) - 1):
            pairs.append((g, chain.groups[i + 1]))
    # cyclic and dihedral normal subgroups (abelian groups have trivial
    # derived chains, so name their subgroups explicitly)
    z8, x8 = catalog.z8(), catalog.z8().gens[0]
    z12, x12 = catalog.z12(), catalog.z12().gens[0]
    z100, x100 = catalog.z100(), catalog.z100().gens[0]
    d12, rot = catalog.d12(), catalog.d12().gens[0]
    pairs += [(z8, GenSet(8, (x8 ** 2,))), (z8, GenSet(8, (x8 ** 4,)))]
    pairs += [(z12, GenSet(7, (x12 ** k,))) for k in (2, 3, 4, 6)]
    pairs += [(z100, GenSet(100, (x100 ** k,))) for k in (2, 4, 5, 10, 20)]
    pairs += [(d12, GenSet(6, (rot,))), (d12, GenSet(6, (rot ** 2,))),
              (d12, GenSet(6, (rot ** 3,)))]
    s34 = catalog.s3_x_s4()
    pairs += [(s34, GenSet(7, (parse_perm("(4 5 6 7)", 7),
                               parse_perm("(4 5)", 7)))),
              (s34, GenSet(7, (parse_perm("(1 2 3)", 7),)))]
    checked = 0
    for g, nsub in pairs:
        if schreier_sims(nsub).order() == 1:
            continue
        qcar = quotient_context(schreier_sims(g), schreier_sims(nsub))
        pcar = PermCarrier(qcar.parent)
        if pcar.order > 2000:
            continue
        ms = strong_generator_multiset(qcar.parent)
        parent = dense_spectrum(pcar, ms)
        quotient = dense_spectrum(qcar, qcar.image_multiset(ms))
        for ev in quotient:
            assert np.min(np.abs(parent - ev)) < SPEC_TOL
        checked += 1
    assert checked >= 25, checked
    report(4, "quotient spectrum containment", f"{checked} pairs")


# ---------------------------------------------------------------------------
# criterion 5: the final construction at (n=4, primes {2,3}, c=8, eps=1/8)

def test_criterion_5_final_construction_bias():
    import random
    r = final_R(4, (2, 3), c=8, eps=0.125)
    carrier = r_carrier(4, (2, 3))
    measured = bias_exhaustive(carrier, r.points)
    assert measured <= 0.25 + TOL
    rng = random.Random(12345)
    checked = 0
    for _ in range(1000):
        j = rng.randrange(2)
        p = r.primes[j]
        f = r.fields[j]
        beta = [rng.randrange(p) for _ in range(4)]
        if not any(beta):
            beta[rng.randrange(4)] = 1
        zeros = 0
        for t in r.tuples:
            q = f.zero()
            for ell in reversed(range(4)):
                q = q * t[j] + f.one().scale(beta[ell])
            if q == f.zero():
                zeros += 1
        assert zeros <= 3        # degree <= n-1 = 3 roots at most
        checked += 1
    assert checked == 1000
    report(5, "final construction bias",
           f"bias {measured:.4f} <= 0.25; 1000 root-count checks")


# ---------------------------------------------------------------------------
# criterion 6: eps-bias grid and the amplified instance

def test_criterion_6_eps_bias_spaces():
    grid = [(d, n) for d in (2, 3, 4, 6, 12) for n in range(2, 9)
            if d**n <= 2_000_000]
    for d, n in grid:
        sp = zdn_bias_space(d, n, 0.25)
        v = verify_bias(sp)
        assert v <= 0.25 + TOL, (d, n, v)
    sp = zdn_bias_space(2, 10, 1 / 16)
    v = verify_bias(sp)
    assert v <= 1 / 16 + TOL
    report(6, "eps-bias spaces",
           f"{len(grid)} grid instances + amplified (2,10,1/16) at {v:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: Babai diameter bound on the full catalog

def test_criterion_7_babai_bound():
    checked = 0
    for name, fn in catalog.FULL_CATALOG.items():
        g = fn()
        carrier = PermCarrier.of(g)
        if carrier.order > 10_000 or carrier.order == 1:
            continue
        ms = strong_generator_multiset(carrier.parent)
        lam = dense_lambda2_signed(carrier, ms)
        diam = graph_info(carrier, ms)["diameter"]
        assert lam <= babai_bound(ms.total, diam) + TOL, name
        checked += 1
    report(7, "Babai diameter bound", f"{checked} catalog groups")


# ---------------------------------------------------------------------------
# criterion 8: Dixon derived-length bound

def test_criterion_8_dixon_bound():
    for name, fn in catalog.FULL_CATALOG.items():
        g = fn()
        chain = derived_series(g)
        if not chain.solvable:
            continue
        assert chain.length <= dixon_bound(g.degree), name
    report(8, "Dixon bound", "all solvable catalog groups")


# ---------------------------------------------------------------------------
# criterion 9: oracle equivalence against brute-force closure

def test_criterion_9_oracle_equivalence():
    import random
    rng = random.Random(99)
    for name, fn in catalog.FULL_CATALOG.items():
        g = fn()
        b = schreier_sims(g)
        els = np_closure(g)
        assert b.order() == els.shape[0], name
        members = {row.tobytes() for row in els}
        # membership spot checks: known members and random permutations
        for _ in range(50):
            p = Perm(rng.sample(range(g.degree), g.degree))
            arr = np.array(p.img, dtype=np.int16)
            assert b.contains(p) == (arr.tobytes() in members), name
        for i in range(0, els.shape[0], max(1, els.shape[0] // 20)):
            assert b.contains(Perm(tuple(int(v) for v in els[i]))), name
        # derived series head against the brute commutator closure
        chain = derived_series(g)
        if els.shape[0] <= 2600:
            brute = np_commutator_closure(els)
            if len(chain.orders) > 1:
                assert chain.orders[1] == brute.shape[0], name
            else:
                assert brute.shape[0] == chain.orders[0], name
    report(9, "oracle equivalence", "orders, membership, derived heads")


# ---------------------------------------------------------------------------
# criterion 10: byte-level determinism of pipeline artifacts

def test_criterion_10_determinism():
    g = catalog.s4()
    a = format_perm_multiset(solvable_expander(derived_series(g)), 4)
    b = format_perm_multiset(solvable_expander(derived_series(g)), 4)
    assert a == b
    from cayexp.epsbias import format_bias_space
    s1 = format_bias_space(zdn_bias_space(2, 6, 0.25))
    s2 = format_bias_space(zdn_bias_space(2, 6, 0.25))
    assert s1 == s2
    report(10, "determinism", "solvable + eps-bias artifacts byte-identical")


# ---------------------------------------------------------------------------
# criterion 11: size trend |S| <= C n^2 log^3 n with stable C

def test_criterion_11_size_trend():
    cs = []
    for n in (8, 16, 32):
        sp = zdn_bias_space(2, n, 0.25)
        c = sp.size / (n * n * math.log2(n) ** 3)
        cs.append(c)
    for prev, nxt in zip(cs, cs[1:]):
        assert nxt <= 2 * prev, cs
    report(11, "size trend",
           "C = " + ", ".join(f"{c:.2f}" for c in cs))
