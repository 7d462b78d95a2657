import importlib.util
import inspect
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (count_calls, elem_inv, elements, naive_bias,
                     naive_cayley_lambda2, projective_line,
                     random_symmetric_multiset)

from cayexp import _kernels, catalog, obs, spectra
from cayexp.carriers import PermCarrier, QuotientCarrier, VectorCarrier
from cayexp.combine import compact, measure_exact, reduce_to_quarter
from cayexp.multiset import NonSymmetricError, multiset
from cayexp.perm import GenSet, Perm, parse_perm
from cayexp.series import derived_series, quotient_context
from cayexp.spectra import (DENSE_CAP, KRYLOV_GAP, MethodCapacityError,
                            abelian_bias, bias_exhaustive, certify,
                            dense_lambda2, dense_spectrum, exact_method,
                            graph_info, power_lambda2, second_eigenvalue)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def z_n_carrier(n):
    cyc = "(" + " ".join(str(i + 1) for i in range(n)) + ")"
    g = parse_perm(cyc, n)
    return g, PermCarrier.of(GenSet(n, (g,)))


def hypercube_carrier(t):
    """Z_2^t as the transpositions (2i+1 2i+2) on 2t points."""
    gens = tuple(parse_perm(f"({2 * i + 1} {2 * i + 2})", 2 * t)
                 for i in range(t))
    return gens, PermCarrier.of(GenSet(2 * t, gens))


# upper ends of the moment iteration (lower end a power ratio, upper end
# (n ||x_k||^2)^{1/(2k)}) on the verify-large items, rounded down
MOMENT_UPPER_ENDS = {"PSL2_29": 0.82538, "A8": 0.79249, "S8": 0.73842}

# every named group of the catalog (each lies below DENSE_CAP)
CATALOG_GROUPS = sorted(
    name for name, fn in inspect.getmembers(catalog, inspect.isfunction)
    if fn.__module__ == catalog.__name__ and not name.startswith("_")
    and not inspect.signature(fn).parameters)


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod        # dataclasses look their module up
    spec.loader.exec_module(mod)        # imports only the standard library
    return mod


def _hypercube_report(threads: str) -> str:
    """second_eigenvalue's JSON on the Z_2^14 hypercube, in a fresh process
    with OPENBLAS_NUM_THREADS set."""
    code = ("from cayexp.carriers import PermCarrier\n"
            "from cayexp.multiset import multiset\n"
            "from cayexp.perm import GenSet, Perm, parse_perm\n"
            "from cayexp.spectra import second_eigenvalue\n"
            "gens = tuple(parse_perm(f'({2 * i + 1} {2 * i + 2})', 28)\n"
            "             for i in range(14))\n"
            "ms = multiset([(p, 1) for p in gens]\n"
            "              + [(Perm.identity(28), 2)])\n"
            "print(second_eigenvalue(PermCarrier.of(GenSet(28, gens)), ms)"
            ".to_json())\n")
    src = str(Path(_kernels.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def reference_lambda2(carrier, ms) -> float:
    """lambda2 exactly where the structure fixes it, else by dense eigvalsh.

    A disconnected or bipartite Cayley graph has lambda2 = 1 and the
    uniform multiset has lambda2 = 0; the dense solver lands a few ulps off
    those values, while the Krylov route returns them exactly.
    """
    info = graph_info(carrier, ms)
    if not info["connected"] or info["bipartite"]:
        return 1.0
    mults = ms.mult_array()
    if ms.support == carrier.order and (mults == mults[0]).all():
        return 0.0
    return dense_lambda2(carrier, ms)


def catalog_multisets(group, carrier):
    """(kind, multiset) pairs: the generators with two random elements, the
    generators with identity weight 2, a disconnected multiset where a
    proper cyclic subgroup exists, and a bipartite one where the group has
    odd permutations."""
    els = elements(carrier)
    gens = [(p, 1) for p in group.gens] + [(p.inv(), 1) for p in group.gens]
    extra = random_symmetric_multiset(els, 0, k=2, lazy=False)
    out = [("random", multiset(gens + list(extra.pairs()))),
           ("identity-weighted", multiset(gens + [(els[0] ** 0, 2)]))]
    for e in els[1:]:
        if e.order() < carrier.order:
            out.append(("disconnected", multiset([(e, 1), (e.inv(), 1)])))
            break
    odd = [e for e in els if sum(len(c) - 1 for c in e.cycles()) % 2]
    if odd:
        picks = random.Random(1).sample(odd, min(2, len(odd)))
        out.append(("bipartite", multiset([(e, 1) for e in picks]
                                          + [(e.inv(), 1) for e in picks])))
    return out


class TestSecondEigenvalue:
    def test_z5_step_set(self):
        # circulant eigenvalues cos(2 pi j / 5); second largest magnitude
        # is |cos(4 pi / 5)|
        g, carrier = z_n_carrier(5)
        ms = multiset([(g, 1), (g.inv(), 1)])
        rep = second_eigenvalue(carrier, ms)
        assert abs(rep.lambda2 - abs(math.cos(4 * math.pi / 5))) < 1e-9
        assert rep.method == "dense"
        assert rep.group_order == 5 and rep.degree_total == 2

    def test_whole_group_is_projection(self):
        g, carrier = z_n_carrier(6)
        ms = multiset([(e, 1) for e in elements(carrier)])
        assert second_eigenvalue(carrier, ms).lambda2 < 1e-12

    def test_bipartite_k2(self):
        t = parse_perm("(1 2)", 2)
        carrier = PermCarrier.of(GenSet(2, (t,)))
        rep = second_eigenvalue(carrier, multiset([(t, 1)]))
        assert abs(rep.lambda2 - 1.0) < 1e-12

    def test_rejects_asymmetric(self):
        g, carrier = z_n_carrier(5)
        with pytest.raises(NonSymmetricError):
            second_eigenvalue(carrier, multiset([(g, 1)]))

    def test_rejects_foreign_elements(self):
        _, carrier = z_n_carrier(5)
        swap = parse_perm("(1 2)", 5)
        with pytest.raises(ValueError):
            second_eigenvalue(carrier, multiset([(swap, 1)]))

    def test_capacity_error_before_any_table(self):
        s10 = GenSet(10, (parse_perm("(1 2 3 4 5 6 7 8 9 10)", 10),
                          parse_perm("(1 2)", 10)))
        carrier = PermCarrier.of(s10)   # order 3628800 > ITER_CAP
        t = parse_perm("(1 2)", 10)
        with pytest.raises(MethodCapacityError):
            second_eigenvalue(carrier, multiset([(t, 1)]))
        assert "_table" not in carrier.__dict__

    def test_json_report_fields(self):
        g, carrier = z_n_carrier(5)
        rep = second_eigenvalue(carrier, multiset([(g, 1), (g.inv(), 1)]))
        d = rep.as_dict()
        for key in ("group_order", "degree_total", "lambda2", "method",
                    "tolerance", "format_version"):
            assert key in d

    def test_dense_report_keys_pinned(self):
        # the interval fields belong to the power route only, so dense
        # certificates keep their bytes
        g, carrier = z_n_carrier(5)
        rep = second_eigenvalue(carrier, multiset([(g, 1), (g.inv(), 1)]))
        assert set(rep.as_dict()) == {
            "group_order", "degree_total", "lambda2", "method", "tolerance",
            "certified_target", "format_version"}

    def test_matches_naive_dense_oracle(self):
        for fn in (catalog.s4, catalog.d8, catalog.q8):
            g = fn()
            carrier = PermCarrier.of(g)
            els = elements(carrier)
            for seed in range(3):
                ms = random_symmetric_multiset(els, seed)
                mine = dense_lambda2(carrier, ms)
                oracle = naive_cayley_lambda2(els, ms)
                assert abs(mine - oracle) < 1e-10


class TestPowerIteration:
    def test_agrees_with_dense_within_ten_tol(self):
        tol = 1e-12
        for n in (5, 8, 12):
            g, carrier = z_n_carrier(n)
            ms = multiset([(g, 1), (g.inv(), 1), (Perm.identity(n), 1)])
            d = dense_lambda2(carrier, ms)
            p = power_lambda2(carrier, ms, tol=tol).lower
            assert abs(d - p) < 10 * tol

    def test_larger_group(self):
        g = catalog.s3_x_s4()
        carrier = PermCarrier.of(g)
        ms = random_symmetric_multiset(elements(carrier), 0, k=5)
        d = dense_lambda2(carrier, ms)
        p = power_lambda2(carrier, ms, tol=1e-12).lower
        assert abs(d - p) < 1e-11

    def test_dual_route_perm_power_vs_character(self):
        # Z_2^10 both as a degree-20 permutation group (power iteration)
        # and as an abelian shape (exhaustive character sums)
        t = 10
        gens = tuple(parse_perm(f"({2 * i + 1} {2 * i + 2})", 2 * t)
                     for i in range(t))
        pcar = PermCarrier.of(GenSet(2 * t, gens))
        assert pcar.order == 1 << t
        vcar = VectorCarrier((2,) * t)
        idx = [0, 3, 5, 6, 9]
        perm_ms = multiset(
            [(gens[i], 1) for i in idx]
            + [(Perm.identity(2 * t), 2)])
        vecs = []
        for i in idx:
            v = [0] * t
            v[i] = 1
            vecs.append(tuple(v))
        vec_ms = multiset([(v, 1) for v in vecs]
                          + [((0,) * t, 2)])
        p = power_lambda2(pcar, perm_ms, tol=1e-12).lower
        c = bias_exhaustive(vcar, vec_ms)
        assert abs(p - c) < 1e-7


    def test_dense_lambda2_inside_interval(self):
        cases = []
        for n in (5, 8, 12):
            g, carrier = z_n_carrier(n)
            cases.append((carrier, multiset(
                [(g, 1), (g.inv(), 1), (Perm.identity(n), 1)])))
        carrier = PermCarrier.of(catalog.s3_x_s4())
        cases.append((carrier, random_symmetric_multiset(
            elements(carrier), 0, k=5)))
        gens, carrier = hypercube_carrier(10)
        cases.append((carrier, multiset(
            [(gens[i], 1) for i in (0, 3, 5, 6, 9)]
            + [(Perm.identity(20), 2)])))
        for carrier, ms in cases:
            d = reference_lambda2(carrier, ms)
            for tol in (1e-6, 1e-9, 1e-12):
                lower, upper, matvecs = power_lambda2(carrier, ms, tol=tol)
                assert lower <= d <= upper
                assert matvecs >= 1

    @pytest.mark.parametrize("name", CATALOG_GROUPS)
    def test_interval_holds_on_every_catalog_group(self, name):
        group = getattr(catalog, name)()
        carrier = PermCarrier.of(group)
        assert carrier.order <= DENSE_CAP
        for kind, ms in catalog_multisets(group, carrier):
            d = reference_lambda2(carrier, ms)
            if kind in ("disconnected", "bipartite"):
                assert d == 1.0, kind
            for tol in (1e-6, 1e-12):
                lower, upper, _ = power_lambda2(carrier, ms, tol=tol)
                assert lower <= d <= upper, (kind, tol)
                assert upper - lower <= KRYLOV_GAP, (kind, tol)
            for itmax in (1, 2, 3, 5):
                lower, upper, matvecs = power_lambda2(carrier, ms, tol=0.0,
                                                      itmax=itmax)
                assert lower <= d <= upper, (kind, itmax)
                assert matvecs <= itmax

    def test_exact_case_above_dense_cap(self):
        # Z_2^14 with identity weight 2: eigenvalues (16 - 2j)/16 for j
        # flipped coordinates, so lambda2 = 14/16 with multiplicity 14
        t = 14
        gens, pcar = hypercube_carrier(t)
        assert pcar.order > DENSE_CAP
        ms = multiset([(p, 1) for p in gens] + [(Perm.identity(2 * t), 2)])
        vec_ms = multiset([(tuple(int(i == j) for i in range(t)), 1)
                           for j in range(t)] + [((0,) * t, 2)])
        exact = bias_exhaustive(VectorCarrier((2,) * t), vec_ms)
        assert exact == 0.875
        rep = second_eigenvalue(pcar, ms)
        assert rep.method == "power-iteration"
        assert rep.lambda2 <= exact <= rep.lambda2_upper
        assert rep.bound == rep.lambda2_upper
        assert not certify(rep, exact - 1e-9)
        assert certify(rep, rep.lambda2_upper)
        assert not certify(rep, rep.lambda2_upper - 1e-9)
        # constructions re-measure with the certifying end too
        assert measure_exact(pcar, ms) == rep.lambda2_upper

    def test_bipartite_lower_end_one(self):
        # the warm-up multiset of the benchmark's verify-large worker: a
        # 4-cycle and a transposition make Cay(S4, T) bipartite
        g = GenSet(4, (parse_perm("(1 2 3 4)", 4), parse_perm("(1 2)", 4)))
        ms = multiset([(p, 1) for p in g.gens]
                      + [(p.inv(), 1) for p in g.gens])
        carrier = PermCarrier.of(g)
        rep = second_eigenvalue(carrier, ms, method="power-iteration")
        assert 1.0 - 1e-8 < rep.lambda2 <= 1.0 <= rep.lambda2_upper
        assert not certify(rep, 0.99)
        lower, upper, _ = power_lambda2(carrier, ms, tol=1e-13)
        assert 1.0 - 1e-11 < lower <= 1.0 <= upper

    def test_uniform_multiset_exactly_zero(self):
        for carrier in (z_n_carrier(6)[1], PermCarrier.of(catalog.s3_x_s4())):
            ms = multiset([(e, 1) for e in elements(carrier)])
            with np.errstate(all="raise"):
                assert power_lambda2(carrier, ms) == (0.0, 0.0, 1)

    def test_budget_returns_interval_so_far(self):
        carrier = PermCarrier.of(catalog.s3_x_s4())
        ms = random_symmetric_multiset(elements(carrier), 0, k=5)
        d = dense_lambda2(carrier, ms)
        for itmax in (1, 2, 3, 5):
            lower, upper, matvecs = power_lambda2(carrier, ms, tol=0.0,
                                                  itmax=itmax)
            assert matvecs == itmax
            assert lower <= d <= upper

    def test_mirrors_benchmark_gate(self, monkeypatch):
        # every verify-large item: its stored lambda2 within 1e-6, an upper
        # end at or below the moment iteration's this route replaced (and
        # so certifying the pool target), within a matvec budget
        groups = _load_perfbench("groups").GROUPS
        items = json.loads((PERFBENCH / "data" / "verify_large.json")
                           .read_text())
        assert [it["group"] for it in items] == list(MOMENT_UPPER_ENDS)
        for item in items:
            g = groups[item["group"]]
            ms = multiset([(parse_perm(p, g.degree), m)
                           for m, p in item["multiset"]])
            carrier = PermCarrier.of(GenSet(g.degree, tuple(
                parse_perm(p, g.degree) for p in g.gens)))
            assert carrier.order == g.order
            matvecs = count_calls(monkeypatch, _kernels.cayley_matvec)
            rep = second_eigenvalue(carrier, ms)
            assert abs(rep.lambda2 - item["lambda2"]) <= 1e-6
            assert rep.lambda2_upper <= MOMENT_UPPER_ENDS[item["group"]]
            assert rep.lambda2_upper <= item["target"]
            assert certify(rep, item["target"])
            assert len(matvecs) == rep.matvecs <= 130
            monkeypatch.undo()

    def test_bits_do_not_depend_on_blas_threads(self):
        # inner products and norms are pairwise numpy sums, never BLAS dot
        reports = {threads: _hypercube_report(threads) for threads in "12"}
        assert reports["1"] == reports["2"]
        assert json.loads(reports["1"])["method"] == "power-iteration"


class TestAbelianBias:
    def test_full_group_zero_bias(self):
        carrier = VectorCarrier((2, 2))
        ms = multiset([(v, 1) for v in elements(carrier)])
        assert abelian_bias(carrier, ms) < 1e-12

    def test_half_group_bias_one(self):
        carrier = VectorCarrier((2, 2))
        ms = multiset([((0, 0), 1), ((1, 1), 1)])
        assert abs(abelian_bias(carrier, ms) - 1.0) < 1e-12

    def test_full_cyclic_zero(self):
        carrier = VectorCarrier((3,))
        ms = multiset([((0,), 1), ((1,), 1), ((2,), 1)])
        assert abelian_bias(carrier, ms) < 1e-12

    def test_shape_mismatch(self):
        carrier = VectorCarrier((2, 2))
        with pytest.raises(ValueError):
            abelian_bias(carrier, multiset([((0,), 1)]))

    def test_permutation_elements_are_a_shape_mismatch(self):
        # a Perm has no len(); the order check once raised TypeError on it
        carrier = VectorCarrier((2, 2))
        with pytest.raises(ValueError, match="element shape mismatch"):
            abelian_bias(carrier, multiset([(Perm((1, 0)), 1)]))

    def test_permutation_rows_are_not_vector_codes(self):
        # coding a multiset of Perms once raised TypeError (no len())
        carrier = VectorCarrier((2, 2))
        with pytest.raises(ValueError, match="permutation image rows"):
            carrier.codes(multiset([(Perm((1, 0)), 1)]))

    def test_fft_matches_naive_character_sums(self):
        rng = random.Random(2)
        for moduli in [(4,), (2, 3), (2, 2, 3), (5, 5), (8, 3)]:
            carrier = VectorCarrier(moduli)
            els = elements(carrier)
            pairs = {}
            for _ in range(5):
                v = tuple(rng.randrange(m) for m in moduli)
                w = elem_inv(carrier, v)
                pairs[v] = pairs.get(v, 0) + 1
                pairs[w] = pairs.get(w, 0) + 1
            ms = multiset(pairs.items())
            assert abs(bias_exhaustive(carrier, ms)
                       - naive_bias(moduli, ms)) < 1e-9

    def test_bias_equals_cayley_lambda2(self):
        # characters are the eigenvectors, so the two verifiers must agree
        n = 12
        g, pcar = z_n_carrier(n)
        vcar = VectorCarrier((n,))
        perm_ms = multiset([(g, 1), (g.inv(), 1), (g ** 5, 1), (g ** 7, 1)])
        vec_ms = multiset([((1,), 1), ((n - 1,), 1), ((5,), 1), ((7,), 1)])
        assert abs(dense_lambda2(pcar, perm_ms)
                   - abelian_bias(vcar, vec_ms)) < 1e-9

    def test_above_the_exhaustive_cap_is_refused(self, monkeypatch):
        # no estimate stands in for the exact bias: abelian_bias and
        # second_eigenvalue refuse where bias_exhaustive does
        carrier = VectorCarrier((2, 2, 2))
        ms = multiset([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
        monkeypatch.setattr(spectra, "EXHAUSTIVE_CHAR_CAP", carrier.order - 1)
        with pytest.raises(MethodCapacityError):
            abelian_bias(carrier, ms)
        with pytest.raises(MethodCapacityError):
            second_eigenvalue(carrier, ms)


class TestCertify:
    def test_examples(self):
        import dataclasses
        g, carrier = z_n_carrier(5)
        rep = second_eigenvalue(carrier, multiset([(g, 1), (g.inv(), 1)]))
        assert certify(rep, 0.81)
        assert not certify(rep, 0.25)
        assert certify(dataclasses.replace(rep, lambda2=0.24), 0.25)


class TestGraphStructure:
    def test_lambda_below_one_iff_connected_nonbipartite(self):
        rng = random.Random(9)
        for fn in (catalog.z8, catalog.s4, catalog.d12, catalog.z12):
            g = fn()
            carrier = PermCarrier.of(g)
            els = elements(carrier)
            for seed in range(6):
                lazy = rng.random() < 0.5
                ms = random_symmetric_multiset(els, seed * 7 + 1,
                                               k=rng.randint(1, 3), lazy=lazy)
                lam = dense_lambda2(carrier, ms)
                info = graph_info(carrier, ms)
                expanding = info["connected"] and not info["bipartite"]
                assert (lam < 1 - 1e-9) == expanding, (fn.__name__, seed)

    def test_quotient_spectrum_containment(self):
        g = catalog.s4()
        chain = derived_series(g)
        pcar = PermCarrier.of(g)
        ms = random_symmetric_multiset(elements(pcar), 3, k=4)
        for nsub in chain.terms[1:]:
            ctx = quotient_context(chain.terms[0], nsub)
            qcar = QuotientCarrier(ctx)
            qms = qcar.image_multiset(ms)
            parent = dense_spectrum(pcar, ms)
            quotient = dense_spectrum(qcar, qms)
            for ev in quotient:
                assert np.min(np.abs(parent - ev)) < 1e-9

    def test_dense_cap_enforced(self):
        s8 = GenSet(8, (parse_perm("(1 2 3 4 5 6 7 8)", 8),
                        parse_perm("(1 2)", 8)))
        carrier = PermCarrier.of(s8)   # order 40320 > dense cap
        ms = multiset([(parse_perm("(1 2)", 8), 1)])
        with pytest.raises(MethodCapacityError):
            dense_spectrum(carrier, ms)


def _route_cases():
    """(name, carrier, symmetric multiset with 0 < lambda2 < 0.9) on a vector
    group, a permutation group and a quotient."""
    vec = VectorCarrier((3, 5))
    s4 = PermCarrier.of(catalog.s4())
    ms = random_symmetric_multiset(elements(s4), 0, k=3)
    ctx = quotient_context(s4.bsgs, derived_series(catalog.s4()).terms[2])
    quo = QuotientCarrier(ctx)
    return [("Z3xZ5", vec, multiset([((0, 0), 2), ((0, 1), 1), ((0, 4), 1),
                                      ((1, 2), 1), ((2, 3), 1), ((1, 4), 1),
                                      ((2, 1), 1)])),
            ("S4", s4, ms),
            ("S4/V4", quo, quo.image_multiset(ms))]


# (DENSE_CAP, ITER_CAP, EXHAUSTIVE_CHAR_CAP) as offsets from the order, and
# the route each kind of carrier then takes
ROUTES = [((0, 0, 0), "dense", "character-sum"),
          ((-1, 0, -1), "power-iteration", None),
          ((-1, -1, 0), None, "character-sum"),
          ((-1, -1, -1), None, None)]


class TestRoute:
    """spectra.exact_method is the one decision of how, and whether, a
    multiset is measured: every caller follows it."""

    @pytest.mark.parametrize("caps,perm_route,vector_route", ROUTES)
    @pytest.mark.parametrize("case", range(3))
    def test_every_caller_follows_the_route(self, monkeypatch, case, caps,
                                            perm_route, vector_route):
        name, carrier, ms = _route_cases()[case]
        lam = dense_lambda2(carrier, ms) if name != "Z3xZ5" \
            else bias_exhaustive(carrier, ms)
        assert 0 < lam < 0.9
        for cap, offset in zip(("DENSE_CAP", "ITER_CAP",
                                "EXHAUSTIVE_CHAR_CAP"), caps):
            monkeypatch.setattr(spectra, cap, carrier.order + offset)
        route = vector_route if name == "Z3xZ5" else perm_route
        assert exact_method(carrier) == route
        if route is None:
            assert measure_exact(carrier, ms) is None
            with pytest.raises(MethodCapacityError):
                second_eigenvalue(carrier, ms)
        else:
            rep = second_eigenvalue(carrier, ms)
            assert rep.method == route
            assert measure_exact(carrier, ms) == rep.bound

        # compact re-weights, and measures the result, exactly when there
        # is a route
        ms = ms.gcd_reduced().with_cert(lam)
        measured = count_calls(monkeypatch, spectra.measure)
        out = compact(carrier, ms, ms.total - 1)
        assert (measured == []) == (route is None)
        if route is None:
            assert out == ms and out.cert == lam
        # one round of squaring: exact where measured, else derandomized
        with obs.recording() as log:
            out = reduce_to_quarter(carrier, ms, target=lam * lam * 1.01)
        ops = {event["op"] for event in log}
        assert ops == ({"derandomized-square"} if route is None
                       else {"square", "compact"})
        assert out.cert <= lam * lam * 1.01
