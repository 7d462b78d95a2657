import importlib

import pytest

from helpers import (count_calls, count_measurements, count_schreier_sims,
                     dense_lambda2_signed, projective_line,
                     random_symmetric_multiset, route_off, rv_composition)

from cayexp import catalog, obs
from cayexp.carriers import MethodCapacityError, PermCarrier, QuotientCarrier
from cayexp.general import (babai_bound, general_expander,
                            strong_generator_multiset)
from cayexp.multiset import format_perm_multiset, multiset
from cayexp.perm import GenSet, format_perm, parse_group_file, parse_perm
from cayexp.spectra import dense_lambda2, graph_info, second_eigenvalue


class TestBabai:
    def test_formula_deg2_diam3(self):
        assert abs(babai_bound(2, 3) - (1 - 1 / 297)) < 1e-15

    def test_formula_deg1_diam1(self):
        assert abs(babai_bound(1, 1) - (1 - 1 / 16.5)) < 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            babai_bound(0, 3)

    def test_catalog_strong_gens_respect_bound(self):
        # the bound controls the signed second eigenvalue (bipartite Cayley
        # graphs such as even cycles have smallest eigenvalue -1)
        for name, fn in catalog.FULL_CATALOG.items():
            g = fn()
            carrier = PermCarrier.of(g)
            if carrier.order > 2000 or carrier.order == 1:
                continue
            ms = strong_generator_multiset(carrier.parent)
            lam = dense_lambda2_signed(carrier, ms)
            diam = graph_info(carrier, ms)["diameter"]
            assert lam <= babai_bound(ms.total, diam) + 1e-9, name


class TestRvComposition:
    def test_value(self):
        assert abs(rv_composition(0.75, 0.01) - 0.566875) < 1e-15

    def test_zero_lambda(self):
        assert rv_composition(0.0, 0.37) == pytest.approx(0.37)

    def test_gap_growth_inequality(self):
        # 1 - f(1-gamma, 1/100) >= 1.5 * gamma for gamma < 1/4
        for gamma in (0.01, 0.05, 0.1, 0.2, 0.24):
            f = rv_composition(1 - gamma, 0.01)
            assert 1 - f >= 1.5 * gamma - 1e-12
        assert rv_composition(0.9, 0.01) <= 0.85

    def test_upper_bounds_square_plus_mu(self):
        for lam in (0.1, 0.5, 0.9):
            for mu in (0.01, 0.2):
                assert rv_composition(lam, mu) <= lam * lam + mu + 1e-15


class TestGeneralExpander:
    def test_s5_quarter(self):
        g = catalog.s5()
        out = general_expander(g, 0.25)
        assert dense_lambda2(PermCarrier.of(g), out) <= 0.25 + 1e-9

    def test_s4_sixteenth_phase2(self):
        g = catalog.s4()
        out = general_expander(g, 1 / 16)
        assert dense_lambda2(PermCarrier.of(g), out) <= 1 / 16 + 1e-9

    def test_zero_rounds_when_target_loose(self):
        g = catalog.s4()
        carrier = PermCarrier.of(g)
        ms = strong_generator_multiset(carrier.parent)
        lam = dense_lambda2(carrier, ms)
        out = general_expander(g, min(0.999, lam + 0.2))
        assert out.counts() == ms.counts()

    def test_bipartite_start_is_lazified(self):
        g = catalog.z2()
        out = general_expander(g, 0.25)
        assert dense_lambda2(PermCarrier.of(g), out) <= 0.25 + 1e-9

    def test_each_round_obeys_rv_bound(self):
        g = catalog.s4()
        carrier = PermCarrier.of(g)
        with obs.recording() as log:
            general_expander(g, 0.05)
        assert any(e["op"] == "square" for e in log)
        prev = None
        for entry in log:
            if entry["op"] == "square":
                if prev is not None and entry["cert"] is not None:
                    bound = prev * prev
                    assert entry["cert"] <= bound + 1e-9
                prev = entry["cert"]
            elif entry.get("cert") is not None:
                prev = entry["cert"]

    def test_trivial_group(self):
        out = general_expander(GenSet(3, ()), 0.25)
        assert out.cert == 0.0

    def test_s6_sixteenth_seeded_trim(self):
        # reaches the seeded support trim in compact, whose instance seed
        # once called tuple() on a Perm and raised TypeError
        g = GenSet(6, (parse_perm("(1 2 3 4 5 6)", 6),
                       parse_perm("(1 2)", 6)))
        out = general_expander(g, 1 / 16)
        assert out.cert <= 1 / 16
        assert dense_lambda2(PermCarrier.of(g), out) <= 1 / 16 + 1e-9


# measurements of general_expander: the strong generators, compact's
# candidates and the returned multiset; a square carries its input's bound
# squared, unmeasured
ADAPTIVE_MEASUREMENTS = {
    ("A5", 0.25): 2, ("A5", 0.0625): 3,
    ("S5", 0.25): 3, ("S5", 0.0625): 4,
    ("PSL(2,7)", 0.25): 2, ("PSL(2,7)", 0.0625): 3,
    ("PGL(2,5)", 0.25): 2, ("PGL(2,5)", 0.0625): 3,
}
ADAPTIVE_GROUPS = {
    "A5": lambda: GenSet(5, (parse_perm("(1 2 3)", 5),
                             parse_perm("(3 4 5)", 5))),
    "S5": catalog.s5,
    "PSL(2,7)": lambda: projective_line(7, 4),
    "PGL(2,5)": lambda: projective_line(5, 2),
}


def _request(g: GenSet, lam: float) -> tuple[str, str]:
    """A build and its re-check on the group's carrier: the output's bytes
    and the report's JSON."""
    ms = general_expander(g, lam)
    report = second_eigenvalue(PermCarrier.of(g), ms)
    return format_perm_multiset(ms, g.degree), report.to_json()


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)"])
def test_repeated_request_sets_up_its_group_once(name, monkeypatch):
    # the same GenSet served twice: the first request builds the group's
    # BSGS and searches its Cayley table once for the build and its re-check,
    # the second neither; both give what a freshly parsed group gives
    g = ADAPTIVE_GROUPS[name]()
    builds = count_schreier_sims(monkeypatch)
    searches = count_calls(monkeypatch, QuotientCarrier._products)
    measured = count_measurements(monkeypatch)
    first = _request(g, 1 / 16)
    assert builds == [g] and len(searches) == 1
    # the second request measures all but the group's starting set again
    start, rest = measured[0], measured[1:]
    builds.clear()
    searches.clear()
    measured.clear()
    again = _request(g, 1 / 16)
    assert builds == [] and searches == []
    assert measured == rest and start not in measured
    monkeypatch.undo()
    text = f"degree {g.degree}\n" + "".join(format_perm(p) + "\n"
                                            for p in g.gens)
    assert again == first == _request(parse_group_file(text), 1 / 16)


@pytest.mark.parametrize("name,lam", sorted(ADAPTIVE_MEASUREMENTS))
def test_adaptive_certificate_is_its_final_measurement(name, lam,
                                                       monkeypatch):
    # the package re-exports the function combine under the module's name
    combine_mod = importlib.import_module("cayexp.combine")
    g = ADAPTIVE_GROUPS[name]()
    carrier = PermCarrier.of(g)
    measured = count_measurements(monkeypatch)
    out = general_expander(g, lam)
    assert len(measured) == ADAPTIVE_MEASUREMENTS[name, lam]
    # no multiset is measured twice
    assert len(set(measured)) == len(measured)
    monkeypatch.undo()
    assert out.cert == combine_mod.measure_exact(carrier, out)
    assert out.cert <= lam


@pytest.mark.parametrize("name,lam", sorted(ADAPTIVE_MEASUREMENTS))
def test_repeated_call_measures_only_its_rounds(name, lam, monkeypatch):
    # the starting set is measured on the first call for the group and
    # kept on its carrier; a second call makes every other measurement again
    g = ADAPTIVE_GROUPS[name]()
    measured = count_measurements(monkeypatch)
    first = general_expander(g, lam)
    assert len(measured) == ADAPTIVE_MEASUREMENTS[name, lam]
    start = measured[0]
    measured.clear()
    again = general_expander(g, lam)
    assert len(measured) == ADAPTIVE_MEASUREMENTS[name, lam] - 1
    assert start not in measured
    assert again == first


@pytest.mark.parametrize("make,lam,ops", [
    (catalog.s4, 0.05, {"strong-gens", "square", "compact"}),
    (catalog.z2, 0.25, {"lazify", "strong-gens"})])
def test_repeated_call_logs_the_same_events(make, lam, ops):
    # the kept start is logged on every call: its lazy step, and inside a
    # recording the strong generators with their diameter
    g = make()
    with obs.recording() as first:
        out = general_expander(g, lam)
    with obs.recording() as again:
        assert general_expander(g, lam) == out
    assert {e["op"] for e in first} == ops
    assert again == first


@pytest.mark.parametrize("make,lam", [(catalog.s4, 0.999),
                                      (catalog.z2, 0.25)])
def test_kept_start_is_read_only(make, lam):
    # a target the start already meets returns the kept start itself (Z2's
    # is the lazy one), so its arrays must refuse a write
    g = make()
    out = general_expander(g, lam)
    assert general_expander(g, lam) is out
    for arr in (out.codes, out.mult_array()):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_refused_call_keeps_no_start(monkeypatch):
    # a group the route check refuses keeps nothing: once a route exists,
    # the next call measures its start like a first call
    g = ADAPTIVE_GROUPS["A5"]()
    route_off(monkeypatch)
    with pytest.raises(MethodCapacityError):
        general_expander(g, 0.25)
    monkeypatch.undo()
    measured = count_measurements(monkeypatch)
    general_expander(g, 0.25)
    assert len(measured) == ADAPTIVE_MEASUREMENTS["A5", 0.25]
