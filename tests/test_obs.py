"""The construction log: which steps each pipeline records, and that
nothing is recorded outside ``obs.recording()``."""

from cayexp import catalog, obs
from cayexp.combine import reduce_to_quarter, solvable_expander
from cayexp.epsbias import zdn_bias_space
from cayexp.general import general_expander
from cayexp.series import derived_series


def ops(log):
    return {e["op"] for e in log}


def squares_then_compacts(log):
    """At least one round, each a square and then the compaction after it."""
    names = [e["op"] for e in log]
    return bool(names) and names == ["square", "compact"] * (len(names) // 2)


def test_solvable_s4_records_levels_merges_squares():
    with obs.recording() as log:
        solvable_expander(derived_series(catalog.s4()))
    assert {"derived-quotient", "quotient-level", "fold-merge",
            "square"} <= ops(log)
    assert sum(e["op"] == "derived-quotient" for e in log) == 3
    for e in log:
        assert list(e)[0] == "op"
        if e["op"] == "fold-merge":
            lo, mid, hi = e["span"]
            assert lo < mid < hi and e["cert"] <= 0.25 + 1e-9


def test_bias_space_records_fold_merge_and_squares():
    with obs.recording() as log:
        zdn_bias_space(12, 3, 0.0625)
    assert {"fold-merge", "square"} <= ops(log)
    # the last square is the amplification to eps on Z_12^3 itself
    assert [e for e in log if e["op"] == "square"][-1]["cert"] <= 0.0625


def test_bias_space_last_logged_total_is_its_size():
    # the compaction after the last square is logged too
    with obs.recording() as log:
        space = zdn_bias_space(12, 3, 0.0625)
    assert log[-1]["op"] == "compact"
    assert log[-1]["total"] == space.size
    assert log[-1]["cert"] == space.certified_eps


def test_general_records_strong_gens_then_squares():
    with obs.recording() as log:
        general_expander(catalog.s4(), 0.05)
    assert log[0]["op"] == "strong-gens"
    assert {"diameter", "babai_bound", "total", "cert"} <= set(log[0])
    assert squares_then_compacts(log[1:])


def test_bipartite_start_records_lazify():
    with obs.recording() as log:
        general_expander(catalog.z2(), 0.25)
    assert [e["op"] for e in log] == ["lazify", "strong-gens"]


def test_nothing_recorded_outside_recording():
    with obs.recording() as log:
        pass
    general_expander(catalog.s4(), 0.05)
    assert log == []
    assert obs._log.get() is None


def test_nested_recording_takes_its_events():
    from cayexp.carriers import PermCarrier
    g = catalog.s4()
    ms = general_expander(g, 0.25)
    with obs.recording() as outer:
        obs.event("mark")
        with obs.recording() as inner:
            reduce_to_quarter(PermCarrier.of(g), ms, target=0.05)
    assert [e["op"] for e in outer] == ["mark"]
    assert squares_then_compacts(inner)
