import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import count_calls, count_schreier_sims

import cayexp
from cayexp import carriers, catalog, cli, combine, epsbias, series
from cayexp.cli import main
from cayexp.combine import (AmplificationError, AuxInfeasibleError,
                            CertificationError)
from cayexp.perm import Perm, format_perm

S4 = "degree 4\n(1 2 3 4)\n(1 2)\n"
S5 = "degree 5\n(1 2 3 4 5)\n(1 2)\n"
A4 = "degree 4\n(1 2 3)\n(2 3 4)\n"


@pytest.fixture
def s4_file(tmp_path):
    p = tmp_path / "s4.grp"
    p.write_text(S4)
    return p


@pytest.fixture
def s5_file(tmp_path):
    p = tmp_path / "s5.grp"
    p.write_text(S5)
    return p


def test_build_verify_roundtrip(tmp_path, s4_file, capsys):
    out = tmp_path / "s4.ms"
    rc = main(["build-expander", "--group", str(s4_file),
               "--lambda", "0.25", "--out", str(out), "--json"])
    assert rc == 0
    sidecar = (tmp_path / "s4.ms.cert.json").read_text()
    # --json prints the certificate sidecar, byte for byte
    assert capsys.readouterr().out == sidecar
    cert = json.loads(sidecar)
    assert cert["lambda2"] <= 0.25 + 1e-9
    rc = main(["verify", "--group", str(s4_file), "--multiset", str(out),
               "--target", "0.25"])
    assert rc == 0


def test_build_is_byte_deterministic(tmp_path, s4_file):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    out1 = d1 / "s4.ms"
    out2 = d2 / "s4.ms"
    assert main(["build-expander", "--group", str(s4_file),
                 "--out", str(out1)]) == 0
    assert main(["build-expander", "--group", str(s4_file),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    c1 = json.loads((d1 / "s4.ms.cert.json").read_text())
    c2 = json.loads((d2 / "s4.ms.cert.json").read_text())
    assert c1 == c2
    m1 = json.loads((d1 / "s4.ms.manifest.json").read_text())
    m2 = json.loads((d2 / "s4.ms.manifest.json").read_text())
    for m in (m1, m2):
        m.pop("timings")
        m["outputs"] = {k.split("/")[-1]: v for k, v in m["outputs"].items()}
        m["inputs"] = list(m["inputs"].values())
    assert m1 == m2


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 4\n(1 2\n")
    assert main(["series", "--group", str(bad)]) == 2
    assert main(["build-expander", "--group", str(bad),
                 "--out", str(tmp_path / "x.ms")]) == 2


A5 = "degree 5\n(1 2 3)\n(3 4 5)\n"


@pytest.mark.parametrize("lam", ["0", "-1", "1", "1.5"])
@pytest.mark.parametrize("name,text", [("a4", A4), ("a5", A5)])
def test_build_lambda_outside_unit_interval_exit_2(tmp_path, capsys, name,
                                                   text, lam):
    # A4 at 0 or -1 once squared until an OverflowError, A5 at 0 raised an
    # uncaught ValueError and A4 at 1.5 exited 0
    group = tmp_path / f"{name}.grp"
    group.write_text(text)
    out = tmp_path / f"{name}.ms"
    assert main(["build-expander", "--group", str(group), "--lambda", lam,
                 "--out", str(out)]) == 2
    assert "lambda must be in (0, 1)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [group.name]


def test_require_solvable_exit_3(tmp_path, s5_file):
    rc = main(["build-expander", "--group", str(s5_file),
               "--require-solvable", "--out", str(tmp_path / "x.ms")])
    assert rc == 3


def test_solvable_alias_exit_3(tmp_path, s5_file):
    # --solvable is the second spelling of --require-solvable
    out = tmp_path / "x.ms"
    rc = main(["build-expander", "--group", str(s5_file), "--solvable",
               "--out", str(out)])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize("grp,flags,solvable", [
    (S4, [], True), (S4, ["--solvable"], True), (S5, [], False)])
def test_manifest_records_solvable(tmp_path, grp, flags, solvable):
    g = tmp_path / "g.grp"
    g.write_text(grp)
    out = tmp_path / "t.ms"
    assert main(["build-expander", "--group", str(g), "--out", str(out)]
                + flags) == 0
    manifest = json.loads((tmp_path / "t.ms.manifest.json").read_text())
    assert manifest["parameters"]["solvable"] is solvable


def test_tampered_multiset_exit_5(tmp_path, s4_file):
    out = tmp_path / "s4.ms"
    assert main(["build-expander", "--group", str(s4_file),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    broken = [ln for ln in lines if not ln.endswith("(2 3 4)")]
    assert len(broken) < len(lines)
    out.write_text("\n".join(broken) + "\n")
    rc = main(["verify", "--group", str(s4_file), "--multiset", str(out)])
    assert rc == 5


def test_verify_foreign_element_exit_2(tmp_path, capsys):
    # a transposition is symmetric but lies in S4, not in A4
    group = tmp_path / "a4.grp"
    group.write_text(A4)
    ms = tmp_path / "x.ms"
    ms.write_text("degree 4\n1 (1 2)\n")
    rc = main(["verify", "--group", str(group), "--multiset", str(ms)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "outside the group" in err
    assert len(err.splitlines()) == 1
    # a multiset of another degree is refused before any measurement
    ms.write_text("degree 5\n1 (1 2)\n")
    rc = main(["verify", "--group", str(group), "--multiset", str(ms)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: degree mismatch between group and multiset\n")


# a bare "degree" once ended verify in an IndexError traceback (exit 1), and
# "degreeX 4" was read as degree 4
BAD_HEADERS = ["degree", "degree x", "degree 0", "degreeX 4", "1 (1 2)"]


@pytest.mark.parametrize("header", BAD_HEADERS)
def test_verify_malformed_multiset_header_exit_2(tmp_path, capsys, s4_file,
                                                 header):
    ms = tmp_path / "x.ms"
    ms.write_text(header + "\n1 (1 2)\n")
    rc = main(["verify", "--group", str(s4_file), "--multiset", str(ms)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("header", BAD_HEADERS)
def test_malformed_group_header_exit_2(tmp_path, capsys, header):
    group = tmp_path / "x.grp"
    group.write_text(header + "\n(1 2)\n")
    for command in ("series", "bsgs"):
        assert main([command, "--group", str(group)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_build_expander_builds_each_group_once(tmp_path, monkeypatch):
    # Syl2(S8): its BSGS and those of the three derived-series terms below
    # it (orders 16, 2, 1); every derived quotient is elementary abelian, so
    # the abelian levels are the chain's own terms, and the final report
    # reuses term 0
    g = catalog.sylow2_s8()
    group = tmp_path / "syl.grp"
    group.write_text(f"degree {g.degree}\n"
                     + "".join(format_perm(p) + "\n" for p in g.gens))
    calls = count_schreier_sims(monkeypatch)
    assert main(["build-expander", "--group", str(group), "--lambda", "0.25",
                 "--out", str(tmp_path / "syl.ms")]) == 0
    assert len(calls) == 4
    assert calls[0] == g


def test_build_expander_sets_up_a_nonsolvable_group_once(tmp_path,
                                                         monkeypatch):
    # A5: the route check, the construction and the final report share the
    # input's one carrier, so its BSGS is built once and its Cayley table
    # searched once (the derived series' other build is A5' on commutators)
    g = catalog.a5()
    group = tmp_path / "a5.grp"
    group.write_text(f"degree {g.degree}\n"
                     + "".join(format_perm(p) + "\n" for p in g.gens))
    builds = count_schreier_sims(monkeypatch)
    searches = count_calls(monkeypatch, carriers.QuotientCarrier._products)
    assert main(["build-expander", "--group", str(group), "--lambda",
                 str(1 / 16), "--out", str(tmp_path / "a5.ms")]) == 0
    assert [b for b in builds if b == g] == [g]
    assert len(searches) == 1


@pytest.mark.parametrize("name", ["a4", "s4", "sylow2_s8"])
def test_build_expander_searches_a_solvable_group_once(name, tmp_path,
                                                       monkeypatch):
    # the fold's top merge onto G_0/1 and the final report share the
    # input's one carrier, so G's Cayley table is searched once
    g = getattr(catalog, name)()
    order = carriers.PermCarrier.of(g).order
    group = tmp_path / "g.grp"
    group.write_text(f"degree {g.degree}\n"
                     + "".join(format_perm(p) + "\n" for p in g.gens))
    searches = count_calls(monkeypatch, carriers.QuotientCarrier._products)
    assert main(["build-expander", "--group", str(group), "--lambda", "0.25",
                 "--out", str(tmp_path / "g.ms")]) == 0
    assert [c.order for c in searches].count(order) == 1


def test_build_expander_checks_each_quotient_once(s4_file, tmp_path,
                                                  monkeypatch):
    # fold_series checks its chain once up front, so neither its merges nor
    # the abelian levels of a derived quotient check normality again
    checks = count_calls(monkeypatch, series.quotient_context)
    assert main(["build-expander", "--group", str(s4_file), "--lambda",
                 "0.25", "--out", str(tmp_path / "s4.ms")]) == 0
    assert len(checks) <= 10


def test_verify_power_route_prints_interval(tmp_path, capsys):
    # Z_2^14 on 28 points is above the dense cap; with identity weight 2
    # its lambda2 is exactly 0.875, and only the interval's upper end may
    # certify, so a target just below 0.875 fails
    t = 14
    swaps = [f"({2 * i + 1} {2 * i + 2})" for i in range(t)]
    group = tmp_path / "cube.grp"
    group.write_text(f"degree {2 * t}\n" + "".join(p + "\n" for p in swaps))
    ms = tmp_path / "cube.ms"
    ms.write_text(f"degree {2 * t}\n2 ()\n"
                  + "".join(f"1 {p}\n" for p in swaps))
    args = ["verify", "--group", str(group), "--multiset", str(ms)]
    assert main(args + ["--target", "0.9"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("lambda2 in [") and "matvecs)" in text
    assert "method = power-iteration verdict = pass" in text
    assert main(args + ["--target", str(0.875 - 1e-9), "--json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is False
    assert payload["lambda2"] <= 0.875 <= payload["lambda2_upper"]
    assert payload["matvecs"] >= 1


def test_too_large_without_sampled_exit_6(tmp_path, capsys):
    # S_12 has order ~4.8e8, beyond the exact verification cap
    big = tmp_path / "s12.grp"
    big.write_text("degree 12\n(1 2 3 4 5 6 7 8 9 10 11 12)\n(1 2)\n")
    ms = tmp_path / "x.ms"
    ms.write_text("degree 12\n1 (1 2)\n")
    rc = main(["verify", "--group", str(big), "--multiset", str(ms)])
    assert rc == 6
    err = capsys.readouterr().err
    assert "verification cap 1000000" in err
    assert "--sampled" not in err


@pytest.mark.parametrize("group", [
    # S10, order 3628800, is not solvable
    pytest.param("degree 10\n(1 2 3 4 5 6 7 8 9 10)\n(1 2)\n", id="s10"),
    # 21 disjoint transpositions, order 2^21, is solvable: refused before
    # the construction, not after it
    pytest.param("degree 42\n" + "".join(f"({2 * i + 1} {2 * i + 2})\n"
                                          for i in range(21)), id="z2^21"),
])
def test_build_beyond_verification_cap_exit_6(tmp_path, capsys, group):
    # above ITER_CAP no certificate is emitted
    big = tmp_path / "big.grp"
    big.write_text(group)
    out = tmp_path / "big.ms"
    rc = main(["build-expander", "--group", str(big), "--out", str(out)])
    assert rc == 6
    assert not out.exists()
    assert "exceeds the verification cap" in capsys.readouterr().err


def test_build_capacity_error_inside_construction_exit_6(tmp_path, s4_file,
                                                        capsys, monkeypatch):
    # order 24 passes the up-front route check (the dense route needs no
    # element table), but S4's top fold merge tables S4 itself, above a cap
    # of 20: the construction stops, and nothing is written
    monkeypatch.setattr(carriers, "TABLE_CAP", 20)
    out = tmp_path / "s4.ms"
    rc = main(["build-expander", "--group", str(s4_file), "--out", str(out)])
    assert rc == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "element-table cap 20" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [s4_file.name]


def test_build_report_above_target_exit_4(tmp_path, s4_file, capsys,
                                          monkeypatch):
    # the construction certifies, but the final report is faked above the
    # target: the files are still written, and the command exits 4
    real = cli.second_eigenvalue
    monkeypatch.setattr(cli, "second_eigenvalue", lambda carrier, ms:
                        dataclasses.replace(real(carrier, ms), lambda2=0.5))
    out = tmp_path / "s4.ms"
    rc = main(["build-expander", "--group", str(s4_file), "--out", str(out)])
    assert rc == 4
    for name in ("s4.ms", "s4.ms.cert.json", "s4.ms.manifest.json"):
        assert (tmp_path / name).exists()
    captured = capsys.readouterr()
    assert captured.out.startswith("lambda2 = 0.5 (target 0.25) size = ")
    assert captured.err == (
        "error: certification failed: lambda2 bound 0.5 > 0.25\n")


def test_series_output(s4_file, capsys):
    assert main(["series", "--group", str(s4_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orders"] == [24, 12, 4, 1]
    assert payload["solvable"] is True
    assert payload["dixon_ok"] is True
    assert main(["series", "--group", str(s4_file)]) == 0
    assert capsys.readouterr().out == (
        "derived series orders: 24 > 12 > 4 > 1\n"
        f"solvable: true, length 3 <= {payload['dixon_bound']}: true\n")


def test_series_nonsolvable(s5_file, capsys):
    assert main(["series", "--group", str(s5_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solvable"] is False


def test_epsbias_outputs(tmp_path, capsys):
    out = tmp_path / "space.pts"
    rc = main(["epsbias", "--d", "6", "--n", "3", "--eps", "0.25",
               "--out", str(out), "--verify"])
    assert rc == 0
    side = json.loads((tmp_path / "space.pts.json").read_text())
    assert side["d"] == 6 and side["n"] == 3
    assert side["certified_eps"] <= 0.25 + 1e-9
    lines = out.read_text().strip().splitlines()
    assert len(lines) == side["size"]
    for ln in lines:
        vec = [int(c) for c in ln.split(",")]
        assert len(vec) == 3 and all(0 <= c < 6 for c in vec)


def test_epsbias_deterministic(tmp_path, capsys):
    a = tmp_path / "a.pts"
    b = tmp_path / "b.pts"
    assert main(["epsbias", "--d", "2", "--n", "5", "--eps", "0.25",
                 "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["epsbias", "--d", "2", "--n", "5", "--eps", "0.25",
                 "--out", str(b), "--json"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # --json prints the sidecar, byte for byte
    assert capsys.readouterr().out == (tmp_path / "b.pts.json").read_text()


def _src_env() -> dict:
    src = str(Path(cayexp.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_python_m_cayexp_runs_the_cli(tmp_path):
    a = tmp_path / "a.pts"
    b = tmp_path / "b.pts"
    env = _src_env()
    args = ["epsbias", "--d", "3", "--n", "2", "--eps", "0.25"]
    done = subprocess.run([sys.executable, "-m", "cayexp", *args,
                           "--out", str(a)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("size = ")
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


VERIFIER_MODULES = ["cayexp._kernels", "cayexp.bsgs", "cayexp.carriers",
                    "cayexp.cli", "cayexp.multiset", "cayexp.perm",
                    "cayexp.series", "cayexp.spectra"]


def test_verify_loads_no_construction_module(tmp_path):
    group = tmp_path / "a4.grp"
    group.write_text(A4)
    ms = tmp_path / "a4.ms"
    ms.write_text("degree 4\n1 (1 2 3)\n1 (1 3 2)\n1 (2 3 4)\n1 (2 4 3)\n")
    # a failing verify loads no more: (1 2 3) without its inverse exits 5
    bad = tmp_path / "bad.ms"
    bad.write_text("degree 4\n1 (1 2 3)\n")
    code = ("import sys\n"
            "from cayexp import cli\n"
            f"for ms in {[str(bad), str(ms)]!r}:\n"
            f"    rc = cli.main(['verify', '--group', {str(group)!r}, "
            "'--multiset', ms])\n"
            "    print(rc, *sorted(m for m in sys.modules "
            "if m.startswith('cayexp.')))\n"
            "import cayexp\n"
            "print(cayexp.combine.__name__)\n")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("error: ")
    assert len(done.stderr.splitlines()) == 1
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["5"] + VERIFIER_MODULES
    assert lines[1].startswith("lambda2 = ")
    assert lines[2].split() == ["0"] + VERIFIER_MODULES
    # before any construction module is loaded, cayexp.combine already
    # resolves to the submodule
    assert lines[3] == "cayexp.combine"


# every name the package exported when it imported all its modules eagerly
PACKAGE_NAMES = {
    "perm": ["GenSet", "Perm", "parse_perm", "format_perm",
             "parse_group_file"],
    "bsgs": ["BSGS", "schreier_sims", "jerrum_reduce"],
    "series": ["derived_series", "quotient_context", "SubgroupChain"],
    "multiset": ["Multiset", "multiset"],
    "carriers": ["PermCarrier", "QuotientCarrier", "VectorCarrier"],
    "spectra": ["SpectrumReport", "second_eigenvalue", "certify"],
    "combine": ["AuxExpander", "aux_family", "balance", "derandomized_square",
                "fold_series", "reduce_to_quarter", "solvable_expander"],
    "abexp": ["abelian_quotient_expander", "build_abelianization",
              "cyclic_expander", "final_R", "product_base_expander"],
    "epsbias": ["BiasSpace", "factorize", "verify_bias", "zdn_bias_space"],
    "general": ["babai_bound", "general_expander"],
}


def test_package_names_resolve_to_their_modules():
    for mod, names in PACKAGE_NAMES.items():
        module = importlib.import_module(f"cayexp.{mod}")
        for name in names:
            assert getattr(cayexp, name) is getattr(module, name), name
    assert cayexp.combine is importlib.import_module("cayexp.combine")
    with pytest.raises(AttributeError):
        cayexp.no_such_name


def test_bsgs_command(s4_file, capsys):
    assert main(["bsgs", "--group", str(s4_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 24
    assert payload["strong_generators"] <= 16
    assert main(["bsgs", "--group", str(s4_file)]) == 0
    assert capsys.readouterr().out == (
        f"order = 24 base = {payload['base']} "
        f"strong generators = {payload['strong_generators']}\n")


def test_epsbias_beyond_method_capacity_exit_6(tmp_path, capsys):
    # d^n = 2^22 is above the exhaustive character cap, so eps < 1/4
    # cannot be amplified and certified
    rc = main(["epsbias", "--d", "2", "--n", "22", "--eps", "0.0625",
               "--out", str(tmp_path / "x.pts")])
    assert rc == 6
    assert "exceeds" in capsys.readouterr().err


def test_epsbias_verify_beyond_method_capacity_exit_6(tmp_path, capsys):
    # Z_2^21 at 1/4 is built and written, but its 2^21 characters are
    # above the exhaustive cap, so it cannot be verified
    out = tmp_path / "x.pts"
    rc = main(["epsbias", "--d", "2", "--n", "21", "--eps", "0.25",
               "--out", str(out), "--verify"])
    assert rc == 6
    captured = capsys.readouterr()
    assert captured.out.startswith("size = ")
    assert captured.err.startswith("error: ")
    assert "exceeds" in captured.err and captured.err.count("\n") == 1
    # the CLI has no sampled estimate to offer
    assert "sampled" not in captured.err
    assert out.exists()


def test_epsbias_verified_bias_above_certificate_exit_4(tmp_path, capsys,
                                                        monkeypatch):
    # a verified bias above the certificate fails the command after the
    # space is written; the verdict is the stdout line, not an error
    monkeypatch.setattr(epsbias, "verify_bias", lambda space: 0.9)
    out = tmp_path / "x.pts"
    rc = main(["epsbias", "--d", "6", "--n", "3", "--eps", "0.25",
               "--out", str(out), "--verify"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out.startswith("size = ")
    assert captured.out.endswith("\nverified bias = 0.9\n")
    assert captured.err == ""
    assert out.exists()


@pytest.mark.parametrize("d,n,eps,err", [
    # the two levels of Z4^11 fold on Z_4^11 (order 4194304, above the
    # exhaustive cap): the merge's squaring round is refused
    (4, 11, 0.25, "group order 4194304 exceeds the verification cap 2000000"),
    # the greedy provider's cyclic base Z_510510 is above its cap 2^18
    (510510, 2, 0.5,
     "group order 510510 exceeds the greedy provider's cap 262144"),
], ids=["z4^11", "z510510^2"])
def test_epsbias_capacity_inside_construction_exit_6(tmp_path, capsys, d, n,
                                                     eps, err):
    out = tmp_path / "x.pts"
    rc = main(["epsbias", "--d", str(d), "--n", str(n), "--eps", str(eps),
               "--out", str(out)])
    assert rc == 6
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_epsbias_bad_arguments_exit_2(tmp_path):
    assert main(["epsbias", "--d", "1", "--n", "3", "--eps", "0.25",
                 "--out", str(tmp_path / "x.pts")]) == 2


CONSTRUCTION_ERRORS = [
    CertificationError("base multiset not certified"),
    AmplificationError("recurrence stalls"),
    AuxInfeasibleError("could not reach mu <= 0.01", achievable_mu=0.3125),
]


def _raise(err):
    def fn(*args, **kwargs):
        raise err
    return fn


@pytest.mark.parametrize("err", CONSTRUCTION_ERRORS,
                         ids=lambda e: type(e).__name__)
def test_epsbias_construction_failure_exit_4(tmp_path, capsys, monkeypatch,
                                             err):
    monkeypatch.setattr(epsbias, "zdn_bias_space", _raise(err))
    rc = main(["epsbias", "--d", "6", "--n", "3", "--eps", "0.25",
               "--out", str(tmp_path / "x.pts")])
    assert rc == 4
    stderr = capsys.readouterr().err
    assert str(err) in stderr
    assert ("achievable mu = 0.3125" in stderr) == \
        isinstance(err, AuxInfeasibleError)


@pytest.mark.parametrize("err", CONSTRUCTION_ERRORS,
                         ids=lambda e: type(e).__name__)
def test_build_construction_failure_exit_4(tmp_path, s4_file, capsys,
                                           monkeypatch, err):
    monkeypatch.setattr(combine, "solvable_expander", _raise(err))
    out = tmp_path / "s4.ms"
    rc = main(["build-expander", "--group", str(s4_file), "--out", str(out)])
    assert rc == 4
    assert not out.exists()
    stderr = capsys.readouterr().err
    assert str(err) in stderr
    assert ("achievable mu = 0.3125" in stderr) == \
        isinstance(err, AuxInfeasibleError)


# documented exits of build-expander without --require-solvable
BUILD_EXITS = {2, 4, 5, 6}


def _random_group(rng: random.Random) -> str:
    degree = rng.randint(2, 6)
    gens = [Perm(rng.sample(range(degree), degree))
            for _ in range(rng.randint(1, 3))]
    return f"degree {degree}\n" + "".join(format_perm(p) + "\n"
                                          for p in gens)


@pytest.mark.parametrize("seed", range(24))
def test_random_group_builds_certify_or_exit_documented(tmp_path, capsys,
                                                        seed):
    # property: on a random group, a build either exits 0, gives the same
    # bytes when run again and passes verify at its target, or exits with a
    # documented code and one error line (two with an achievable mu)
    group = tmp_path / "g.grp"
    group.write_text(_random_group(random.Random(seed)))
    for lam in ("0.25", "0.0625"):
        outs = [tmp_path / f"{run}-{lam}.ms" for run in (1, 2)]
        build = ["build-expander", "--group", str(group), "--lambda", lam]
        rc = main(build + ["--out", str(outs[0])])
        if rc:
            assert rc in BUILD_EXITS
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("error: ")
            assert len(err) == 1 or (
                len(err) == 2 and err[1].startswith("achievable mu = "))
            continue
        assert main(build + ["--out", str(outs[1])]) == 0
        for suffix in ("", ".cert.json"):
            a, b = (o.with_suffix(o.suffix + suffix) for o in outs)
            assert a.read_bytes() == b.read_bytes()
        assert main(["verify", "--group", str(group), "--multiset",
                     str(outs[0]), "--target", lam]) == 0
        assert capsys.readouterr().err == ""
