"""Command-line interface.

Exit codes: 0 success, 2 an unreadable or malformed input (for verify,
also a multiset with elements outside the group or of another degree; for
build-expander, a --lambda outside (0, 1)), 3 non-solvable input with
--require-solvable (alias --solvable), 4 certification failure (a
construction that cannot certify or amplify its bound, with the achievable
mu printed when the greedy provider runs out of budget; a build whose
final report misses its target; a failed verdict), 5 non-symmetric
multiset, 6 a group or a construction step with no measurement route, or
a table or method above its cap, which the message states.

Commands raise their errors. ``main`` is the one place that prints
``error: <message>`` for an exception and maps it to its exit code; only
the exits that are no exception (3, and 4 for a report or a verdict that
misses its target) are decided in the commands. Diagnostics go to stderr,
data to files or stdout. Re-running a command with identical inputs
produces byte-identical output files under the same BLAS thread count;
manifests differ only in their timing fields. Only dense lambda2 bits
follow the BLAS thread count (``eigvalsh`` sums in an order that depends on
it); the Krylov route sums with numpy alone. The construction modules are
imported by the commands that build, so ``verify`` loads only the
verifier, on every path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .bsgs import schreier_sims
from .carriers import PermCarrier
from .multiset import (NonSymmetricError, format_perm_multiset,
                       parse_perm_multiset)
from .perm import parse_group_file
from .series import derived_series, dixon_bound
from .spectra import (CERT_SLACK, FORMAT_VERSION, MethodCapacityError,
                      SpectrumReport, certify, require_route,
                      second_eigenvalue)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_SOLVABLE = 3
EXIT_CERT_FAIL = 4
EXIT_NOT_SYMMETRIC = 5
EXIT_TOO_LARGE = 6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_outputs(args, text: str, suffix: str, sidecar: dict,
                   parameters: dict, inputs: list[Path], summary: str,
                   t0: float) -> None:
    """Write a construction's output file, its JSON sidecar (the output's
    name plus suffix) and the run's manifest; then print the sidecar
    (--json) or the summary line."""
    out = Path(args.out)
    out.write_text(text)
    side_path = out.with_suffix(out.suffix + suffix)
    side_path.write_text(_dump_json(sidecar))
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": args.cmd,
        "parameters": parameters,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in (out, side_path)},
        "certificates": [sidecar],
        "timings": {"wall_seconds": round(time.time() - t0, 6)},
    }
    out.with_suffix(out.suffix + ".manifest.json").write_text(
        _dump_json(manifest))
    if args.json:
        print(_dump_json(sidecar), end="")
    else:
        print(summary)


def _lambda2_text(report: SpectrumReport) -> str:
    """lambda2, or on the power route its interval and the matvecs spent."""
    if report.lambda2_upper is None:
        return f"lambda2 = {report.lambda2:.6g}"
    return (f"lambda2 in [{report.lambda2:.9f}, {report.lambda2_upper:.9f}] "
            f"({report.matvecs} matvecs)")


def cmd_build_expander(args) -> int:
    if not 0 < args.lam < 1:
        raise ValueError("lambda must be in (0, 1)")
    from .combine import solvable_expander
    t0 = time.time()
    group_path = Path(args.group)
    gens = parse_group_file(group_path.read_text())
    chain = derived_series(gens)
    if args.require_solvable and not chain.solvable:
        print("error: group is not solvable (derived series stabilizes at "
              f"order {chain.orders[-1]})", file=sys.stderr)
        return EXIT_NOT_SOLVABLE
    carrier = PermCarrier.of(gens)
    require_route(carrier)
    if chain.solvable:
        ms = solvable_expander(chain, target=args.lam)
    else:
        from .general import general_expander
        ms = general_expander(gens, lam=args.lam)
    report = second_eigenvalue(carrier, ms)
    _write_outputs(args, format_perm_multiset(ms, gens.degree), ".cert.json",
                   dict(report.as_dict(), certified_target=args.lam),
                   {"lambda": args.lam, "solvable": chain.solvable},
                   [group_path], f"{_lambda2_text(report)} (target "
                   f"{args.lam}) size = {ms.total}", t0)
    if not certify(report, args.lam):
        print(f"error: certification failed: lambda2 bound {report.bound} > "
              f"{args.lam}", file=sys.stderr)
        return EXIT_CERT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    gens = parse_group_file(Path(args.group).read_text())
    degree, ms = parse_perm_multiset(Path(args.multiset).read_text())
    if degree != gens.degree:
        raise ValueError("degree mismatch between group and multiset")
    report = second_eigenvalue(PermCarrier.of(gens), ms)
    verdict = args.target is None or certify(report, args.target)
    payload = dict(report.as_dict(), certified_target=args.target,
                   verdict=bool(verdict))
    if args.json:
        print(_dump_json(payload), end="")
    else:
        print(f"{_lambda2_text(report)} method = {report.method} "
              f"verdict = {'pass' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_CERT_FAIL


def cmd_series(args) -> int:
    gens = parse_group_file(Path(args.group).read_text())
    chain = derived_series(gens)
    bound = dixon_bound(gens.degree)
    payload = {
        "orders": list(chain.orders),
        "length": chain.length,
        "solvable": chain.solvable,
        "dixon_bound": bound,
        "dixon_ok": (not chain.solvable) or chain.length <= bound,
    }
    if args.json:
        print(_dump_json(payload), end="")
    else:
        arrow = " > ".join(str(o) for o in chain.orders)
        print(f"derived series orders: {arrow}")
        print(f"solvable: {str(chain.solvable).lower()}, length "
              f"{chain.length} <= {bound}: "
              f"{str(payload['dixon_ok']).lower()}")
    return EXIT_OK


def cmd_epsbias(args) -> int:
    from .epsbias import format_bias_space, verify_bias, zdn_bias_space
    t0 = time.time()
    space = zdn_bias_space(args.d, args.n, args.eps)
    _write_outputs(args, format_bias_space(space), ".json",
                   dict(space.sidecar(), format_version=FORMAT_VERSION),
                   {"d": args.d, "n": args.n, "eps": args.eps}, [],
                   f"size = {space.size} certified_eps = "
                   f"{space.certified_eps:.6g}", t0)
    if args.verify:
        v = verify_bias(space)
        print(f"verified bias = {v:.6g}")
        if v > space.certified_eps + CERT_SLACK:
            return EXIT_CERT_FAIL
    return EXIT_OK


def cmd_bsgs(args) -> int:
    gens = parse_group_file(Path(args.group).read_text())
    b = schreier_sims(gens)
    payload = {
        "order": b.order(),
        "base": [p + 1 for p in b.base],
        "strong_generators": len(b.strong_gens()),
        "orbit_sizes": [len(lv.reps) for lv in b.levels],
    }
    if args.json:
        print(_dump_json(payload), end="")
    else:
        print(f"order = {payload['order']} base = {payload['base']} "
              f"strong generators = {payload['strong_generators']}")
    return EXIT_OK


def _exit_code(e: Exception) -> int:
    """The exit code of an error a command raised. A construction failure
    can only come from a construction module that is already loaded, so
    ``combine`` is looked up, never imported."""
    combine = sys.modules.get(f"{__package__}.combine")
    for kinds, code in ((NonSymmetricError, EXIT_NOT_SYMMETRIC),
                        (MethodCapacityError, EXIT_TOO_LARGE),
                        (combine.CONSTRUCTION_FAILURES if combine else (),
                         EXIT_CERT_FAIL)):
        if isinstance(e, kinds):
            return code
    return EXIT_PARSE


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cayexp",
        description="certified expanding generating sets for permutation "
                    "groups and eps-bias spaces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build-expander",
                       help="construct a certified expanding multiset")
    b.add_argument("--group", required=True)
    b.add_argument("--lambda", dest="lam", type=float, default=0.25)
    b.add_argument("--require-solvable", "--solvable", action="store_true",
                   help="refuse a non-solvable group (exit 3)")
    b.add_argument("--out", required=True)
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_build_expander)

    v = sub.add_parser("verify", help="re-verify a multiset file")
    v.add_argument("--group", required=True)
    v.add_argument("--multiset", required=True)
    v.add_argument("--target", type=float, default=None)
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("series", help="print the derived series")
    s.add_argument("--group", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_series)

    e = sub.add_parser("epsbias", help="construct an eps-bias space")
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--eps", type=float, required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--verify", action="store_true")
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=cmd_epsbias)

    g = sub.add_parser("bsgs", help="base and strong generating set summary")
    g.add_argument("--group", required=True)
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=cmd_bsgs)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        mu = getattr(e, "achievable_mu", None)
        if mu is not None:
            print(f"achievable mu = {mu:.6g}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
