"""Command-line interface.

Exit codes: 0 success, 2 parse error (or, for verify, a multiset with
elements outside the group; for build-expander, a --lambda outside (0, 1)),
3 non-solvable input with --require-solvable (alias --solvable), 4
certification failure (including a construction that cannot certify or
amplify its bound, or an unreachable auxiliary mu, with the achievable mu
printed), 5 non-symmetric multiset, 6 group order above
the verification cap, which the message states (or, for epsbias, beyond
the method's capacity). Diagnostics go to stderr, data to files or stdout.
Re-running a command with identical inputs produces byte-identical output
files under the same BLAS thread count; manifests differ only in their
timing fields. Only dense lambda2 bits follow the BLAS thread count
(``eigvalsh`` sums in an order that depends on it); the Krylov route sums
with numpy alone. The construction modules are imported by the commands
that build, so ``verify`` loads only the verifier.
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
from .perm import ParseError, parse_group_file
from .series import derived_series, dixon_bound
from .spectra import (FORMAT_VERSION, ITER_CAP, MethodCapacityError,
                      SpectrumReport, certify, exact_method,
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


def _write_manifest(out: Path, command: str, parameters: dict,
                    inputs: list[Path], outputs: list[Path],
                    certificates: list[dict], t0: float) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "parameters": parameters,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "certificates": certificates,
        "timings": {"wall_seconds": round(time.time() - t0, 6)},
    }
    out.write_text(_dump_json(manifest))


def _construction_failed(e: ValueError) -> int:
    print(f"error: {e}", file=sys.stderr)
    mu = getattr(e, "achievable_mu", None)
    if mu is not None:
        print(f"achievable mu = {mu:.6g}", file=sys.stderr)
    return EXIT_CERT_FAIL


def _lambda2_text(report: SpectrumReport) -> str:
    """lambda2, or on the power route its interval and the matvecs spent."""
    if report.lambda2_upper is None:
        return f"lambda2 = {report.lambda2:.6g}"
    return (f"lambda2 in [{report.lambda2:.9f}, {report.lambda2_upper:.9f}] "
            f"({report.matvecs} matvecs)")


def cmd_build_expander(args) -> int:
    if not 0 < args.lam < 1:
        print("error: lambda must be in (0, 1)", file=sys.stderr)
        return EXIT_PARSE
    from .combine import CONSTRUCTION_FAILURES, solvable_expander
    t0 = time.time()
    group_path = Path(args.group)
    try:
        gens = parse_group_file(group_path.read_text())
    except (OSError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    chain = derived_series(gens)
    if args.require_solvable and not chain.solvable:
        print("error: group is not solvable (derived series stabilizes at "
              f"order {chain.orders[-1]})", file=sys.stderr)
        return EXIT_NOT_SOLVABLE
    carrier = PermCarrier(chain.terms[0])
    if exact_method(carrier) is None:
        print(f"error: group order {chain.orders[0]} exceeds the "
              f"verification cap {ITER_CAP}; analytic-only certificates are "
              "not emitted", file=sys.stderr)
        return EXIT_TOO_LARGE
    try:
        if chain.solvable:
            ms = solvable_expander(chain, target=args.lam)
        else:
            from .general import general_expander
            ms = general_expander(gens, lam=args.lam)
    except MethodCapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except CONSTRUCTION_FAILURES as e:
        return _construction_failed(e)
    report = second_eigenvalue(carrier, ms)
    ok = certify(report, args.lam)
    out = Path(args.out)
    out.write_text(format_perm_multiset(ms, gens.degree))
    cert = dict(report.as_dict(), certified_target=args.lam)
    cert_path = out.with_suffix(out.suffix + ".cert.json")
    cert_path.write_text(_dump_json(cert))
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"),
                    "build-expander",
                    {"lambda": args.lam, "solvable": chain.solvable},
                    [group_path], [out, cert_path], [cert], t0)
    if args.json:
        print(_dump_json(cert), end="")
    else:
        print(f"{_lambda2_text(report)} (target {args.lam}) "
              f"size = {ms.total}")
    if not ok:
        print(f"error: certification failed: lambda2 bound {report.bound} > "
              f"{args.lam}", file=sys.stderr)
        return EXIT_CERT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        gens = parse_group_file(Path(args.group).read_text())
        degree, ms = parse_perm_multiset(Path(args.multiset).read_text())
    except (OSError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    if degree != gens.degree:
        print("error: degree mismatch between group and multiset",
              file=sys.stderr)
        return EXIT_PARSE
    carrier = PermCarrier.of(gens)
    try:
        report = second_eigenvalue(carrier, ms)
    except NonSymmetricError:
        print("error: multiset is not symmetric (inverse-closed)",
              file=sys.stderr)
        return EXIT_NOT_SYMMETRIC
    except MethodCapacityError:
        print(f"error: group order {carrier.order} exceeds the verification "
              f"cap {ITER_CAP}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except ValueError as e:     # elements outside the group
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
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
    try:
        gens = parse_group_file(Path(args.group).read_text())
    except (OSError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
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
    from .combine import CONSTRUCTION_FAILURES
    from .epsbias import format_bias_space, verify_bias, zdn_bias_space
    t0 = time.time()
    try:
        space = zdn_bias_space(args.d, args.n, args.eps)
    except MethodCapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except CONSTRUCTION_FAILURES as e:
        return _construction_failed(e)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    out = Path(args.out)
    out.write_text(format_bias_space(space))
    side = dict(space.sidecar(), format_version=FORMAT_VERSION)
    side_path = out.with_suffix(out.suffix + ".json")
    side_path.write_text(_dump_json(side))
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"),
                    "epsbias",
                    {"d": args.d, "n": args.n, "eps": args.eps},
                    [], [out, side_path], [side], t0)
    if args.json:
        print(_dump_json(side), end="")
    else:
        print(f"size = {space.size} certified_eps = "
              f"{space.certified_eps:.6g}")
    if args.verify:
        try:
            v = verify_bias(space)
        except MethodCapacityError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_TOO_LARGE
        print(f"verified bias = {v:.6g}")
        if v > space.certified_eps + 1e-9:
            return EXIT_CERT_FAIL
    return EXIT_OK


def cmd_bsgs(args) -> int:
    try:
        gens = parse_group_file(Path(args.group).read_text())
    except (OSError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    b = schreier_sims(gens)
    payload = {
        "order": b.order(),
        "base": [p + 1 for p in b.base],
        "strong_generators": len(b.strong_gens()),
        "orbit_sizes": [len(lv.transversal) for lv in b.levels],
    }
    if args.json:
        print(_dump_json(payload), end="")
    else:
        print(f"order = {payload['order']} base = {payload['base']} "
              f"strong generators = {payload['strong_generators']}")
    return EXIT_OK


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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
