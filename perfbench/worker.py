"""Serving process of the library workloads: one long-lived process.

Run by run.py as ``worker.py --workload W --trace 0|1`` with the package on
PYTHONPATH. Protocol, one JSON object per line on stdin/stdout: after set-up
(imports, inputs, warm-up) the worker prints ``{"ready": ...}``; each
``{"ref": true}`` times the host-speed reference slices (speed.py) and
prints them; ``{"i": k}`` serves pool item k and prints its result;
``{"exit": true}``
prints ``{"bye": ...}`` with the peak RSS and, when traced, the span
summary, then the worker exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from groups import GROUPS  # noqa: E402
from speed import sample  # noqa: E402
from workloads import pool  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Server:
    """Builds a workload's inputs once and serves its requests."""

    def __init__(self, workload: str):
        import cayexp
        from cayexp.epsbias import format_bias_space
        from cayexp.multiset import format_perm_multiset
        self.cx = cayexp
        self.format_bias_space = format_bias_space
        self.format_perm_multiset = format_perm_multiset
        self.workload = workload
        self.items = pool(workload)
        self.groups = {}
        self.multisets = []
        for item in self.items:
            name = item.get("group")
            if name and name not in self.groups:
                self.groups[name] = cayexp.parse_group_file(
                    GROUPS[name].group_file())
            if workload == "verify-large":
                degree = GROUPS[name].degree
                self.multisets.append(cayexp.multiset(
                    [(cayexp.parse_perm(p, degree), m)
                     for m, p in item["multiset"]]))

    def orders(self) -> dict:
        return {name: self.cx.schreier_sims(g).order()
                for name, g in self.groups.items()}

    def warm_up(self) -> None:
        """One request outside the pool through the same code path."""
        cx = self.cx
        if self.workload == "epsbias-lib":
            cx.verify_bias(cx.zdn_bias_space(3, 2, 0.25))
            return
        g = cx.parse_group_file(GROUPS["S4"].group_file())
        if self.workload == "nonsolvable-lib":
            ms = cx.general_expander(g, 0.25)
            cx.second_eigenvalue(cx.PermCarrier.of(g), ms)
            return
        ms = cx.multiset([(p, 1) for p in g.gens]
                         + [(p.inv(), 1) for p in g.gens])
        cx.second_eigenvalue(cx.PermCarrier.of(g), ms,
                             method="power-iteration")

    def serve(self, k: int) -> dict:
        cx = self.cx
        item = self.items[k]
        if self.workload == "nonsolvable-lib":
            g = self.groups[item["group"]]
            ms = cx.general_expander(g, item["lam"])
            report = cx.second_eigenvalue(cx.PermCarrier.of(g), ms)
            return {"lambda2": report.lambda2, "tolerance": report.tolerance,
                    "target": item["lam"], "size": ms.total,
                    "digest": _digest(self.format_perm_multiset(ms, g.degree))}
        if self.workload == "epsbias-lib":
            space = cx.zdn_bias_space(item["d"], item["n"], item["eps"])
            bias = cx.verify_bias(space)
            return {"lambda2": bias, "tolerance": 1e-9, "target": item["eps"],
                    "size": space.size,
                    "digest": _digest(self.format_bias_space(space))}
        g = self.groups[item["group"]]
        ms = self.multisets[k]
        report = cx.second_eigenvalue(cx.PermCarrier.of(g), ms)
        out = {"lambda2": report.lambda2, "tolerance": report.tolerance,
               "target": item["target"], "size": ms.total,
               "digest": _digest(report.to_json())}
        if abs(report.lambda2 - item["lambda2"]) > 1e-6:
            out["error"] = (f"lambda2 {report.lambda2} differs from the "
                            f"reference {item['lambda2']}")
        return out


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import cayexp  # noqa: F401
    import_s = time.perf_counter() - t0
    import envinfo
    server = Server(args.workload)
    orders = server.orders()
    server.warm_up()
    _send({"ready": True, "import_s": import_s, "orders": orders,
           "env": envinfo.collect()})

    tracer = None
    per_call_s = 0.0
    if args.trace:
        from tracer import Tracer, calibrate
        per_call_s = calibrate()
        tracer = Tracer()
        tracer.install()

    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            break
        if msg.get("ref"):
            # host speed, timed in the serving process just before a request
            _send({"ref": sample()})
            continue
        k = msg["i"]
        if tracer is not None:
            tracer.request += 1
        try:
            out = server.serve(k)
        except Exception as e:  # a failed request is reported, not fatal
            where = traceback.extract_tb(e.__traceback__)[-1]
            out = {"error": f"{type(e).__name__}: {e} (at {where.name}, "
                            f"{Path(where.filename).name}:{where.lineno})"}
        _send(out)

    bye = {"bye": True,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if tracer is not None:
        bye["trace"] = tracer.summary()
        bye["per_call_s"] = per_call_s
        if args.spans_out:
            tracer.dump(args.spans_out)
    _send(bye)
    return 0


if __name__ == "__main__":
    sys.exit(main())
