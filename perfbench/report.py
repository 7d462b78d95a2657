"""Summarise the benchmark runs recorded in this checkout.

    python3 perfbench/report.py [--since NS]

For every workload: the number of runs, and per end-to-end metric the
median over runs and the spread (distance between the first and third
quartile, as a share of the median) next to a third of the metric's bound
from BENCHMARK.json. Traced runs are set beside the untraced ones; the
tracing overhead is their ratio of median request_p50_s, minus one. NS
restricts the summary to runs recorded after that time (nanoseconds since
the epoch, as in the result file names).
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--since", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in
              json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    runs = defaultdict(list)
    for path in sorted(Path(".perfbench/results").glob("*.json")):
        if int(path.stem.rsplit("-", 1)[1]) < args.since:
            continue
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["trace"])].append(rec)

    for (workload, trace), recs in sorted(runs.items()):
        seeds = sorted({r["seed"] for r in recs})
        print(f"{workload} trace={trace} runs={len(recs)} seeds={seeds} "
              f"passes={sorted({r['passes'] for r in recs})} "
              f"failed={sum(r['failed'] for r in recs)}")
        for name, bound in bounds.items():
            vals = [r["end_to_end"][name] for r in recs]
            med = statistics.median(vals)
            line = f"  {name:<20} median {med:<12.6g}"
            if len(vals) >= 2:
                s = spread(vals)
                flag = "ok" if s < bound / 3 or name == "setup_s" else "WIDE"
                line += f" spread {s:.4f} (bound/3 {bound / 3:.4f}) {flag}"
                if name in recs[0].get("raw", {}):
                    line += f"  raw spread {spread([r['raw'][name] for r in recs]):.4f}"
            print(line)
        if trace == 1 and (workload, 0) in runs:
            plain = statistics.median(r["end_to_end"]["request_p50_s"]
                                      for r in runs[(workload, 0)])
            traced = statistics.median(r["end_to_end"]["request_p50_s"]
                                       for r in recs)
            est = statistics.median(r["per_layer"]["trace.overhead_frac"]
                                    for r in recs)
            print(f"  tracing overhead: request_p50_s x{traced / plain:.4f} "
                  f"(measured), {est:.5f} of request time (calibrated)")


if __name__ == "__main__":
    main()
