"""End-to-end benchmark of cayexp: certified expanders and eps-bias spaces.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: solvable-cli, nonsolvable-lib, epsbias-lib, verify-large (see
README.md). One closed-loop client sends whole passes over the workload's
request pool, as many as --seconds hold at the nominal pass time; every
pass after the first runs in a seeded order. A request is a build plus an independent re-check, or a verify; every output
is re-checked against its target and its digest compared with earlier
outputs for the same input (in this run and in earlier runs in this
checkout). Human-readable lines come first; the last line of standard output
is one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from groups import GROUPS  # noqa: E402
from speed import (slowdown, spawn_reference,  # noqa: E402
                   spawn_slowdowns)
from tracer import KERNELS, SPAN_NAMES, calibrate, merge  # noqa: E402
from workloads import ONCE, WORKLOADS, passes, pool  # noqa: E402

SETUP_REPEATS = 5
BASELINE_BACKEND = "numpy"   # the backend the recorded baseline ran on
RUN_LIMIT_S = 150            # start no pass after this; exit by 180 s
REQUEST_TIMEOUT_S = 120
STATE = ".perfbench"         # run state inside the checkout (git-ignored)


class RequestFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# library workloads: one long-lived worker process

class Worker:
    def __init__(self, root: Path, env: dict, workload: str, trace: int,
                 spans_out: Path | None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--trace", str(trace)]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def receive(self, timeout: float) -> dict:
        try:
            line = self.lines.get(timeout=max(timeout, 0.1))
        except queue.Empty:
            # a late reply would answer the next request: stop the worker
            self.proc.kill()
            raise RequestFailed(f"worker silent for {timeout:.0f} s") from None
        if line is None:
            raise RequestFailed(
                f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, obj) -> None:
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        except OSError:
            raise RequestFailed("worker is gone") from None

    def close(self, timeout: float = 30) -> dict | None:
        """Ask the worker to exit; returns its farewell, kills on timeout."""
        bye = None
        try:
            if self.proc.poll() is None:
                self.send({"exit": True})
                bye = self.receive(timeout)
        except (RequestFailed, ValueError):
            bye = None
        finally:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.reader.join(timeout=10)
            for pipe in (self.proc.stdin, self.proc.stdout):
                with contextlib.suppress(OSError):
                    pipe.close()
        return bye


class LibClient:
    """Client side of nonsolvable-lib, epsbias-lib and verify-large."""

    local_reference = False   # one slowdown for the whole run (speed.py)

    def __init__(self, ctx):
        self.ctx = ctx
        self.worker = None

    def setup(self, last: bool) -> dict:
        ctx = self.ctx
        spans = ctx.run_dir / "spans.jsonl" if ctx.trace and last else None
        w = Worker(ctx.root, ctx.env, ctx.workload, ctx.trace, spans)
        try:
            ready = w.receive(REQUEST_TIMEOUT_S)
        except RequestFailed:
            w.close()
            raise
        if last:
            self.worker = w
            self.import_s = ready["import_s"]
        else:
            w.close()
        return ready

    def alive(self) -> bool:
        return self.worker is not None and self.worker.proc.poll() is None

    def reference(self, timeout: float) -> list[float]:
        self.worker.send({"ref": True})
        return self.worker.receive(timeout)["ref"]

    def request(self, k: int, timeout: float) -> dict:
        self.worker.send({"i": k})
        out = self.worker.receive(timeout)
        if "error" in out:
            raise RequestFailed(out["error"])
        return out

    def finish(self) -> dict:
        bye = self.worker.close() if self.worker else None
        self.worker = None
        if bye is None:
            raise RequestFailed("worker gave no farewell")
        return dict(bye, import_s=self.import_s)


# ---------------------------------------------------------------------------
# solvable-cli: a fresh `cayexp` process per command

class CliClient:
    local_reference = True    # each request scaled by its own spawn refs

    def __init__(self, ctx):
        self.ctx = ctx
        self.items = pool(ctx.workload)
        self.dir = None
        self.traces = []
        self.import_s = []
        self.orders = {}   # filled from `cayexp verify` output

    def setup(self, last: bool) -> dict:
        ctx = self.ctx
        d = ctx.run_dir / f"setup{len(os.listdir(ctx.run_dir))}"
        d.mkdir()
        for item in self.items:
            (d / f"{item['group']}.grp").write_text(
                GROUPS[item["group"]].group_file())
        proc = subprocess.run([sys.executable, str(HERE / "envinfo.py")],
                              cwd=ctx.root, env=ctx.env, text=True,
                              capture_output=True, timeout=REQUEST_TIMEOUT_S)
        if proc.returncode != 0:
            raise RequestFailed(f"warm-up process failed: {proc.stderr}")
        if last:
            self.dir = d
        return {"env": json.loads(proc.stdout), "orders": self.orders}

    def _cayexp(self, args, timeout: float) -> dict:
        env = self.ctx.env
        out = None
        if self.ctx.trace:
            out = self.dir / "trace.json"
            env = dict(env, PERFBENCH_TRACE_OUT=str(out))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "cli_shim.py"), *args, "--json"],
                cwd=self.ctx.root, env=env, text=True, capture_output=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RequestFailed(f"{args[0]} timed out") from None
        if out is not None and out.exists():
            rec = json.loads(out.read_text())
            out.unlink()
            self.traces.append(rec["trace"])
            self.import_s.append(rec["import_s"])
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise RequestFailed(f"{args[0]} exit {proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout)

    def alive(self) -> bool:
        return True

    def reference(self, timeout: float) -> list[float]:
        return [spawn_ref(self.ctx, timeout)]

    def request(self, k: int, timeout: float) -> dict:
        item = self.items[k]
        grp = self.dir / f"{item['group']}.grp"
        ms = self.dir / f"{item['group']}.ms"
        lam = str(item["lam"])
        t_end = time.perf_counter() + timeout
        self._cayexp(["build-expander", "--group", str(grp), "--lambda", lam,
                      "--out", str(ms)], timeout)
        v = self._cayexp(["verify", "--group", str(grp), "--multiset",
                          str(ms), "--target", lam],
                         t_end - time.perf_counter())
        if not v["verdict"]:
            raise RequestFailed(f"cayexp verify verdict FAIL ({v['lambda2']})")
        cert = ms.with_suffix(ms.suffix + ".cert.json")
        digest = hashlib.sha256(ms.read_bytes() + cert.read_bytes())
        self.orders[item["group"]] = v["group_order"]
        if v["group_order"] != GROUPS[item["group"]].order:
            raise RequestFailed(f"group order {v['group_order']}, expected "
                                f"{GROUPS[item['group']].order}")
        return {"lambda2": v["lambda2"], "tolerance": v["tolerance"],
                "target": item["lam"], "size": v["degree_total"],
                "digest": digest.hexdigest()}

    def finish(self) -> dict:
        bye = {"peak_rss_mb":
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
        if self.ctx.trace:
            bye["trace"] = merge(self.traces)
            bye["per_call_s"] = calibrate()
            bye["import_s"] = statistics.median(self.import_s or [0.0])
        return bye


# ---------------------------------------------------------------------------
# metrics

def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With fewer than 11 samples no percentile
    qualifies; the maximum is returned with percentile 100.
    """
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: dict, raw: bool = False) -> dict:
    """End-to-end metrics; request times in reference seconds unless raw."""
    reqs = run["requests"]
    scaled = [r["time_s"] / (1.0 if raw else r["slowdown"]) for r in reqs]
    times = [t if r["ok"] else math.inf for t, r in zip(scaled, reqs)]
    sizes = [r["size"] for r in reqs if r["ok"]]
    # closed loop: the client is busy exactly while a request is out
    busy_s = sum(scaled)
    setups = run["setup_s"] if raw else [
        t / f for t, f in zip(run["setup_s"], run["setup_slowdowns"])]
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "request_p50_s": (statistics.median(times), "s"),
        "request_tail_s": (tail_s, "s"),
        "certified_per_s": (len(sizes) / busy_s, "1/s"),
        "output_size_geomean": (
            math.exp(statistics.fmean(math.log(x) for x in sizes))
            if sizes else 0.0, "elements"),
        "peak_rss_mb": (run["bye"]["peak_rss_mb"], "MB"),
    }, {"tail_percentile": tail_pct, "samples": len(times)}


def per_layer(run: dict) -> dict:
    bye = run["bye"]
    summary = bye["trace"]
    nreq = max(1, len(run["requests"]))
    spans = summary["spans"]
    out = {"cli.import_s": (bye["import_s"], "s")}
    for name in SPAN_NAMES:
        a = spans[name]
        out[f"{name}.calls"] = (a["calls"] / nreq, "count/req")
        out[f"{name}.self_s"] = (a["self_s"] / nreq, "s/req")
        out[f"{name}.total_s"] = (a["total_s"] / nreq, "s/req")
    for name in KERNELS:
        out[f"{name}.bytes"] = (spans[name]["bytes"] / nreq, "B_computed/req")
    out["carriers.action_tables.entries"] = (
        sum(a["entries"] for n, a in spans.items()
            if n.endswith(".action_tables")) / nreq, "count/req")
    nested = summary["nested"]

    def per_call(count, name):
        return count / max(1, spans[name]["calls"])

    out["spectra.power_lambda2.matvecs_per_call"] = (
        per_call(nested["matvecs_in_power"], "spectra.power_lambda2"), "count")
    out["combine.compact.measures_per_call"] = (
        per_call(nested["measures_in_compact"], "combine.compact"), "count")
    out["combine.reduce_to_quarter.rounds_per_call"] = (
        per_call(nested["rounds_in_reduce"], "combine.reduce_to_quarter"),
        "count")
    out["abexp.final_R.calls_per_request"] = (
        spans["abexp.final_R"]["calls"] / nreq, "count")
    busy = sum(r["time_s"] for r in run["requests"])
    out["trace.overhead_frac"] = (
        bye["per_call_s"] * summary["span_count"] / busy if busy else 0.0,
        "ratio")
    return out


# ---------------------------------------------------------------------------
# the run

class Context:
    def __init__(self, root: Path, workload: str, seed: int, trace: int,
                 run_dir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.run_dir = run_dir
        path = [str(root / "src"), str(HERE)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def check(out: dict, digest: str | None) -> None:
    """The correctness gate applied to every request's output."""
    if out["lambda2"] > out["target"] + out["tolerance"]:
        raise RequestFailed(f"re-check {out['lambda2']} above target "
                            f"{out['target']}")
    if digest is not None and digest != out["digest"]:
        raise RequestFailed("output differs from an earlier output for the "
                            "same input")


def load_digests(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def spawn_ref(ctx: Context, timeout: float) -> float:
    try:
        return spawn_reference(ctx.env, ctx.root, timeout)
    except (OSError, subprocess.SubprocessError) as e:
        raise RequestFailed(f"spawn reference failed: {e}") from None


def local_slowdowns(requests: list[dict], last: float | None) -> list[float]:
    """Per request, the slowdown from the spawn refs on either side of it."""
    refs = [r.get("ref") for r in requests] + [last]
    out = []
    for pair in zip(refs, refs[1:]):
        known = [x for x in pair if x is not None]
        out.append(spawn_slowdowns([known[0], known[-1]])[0]
                   if known else 1.0)
    return out


def run(ctx: Context, seconds: float, started: float) -> dict:
    client = CliClient(ctx) if ctx.workload == "solvable-cli" \
        else LibClient(ctx)
    labels = [item["label"] for item in pool(ctx.workload)]
    setup_s = []
    setup_refs = []   # spawn refs before and after every set-up
    try:
        for r in range(SETUP_REPEATS):
            setup_refs.append(spawn_ref(ctx, REQUEST_TIMEOUT_S))
            t0 = time.perf_counter()
            ready = client.setup(last=r == SETUP_REPEATS - 1)
            setup_s.append(time.perf_counter() - t0)
        setup_refs.append(spawn_ref(ctx, REQUEST_TIMEOUT_S))

        errors = [f"group {name}: order {order}, expected "
                  f"{GROUPS[name].order}"
                  for name, order in ready["orders"].items()
                  if GROUPS[name].order != order]
        digest_path = ctx.root / STATE / "digests" / f"{ctx.workload}.json"
        known = load_digests(digest_path)
        seen = {}
        rng = random.Random(ctx.seed)
        requests = []
        refs = []     # run-wide reference slice times (library workloads)
        done = 0
        for p in range(passes(ctx.workload, seconds)):
            if time.perf_counter() - started > RUN_LIMIT_S:
                break
            # the first pass fills the caches in canonical order, so cold
            # costs and the memory peak do not depend on the seed
            order = list(range(len(labels)))
            if p:
                order = [k for k in order
                         if labels[k] not in ONCE.get(ctx.workload, ())]
                rng.shuffle(order)
            for k in order:
                label = labels[k]
                timeout = min(REQUEST_TIMEOUT_S,
                              175 - (time.perf_counter() - started))
                t0 = time.perf_counter()
                req = {"label": label, "ok": False}
                try:
                    ref = client.reference(timeout)
                    if client.local_reference:
                        req["ref"] = ref[0]
                    else:
                        refs += ref
                        req["ref"] = statistics.median(ref)
                    t0 = time.perf_counter()
                    out = client.request(k, timeout)
                    req["time_s"] = time.perf_counter() - t0
                    check(out, known.get(label, seen.get(label)))
                    seen[label] = out["digest"]
                    req.update(ok=True, size=out["size"])
                except RequestFailed as e:
                    errors.append(f"{label}: {e}")
                    req.setdefault("time_s", time.perf_counter() - t0)
                requests.append(req)
                if not req["ok"]:
                    if not client.alive():
                        break
            if not client.alive():
                break
            done += 1
        last_ref = None
        if client.local_reference and requests:
            with contextlib.suppress(RequestFailed):
                last_ref = client.reference(REQUEST_TIMEOUT_S)[0]
        try:
            bye = client.finish()
        except RequestFailed as e:
            raise RequestFailed("; ".join([str(e), *errors])) from None
    finally:
        if isinstance(client, LibClient) and client.worker is not None:
            client.worker.close(timeout=5)

    digest_path.parent.mkdir(parents=True, exist_ok=True)
    merged = dict(seen, **known)
    tmp = digest_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    tmp.replace(digest_path)
    if client.local_reference:
        factors = local_slowdowns(requests, last_ref)
    else:
        factors = [slowdown(refs)] * len(requests)
    for req, f in zip(requests, factors):
        req["slowdown"] = f
    return {"setup_s": setup_s, "requests": requests, "passes": done,
            "planned_passes": passes(ctx.workload, seconds),
            "speed": statistics.median(factors or [1.0]),
            "setup_refs": setup_refs,
            "setup_slowdowns": spawn_slowdowns(setup_refs),
            "bye": bye, "env": ready["env"],
            "orders": ready["orders"], "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "cayexp" / "__init__.py").is_file():
        print("error: run from the repository root; src/cayexp not found",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    state = root / STATE
    run_dir = state / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    ctx = Context(root, args.workload, args.seed, args.trace, run_dir)
    try:
        result = run(ctx, args.seconds, started)
        if args.trace:
            spans = run_dir / "spans.jsonl"
            if spans.exists():
                (state / "traces").mkdir(exist_ok=True)
                spans.replace(state / "traces" /
                              f"{args.workload}-s{args.seed}.spans.jsonl")
    except RequestFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    e2e, extra = end_to_end(result)
    raw, _ = end_to_end(result, raw=True)
    metrics = per_layer(result) if args.trace else e2e
    env = result["env"]
    attempted = len(result["requests"])
    failed = sum(not r["ok"] for r in result["requests"])
    correct = attempted > 0 and not result["errors"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {result['passes']} host slowdown "
          f"x{result['speed']:.4f}")
    if result["passes"] < result["planned_passes"]:
        print(f"NOTE: ran {result['passes']} of {result['planned_passes']} "
              f"passes before the {RUN_LIMIT_S} s run limit")
    print("env " + json.dumps(env, sort_keys=True))
    if env["backend"] != BASELINE_BACKEND:
        print(f"FLAG: kernel backend {env['backend']} differs from the "
              f"baseline's {BASELINE_BACKEND}; timings are not comparable")
    if result["orders"]:
        print("group orders (schreier_sims) " + " ".join(
            f"{k}={v}" for k, v in sorted(result["orders"].items())))
    print(f"requests attempted {attempted} failed {failed} "
          f"failed_frac {failed / max(1, attempted):.4f} ratio")
    prefix = "traced " if args.trace else ""
    for name, (value, unit) in e2e.items():
        note = ""
        if unit in ("s", "1/s"):
            note = f"  (raw wall {raw[name][0]:.6g} {unit})"
        if name == "request_tail_s":
            note += (f"  p{extra['tail_percentile']:.1f} of "
                     f"{extra['samples']} samples")
        print(f"{prefix}{name} {value:.6g} {unit}{note}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
    for err in result["errors"]:
        print(f"FAIL {err}", file=sys.stderr)
        print(f"FAIL {err}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "passes": result["passes"],
              "attempted": attempted, "failed": failed,
              "end_to_end": {k: v[0] for k, v in e2e.items()},
              "raw": {k: v[0] for k, v in raw.items()},
              "tail_percentile": extra["tail_percentile"],
              "speed": result["speed"],
              "setup_refs": result["setup_refs"],
              "per_layer": {k: v[0] for k, v in metrics.items()}
              if args.trace else {},
              "env": env, "errors": result["errors"],
              "requests": result["requests"],
              "setup_runs_s": result["setup_s"]}
    results = state / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-t{args.trace}-s{args.seed}-"
               f"{time.time_ns()}.json").write_text(json.dumps(record) + "\n")

    # the result line carries exactly the metrics BENCHMARK.json lists
    listed = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in
             listed["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n][0]
                        if math.isfinite(metrics[n][0]) else 1e9,
                        "unit": metrics[n][1]} for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
