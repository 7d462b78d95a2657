"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps the public entry points listed in ``TARGETS`` and
rebinds every name under which a ``cayexp`` module holds the original
function (``combine`` does ``from .spectra import dense_lambda2``, so
patching ``spectra`` alone would miss those calls). Methods are wrapped on
their class. The package source is not modified.

A span is (name, parent span, start, end, request id); kernel spans also
record the bytes of their array arguments and result, action-table spans the
number of table entries built. Spans stay in memory until ``summary``
aggregates them; self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public entry points (Class.method for methods)
TARGETS = {
    "cli": ("cmd_build_expander", "cmd_verify"),
    "bsgs": ("schreier_sims", "BSGS.contains"),
    "series": ("derived_series", "quotient_context"),
    "carriers": ("PermCarrier.action_tables", "QuotientCarrier.action_tables",
                 "VectorCarrier.action_tables"),
    "multiset": ("multiset",),
    "spectra": ("second_eigenvalue", "dense_lambda2", "power_lambda2",
                "bias_exhaustive", "graph_info"),
    "_kernels": ("cayley_matvec", "dense_adjacency", "char_sums",
                 "greedy_scores", "bfs_distances"),
    "fields": ("construct_field",),
    "combine": ("solvable_expander", "compact", "reduce_to_quarter",
                "square_multiset", "derandomized_square", "measure_exact",
                "aux_family"),
    "abexp": ("final_R", "greedy_expander", "product_base_expander",
              "abelian_quotient_expander"),
    "epsbias": ("zdn_bias_space", "verify_bias"),
    "general": ("general_expander",),
}


def span_name(module: str, qualname: str) -> str:
    # metric names must start with a letter
    return f"{module.lstrip('_')}.{qualname}"


SPAN_NAMES = tuple(span_name(m, q) for m, qs in TARGETS.items() for q in qs)
KERNELS = tuple(span_name("_kernels", q) for q in TARGETS["_kernels"])


def empty_summary() -> dict:
    return {"spans": {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                          "bytes": 0, "entries": 0} for n in SPAN_NAMES},
            "nested": {"matvecs_in_power": 0, "measures_in_compact": 0,
                       "rounds_in_reduce": 0},
            "span_count": 0}


def _nbytes(args) -> int:
    """Bytes of the array arguments (the computed traffic of a kernel)."""
    return sum(int(getattr(a, "nbytes", 0)) for a in args)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.extra: dict[int, int] = {}   # span -> computed bytes or entries
        self.request = -1

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self.stack, self.extra
        kernel = name in KERNELS
        tables = name.endswith(".action_tables")
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, self.request)
            if kernel:
                extra[idx] = _nbytes(args) + _nbytes((out,))
            elif tables:
                extra[idx] = int(out[0].size)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded cayexp namespace."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "cayexp" or k.startswith("cayexp.")}
        for modname, quals in TARGETS.items():
            mod = mods.get(f"cayexp.{modname}")
            if mod is None:
                continue
            for qual in quals:
                name = span_name(modname, qual)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, qual)
                wrapped = self.wrap(name, orig)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name totals plus the parent-relative counts."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[1] >= 0:
                child[s[1]] += s[3] - s[2]
        out = empty_summary()
        agg, nested = out["spans"], out["nested"]
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            name, parent, t0, t1, _ = s
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[idx]
            if name in KERNELS:
                a["bytes"] += self.extra.get(idx, 0)
            else:
                a["entries"] += self.extra.get(idx, 0)
            pname = self.spans[parent][0] if parent >= 0 else None
            if name == "kernels.cayley_matvec" \
                    and pname == "spectra.power_lambda2":
                nested["matvecs_in_power"] += 1
            elif name == "combine.measure_exact" and pname == "combine.compact":
                nested["measures_in_compact"] += 1
            elif pname == "combine.reduce_to_quarter" and name in (
                    "combine.square_multiset", "combine.derandomized_square"):
                nested["rounds_in_reduce"] += 1
        out["span_count"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        """Write the raw spans, one JSON array per line."""
        with open(path, "w") as f:
            for s in self.spans:
                if s is not None:
                    f.write(json.dumps(s) + "\n")


def calibrate(calls: int = 20000) -> float:
    """Seconds the wrapper adds to one call, measured on a no-op."""
    def noop():
        return None
    wrapped = Tracer().wrap("calibrate", noop)
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best_plain = min(best_plain, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    return max(0.0, (best_wrapped - best_plain) / calls)


def merge(summaries) -> dict:
    """Sum several processes' summaries (the CLI workload's children)."""
    out = empty_summary()
    for s in summaries:
        for n, a in s["spans"].items():
            for k, v in a.items():
                out["spans"][n][k] += v
        for k, v in s["nested"].items():
            out["nested"][k] += v
        out["span_count"] += s["span_count"]
    return out
