"""The four request pools. Pure data: the client reads it without the package.

A run serves a fixed number of whole passes over its pool: as many as
--seconds hold at the nominal pass time PASS_S. Fixed work keeps the mix and
the sample count of a run the same on every seed and on every commit, so
medians, tail ranks and geometric means compare; a faster commit finishes
sooner instead of serving a different mix. Inputs are identical across
seeds; the seed decides the order of every pass after the first.
"""

from __future__ import annotations

import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Every pool has an odd number of requests and every run an odd number of
# passes, so the median falls inside one request kind's block of samples
# rather than on the boundary between two kinds.

# `cayexp build-expander` + `cayexp verify` in fresh processes, lambda 1/4.
# Abelian quotients with primes 2 and 3, so abexp.final_R and fields run
# cold in every process. A4 takes about 0.7 s, Z12 3 s (served once, see
# ONCE), and S4, Syl2_S8 and Z6 1.2 to 1.8 s each, so the median of a run
# falls in the middle of those three kinds' nine samples.
CLI_GROUPS = ("A4", "S4", "Syl2_S8", "Z6", "Z12")
CLI_LAMBDA = 0.25

# general_expander + second_eigenvalue in one process: permutation carriers,
# dense eigensolves, convolution squaring over perms. A6 at 1/16 returns a
# multiset of total 2^48 (a known defect, counted in output_size_geomean).
# It takes 3 s, as long as the other eight requests together, so it is
# served once per run, in the first pass (see ONCE).
NONSOLVABLE = (("A5", 0.25), ("A5", 0.0625), ("S5", 0.25), ("S5", 0.0625),
               ("PGL2_5", 0.25), ("PGL2_5", 0.0625), ("PSL2_7", 0.25),
               ("PSL2_7", 0.0625), ("A6", 0.0625))

# zdn_bias_space + verify_bias in one process: fields, final_R, the greedy
# kernel, FFT bias and FFT squaring. Both eps values of a (d, n) share the
# final_R cache entry of their (n, primes), so repeats hit the caches a
# service would.
EPSBIAS = (((2, 12), 0.25), ((2, 12), 0.0625), ((2, 16), 0.25),
           ((2, 16), 0.0625), ((3, 8), 0.25), ((3, 8), 0.0625),
           ((4, 6), 0.25), ((4, 6), 0.0625), ((5, 6), 0.25), ((5, 6), 0.0625),
           ((6, 4), 0.25), ((6, 4), 0.0625), ((6, 5), 0.25), ((6, 5), 0.0625),
           ((7, 4), 0.0625), ((12, 3), 0.25), ((12, 3), 0.0625))


def pool(workload: str) -> list[dict]:
    """The requests of one pass, in canonical order."""
    if workload == "solvable-cli":
        return [{"label": f"{g}@{CLI_LAMBDA:g}", "group": g,
                 "lam": CLI_LAMBDA} for g in CLI_GROUPS]
    if workload == "nonsolvable-lib":
        return [{"label": f"{g}@{lam:g}", "group": g, "lam": lam}
                for g, lam in NONSOLVABLE]
    if workload == "epsbias-lib":
        return [{"label": f"Z{d}^{n}@{eps:g}", "d": d, "n": n, "eps": eps}
                for (d, n), eps in EPSBIAS]
    if workload == "verify-large":
        entries = json.loads((DATA / "verify_large.json").read_text())
        return [dict(e, label=f"{e['group']}|S|={sum(m for m, _ in e['multiset'])}")
                for e in entries]
    raise KeyError(workload)


WORKLOADS = ("solvable-cli", "nonsolvable-lib", "epsbias-lib", "verify-large")

# Pool labels served in the first pass only: each takes 2 to 4 s, about
# twice as long as any other request of its pool or more. Every later pass leaves
# them out, so a run holds more samples of the other requests. The totals
# stay odd (5 + 4, 9 + 8 and 3 + 2 per later pass).
ONCE = {"solvable-cli": ("Z12@0.25",), "nonsolvable-lib": ("A6@0.0625",),
        "verify-large": ("S8|S|=8",)}

# nominal seconds per pass on the 2-core reference host, leaving out ONCE
# requests, and the nominal seconds of those
PASS_S = {"solvable-cli": 5.5, "nonsolvable-lib": 2.1, "epsbias-lib": 3.0,
          "verify-large": 1.5}
ONCE_S = {"solvable-cli": 3.2, "nonsolvable-lib": 3.1, "verify-large": 1.9}


def passes(workload: str, seconds: float) -> int:
    """The odd number of passes nearest to what --seconds hold."""
    n = (seconds - ONCE_S.get(workload, 0.0)) / PASS_S[workload]
    return max(1, 2 * round((n - 1) / 2) + 1)
