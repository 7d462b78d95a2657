"""Regenerate data/verify_large.json, the inputs of the verify-large workload.

Each entry is a symmetric multiset of k uniformly random elements of a group
of order 1e4 .. 5e4 and their inverses, with its second eigenvalue as the
package measures it (power iteration). Elements are drawn from the seed
string "<group>-<k>-<seed>", so the entries are the same on every run.

PICKS holds one (k, seed) per group: the candidate, among k in (3, 4, 6, 8)
and seeds 0..2 with lambda2 < 0.95, whose verification was fastest on a
2-core VM (best of two): PSL(2,29) 0.70 s, A8 0.72 s, S8 1.49 s. Short
requests give a run more samples. PSL(2,29) and A8 take about equally long,
so the median of a run falls among the samples of both.

Run from the repository root: PYTHONPATH=src python3 perfbench/make_verify_data.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from cayexp import (PermCarrier, format_perm, multiset, parse_group_file,
                    schreier_sims, second_eigenvalue)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from groups import GROUPS  # noqa: E402

OUT = Path(__file__).resolve().parent / "data" / "verify_large.json"
PICKS = {"PSL2_29": (3, 1), "A8": (3, 2), "S8": (4, 0)}


def random_element(bsgs, rng):
    p = None
    for lv in bsgs.levels:
        u = lv.transversal[rng.choice(sorted(lv.transversal))]
        p = u if p is None else u * p
    return p


def main() -> None:
    entries = []
    for name, (k, seed) in PICKS.items():
        gens = parse_group_file(GROUPS[name].group_file())
        bsgs = schreier_sims(gens)
        rng = random.Random(f"{name}-{k}-{seed}")
        els = [random_element(bsgs, rng) for _ in range(k)]
        ms = multiset([(e, 1) for e in els] + [(e.inv(), 1) for e in els])
        report = second_eigenvalue(PermCarrier.of(gens), ms)
        print(f"{name} k={k} seed={seed} lambda2={report.lambda2:.6f}")
        entries.append({
            "group": name,
            "multiset": [[m, format_perm(e)] for e, m in ms.pairs()],
            "lambda2": report.lambda2,
            "target": math.ceil(report.lambda2 * 100 + 1) / 100,
        })
    OUT.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
