"""Reproduce the known defects the timed workloads leave out.

    python3 perfbench/known_defects.py      (from the repository root)

Every timed request of the benchmark must succeed, so inputs that hit a
known defect are served here instead, with the benchmark's own generators.
Each case prints whether the defect still shows; the script exits 0 when
every case ran, whatever it showed. Cases too costly to run on every check
are listed with their last observed cost and not run.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from groups import GROUPS  # noqa: E402

NOT_RUN = (
    "catalog A7 (order 5040): general_expander raises the same TypeError "
    "after ~94 s",
    "AGL(1,13): `cayexp build-expander` exits 1 with an uncaught "
    "AuxInfeasibleError after ~122 s",
    "Z2 wr Z2 wr Z2 wr Z2 (order 32768): MemoryError after ~590 s",
    "S4wrS2 at lambda 1/4 (this presentation): certifies, but takes ~17 s "
    "per CLI build, too slow for the solvable-cli pool",
)


def main() -> int:
    import cayexp
    cases = [
        ("S6", 0.0625, "TypeError from spectra.instance_seed via "
                       "combine._trim_support(seeded=True)"),
        ("PGL2_5", 0.0625, "reported TypeError; not reproduced with this "
                           "presentation"),
        ("A6", 0.0625, "certifies, but with total multiplicity 2^48"),
    ]
    for name, lam, defect in cases:
        g = cayexp.parse_group_file(GROUPS[name].group_file())
        t0 = time.perf_counter()
        try:
            total = cayexp.general_expander(g, lam).total
            outcome = f"returned |T| = {total}"
            if total & (total - 1) == 0:
                outcome += f" = 2^{total.bit_length() - 1}"
        except Exception as e:  # the defects under test raise
            outcome = f"raised {type(e).__name__}: {e}"
        print(f"{name} lambda={lam:g}: {outcome} after "
              f"{time.perf_counter() - t0:.2f} s  [known: {defect}]")
    for line in NOT_RUN:
        print(f"not run (cost): {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
