"""Host speed references: fixed work timed around the requests.

Shared machines drift in speed by tens of percent within minutes, at times
by a factor of two: the mean time of verify-large requests over consecutive
12 s windows on a 2-core VM had an inter-quartile spread of 34 %, and
process CPU time tracks wall time, so the host itself runs slower. Raw wall
times of two runs then differ by more than any useful regression bound. The
benchmark therefore times this slice before every library request, in the
serving process, and reports time metrics in reference seconds: raw
seconds / slowdown, where slowdown is (median slice time over the run /
NOMINAL_S) ** ELASTICITY. The slice does no work of the
package, so a faster package cannot make it faster. It mixes interpreted
tuple work, as in permutation composition, with numpy gathers, as in the
Cayley matvec.

Work that starts processes drifts in its own way: a fresh interpreter that
imports numpy, the first thing every ``cayexp`` process does, tracks the
time of a CLI request or of a worker start far better than the slice does.
The slice's time had no correlation with single CLI request times (r = 0.05
over 24 requests), while the time of a fresh ``python3 -c "import numpy"``
had r = 0.69. So set-ups and CLI requests are divided by the mean of the
spawn references timed just before and just after each of them, over
NOMINAL_SPAWN_S: they are counted in fresh numpy imports. Over 6
solvable-cli runs this took the spread of setup_s from 0.216 to 0.076, and
that of request_p50_s from 0.051 to 0.042 (the host was calm).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time

import numpy as np

NOMINAL_S = 0.0018    # slice time on the reference host speed
SLICES = 3            # slices timed before each request
# The package's requests slow down about three quarters as much as the
# slice does: over 10 runs each of nonsolvable-lib, epsbias-lib and
# verify-large, the least-squares slope of the log of a run's speed (mean
# log request time against each request kind's median) on the log of its
# median slice time was 0.76, 0.77 and 0.77 (correlation 0.99, 0.87, 0.98).
ELASTICITY = 0.75

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal(20160)
_IDX = _RNG.integers(0, 20160, size=(4, 20160))


def reference_slice() -> float:
    """Seconds one fixed slice of work takes now."""
    t0 = time.perf_counter()
    p = tuple(range(16))
    q = p[1:] + p[:1]
    for _ in range(700):
        p = tuple(q[i] for i in p)
    y = np.zeros(20160)
    for _ in range(3):
        for idx in _IDX:
            y += _X[idx]
    return time.perf_counter() - t0


def sample() -> list[float]:
    return [reference_slice() for _ in range(SLICES)]


NOMINAL_SPAWN_S = 0.2        # spawn reference time on the reference host


def spawn_reference(env: dict, cwd, timeout: float) -> float:
    """Seconds a fresh interpreter takes to import numpy and exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import numpy"], cwd=cwd,
                            env=env)
    # Popen.wait(timeout) polls in sleeps of up to 50 ms, which would round
    # the time up to that grid; a blocking wait is exact.
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    dt = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return dt


def spawn_slowdowns(refs: list[float]) -> list[float]:
    """Slowdown of the work between refs[i] and refs[i + 1], per i."""
    return [(a + b) / 2 / NOMINAL_SPAWN_S for a, b in zip(refs, refs[1:])]


def slowdown(refs: list[float]) -> float:
    """Factor by which the host slowed the package's work, 1.0 if unknown."""
    if not refs:
        return 1.0
    return (statistics.median(refs) / NOMINAL_S) ** ELASTICITY
