"""One ``cayexp`` command-line call, as the console script makes it.

Usage: cli_shim.py <cayexp arguments>, with the package on PYTHONPATH.
With PERFBENCH_TRACE_OUT=<file> set, the call is traced and the import time
and span summary are written to that file when the command returns.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    t0 = time.perf_counter()
    from cayexp import cli
    import_s = time.perf_counter() - t0
    if not out:
        return cli.main(sys.argv[1:])
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(out, "w") as f:
            json.dump({"import_s": import_s, "trace": tracer.summary()}, f)


if __name__ == "__main__":
    sys.exit(main())
