"""Benchmark worker: one fresh interpreter that sets a workload up, prints
"ready <CPU seconds used so far>" on stdout, then runs operations in a closed loop (the next one
starts only after the previous one returned) and streams one pickled record
per operation to WORKDIR/records.pkl. The parent checks the records with
the oracles; this process never imports scipy, so its peak RSS is the
program's.

Usage: python perfbench/worker.py WORKLOAD MODE SEED SECONDS WORKDIR
MODE is ``setup`` (stop after ready), ``run`` (untraced) or ``trace``
(half untraced, half traced, then the layer probe).
"""

import os
import sys
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    workload, mode, seed, seconds, workdir = sys.argv[1:6]
    sys.path.insert(0, ROOT)
    # Everything up to "ready" is the workload's set-up, timed by the parent
    # as setup_s, so nothing but quadmodel and set-up itself happens here.
    from perfbench.tracing import NullTracer, Tracer

    tracer = Tracer() if mode == "trace" else NullTracer()
    import quadmodel  # noqa: F401

    setup = None
    if workload == "tilt_sweep":
        from perfbench.setups import DESK_PARAMS, TILT_POLE, tilt_setup

        setup = tilt_setup(tracer, DESK_PARAMS, TILT_POLE)
    print(f"ready {process_time()!r}", flush=True)
    if mode == "setup":
        return 0
    from perfbench import workerops

    return workerops.run(workload, mode, int(seed), float(seconds), workdir, tracer, setup)


if __name__ == "__main__":
    sys.exit(main())
