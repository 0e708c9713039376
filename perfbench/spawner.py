"""Runs the cli_sim operations on behalf of run.py and reports, per
operation, its exit code, wall time, CPU time and peak RSS of the child.

A child's ru_maxrss also counts the memory of the process that spawned it
(Linux carries the pre-exec high-water mark across exec), so the children
are spawned from this small interpreter, which imports neither numpy nor
scipy, rather than from run.py.

Protocol: one JSON argv list per line on stdin, one JSON result per line on
stdout; an empty line or end of input stops it.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        if not line.strip():
            break
        argv = json.loads(line)
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        stderr = proc.stderr.read().decode("utf-8", "replace")
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "latency": latency,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss, "stderr": stderr[-2000:]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
