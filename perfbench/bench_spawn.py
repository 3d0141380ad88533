"""Run one command; print its exit code, wall time and peak RSS as JSON.

Usage: python3 perfbench/bench_spawn.py TIMEOUT_S LOG -- <command ...>

The benchmark starts every timed child through this small interpreter.
Linux carries a process's high-water RSS across fork and exec, so a child
forked straight from the benchmark driver, which holds numpy, the generated
inputs and parsed outputs, would report the driver's peak instead of its
own. The wall time runs from just before the command is spawned until it
has been reaped; a command still running after TIMEOUT_S is killed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    timeout, log_path, cmd = float(argv[0]), argv[1], argv[3:]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"exit_code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
