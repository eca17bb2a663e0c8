"""Spawn and time processes on behalf of run.py, from a small process.

Linux carries the spawning process's resident set into the child's
`ru_maxrss` across fork and exec, so a child started by the benchmark
process (which holds parsed outputs) would report that process's size as
its own peak. This launcher stays small, so the peak RSS it reports is
the child's. It reads one JSON request per stdin line
(`argv`, `cwd`, `env`, `stdout`, `stderr`, `timeout`) and answers each with
one JSON line: `wall_s` from spawn to exit, `code`, `cpu_s` and `maxrss_kb`.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as stdout, open(request["stderr"], "wb") as stderr:
        start = time.perf_counter()
        process = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"], stdout=stdout, stderr=stderr
        )
        timer = threading.Timer(request["timeout"], process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        process.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "code": process.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
