"""Spawns benchmark ops on request and reports their resource usage.

The benchmark starts one launcher per run and has it spawn every op, so
that ops are forked from this small process.  On Linux a child's peak
RSS (``ru_maxrss``) is at least the RSS of the process it was forked
from, and the benchmark process itself holds the generated table and
the reference split.

Protocol: one JSON request per stdin line,
``{"argv", "cwd", "env", "log", "timeout"}``; one JSON reply per stdout
line, ``{"spawn_t", "wall_s", "cpu_s", "rss_kb", "exit_code"}``.
``spawn_t`` is ``time.perf_counter()`` just before the spawn (on Linux
``CLOCK_MONOTONIC``, shared by every process on the machine).  The
launcher exits at end of input.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        spawn_t = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"], stdout=log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(request["timeout"], os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - spawn_t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "spawn_t": spawn_t,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "exit_code": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
