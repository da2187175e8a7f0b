"""Runs one command as a child of its own and reports what it cost.

Usage: python -S spawn.py TIMEOUT_S STDOUT_PATH STDERR_PATH PROGRAM [ARG...]

Prints one JSON line: {"rc", "t_spawn", "wall_s", "cpu_s", "maxrss_kib"}.
t_spawn is time.perf_counter() just before the spawn; wall_s runs from
there to the child's exit. CPU time and peak RSS come from os.wait4. The
child is killed after TIMEOUT_S seconds.

Why a separate process: at exec, Linux carries the peak RSS of the
replaced address space into the new program's ru_maxrss, and posix_spawn
execs from within the caller's address space. A child spawned straight
from the benchmark, which holds the inputs and the oracles' arrays, would
report the benchmark's own peak whenever that is the larger. This process
imports nothing beyond the standard library, so its peak is small.
"""

import json
import os
import select
import signal
import sys
import time


def main() -> int:
    timeout, out, err, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], timeout)
        if not exited:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t_spawn
    print(json.dumps({
        "rc": os.waitstatus_to_exitcode(status),
        "t_spawn": t_spawn,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,  # KiB on Linux
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
