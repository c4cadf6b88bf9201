"""The benchmark's one timer: spawn a process, wait for it, read its rusage."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Spawned:
    wall_s: float  # from just before spawn to just after exit
    maxrss_mb: float  # largest resident set of the process or any child it waited for
    exit_code: int


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, *, env, stdout: Path, stderr: Path, timeout_s: float) -> Spawned:
    """Run argv to completion in its own process group, with output to files.

    The rusage comes from os.wait4 on the child.  A child still running after
    timeout_s is killed with its whole group and reported with its signal as
    a negative exit code.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, start_new_session=True
        )
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child's group before leaving
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers the child left behind, if any
    return Spawned(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0
