"""Child processes of the benchmark: environment, timing and peak memory."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0


def pin_blas_threads() -> None:
    """Pin BLAS threads; must run before numpy is imported."""
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)


def child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    ready_s: float  # time to the first stdout line, or the wall time
    maxrss_mb: float


def run_child(argv, cwd, stderr_path, wait_ready: bool = False) -> ChildResult:
    """Run one child to completion and collect its resource usage.

    ``os.wait4`` reaps the child so that its own peak RSS is known; with
    ``wait_ready`` the time to its first line of output is also recorded.
    A child still running after ``CHILD_TIMEOUT_S`` is killed.
    """
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            head = proc.stdout.readline() if wait_ready else b""
            ready = perf_counter() - t0
            out = head + proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        stdout=out,
        stderr=Path(stderr_path).read_bytes(),
        wall_s=wall,
        ready_s=ready if wait_ready else wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )
