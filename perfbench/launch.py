"""One child launch (a CLI command or the calibration script): wall time, exit code, output and peak RSS of the child.

The child writes its stdout and stderr to files (``refine`` on mesh-rounds
prints hundreds of kilobytes, more than a pipe holds), and the parent
reaps it with ``os.wait4`` so the rusage it reads belongs to that child
alone. A timer kills the child at the timeout; the parent always reaps it
before returning.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Launch:
    argv: tuple[str, ...]
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    peak_rss_mb: float
    timed_out: bool


def cli_env(src: Path) -> dict[str, str]:
    """Environment that makes ``python3 -m ncwl`` import the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], env: dict[str, str], work: Path, timeout_s: float) -> Launch:
    return run_python(["-m", "ncwl", *args], env, work, timeout_s)


def run_python(args: list[str], env: dict[str, str], work: Path, timeout_s: float) -> Launch:
    """Launch ``python3 <args>`` and wait for it."""
    argv = (sys.executable, *args)
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    exit_code = os.waitstatus_to_exitcode(status)
    proc.returncode = exit_code  # reaped here, so Popen must not wait again
    return Launch(
        argv=argv,
        wall_s=wall,
        exit_code=exit_code,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        timed_out=killed.is_set(),
    )
