#!/usr/bin/env python3
"""Run ``verify`` on the fine tier: ``robin_ellipse``, ``neumann_disk`` and
``ball3d_robin`` (the r-weighted meridian assembly) at ``mesh.h_target``
0.00625, the size the memory and time budgets refer to.

Usage (from anywhere)::

    python3 scripts/fine_tier.py

Each config runs once, in its own child process (``python -m pmclab verify``
on this checkout's ``src``), with BLAS pinned to one thread.  One line per
run gives the wall time from spawn to exit, the child's peak RSS from
``os.wait4``, the exit code and the status of its ``report.json``.  The
script exits 1 unless every run exits 0 with status ``ok``.  It checks no
bound on time or memory: peak RSS depends on the machine's libraries.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIGS = ("robin_ellipse", "neumann_disk", "ball3d_robin")
H_TARGET = 0.00625
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def run(name, out):
    """One ``verify`` child: (wall s, peak RSS MB, exit code, status)."""
    argv = [sys.executable, "-m", "pmclab", "verify",
            "--config", str(REPO / "configs" / f"{name}.json"),
            "--out", str(out), "--override", f"mesh.h_target={H_TARGET}"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHOME"}
    env.update(THREADS, PYTHONPATH=str(REPO / "src"))
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    code = os.waitstatus_to_exitcode(status)
    try:
        report_status = json.loads((out / "report.json").read_text())["status"]
    except (OSError, ValueError, KeyError):
        report_status = None
    return wall, usage.ru_maxrss / 1024.0, code, report_status


def main():
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            wall, rss, code, status = run(name, Path(tmp) / name)
            print(f"{name} h {H_TARGET}: wall {wall:.2f} s, peak RSS "
                  f"{rss:.1f} MB, exit {code}, status {status}", flush=True)
            ok &= code == 0 and status == "ok"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
