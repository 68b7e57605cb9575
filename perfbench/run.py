#!/usr/bin/env python3
"""Build and run the PnP tuner end-to-end benchmark (perfbench/NOTES.md).

    python3 perfbench/run.py --workload wire-table1 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
libraries, pnp_served and the pnp_perfbench driver into .bench_build/
(Release); later runs only re-check the build. The driver's last stdout
line is the result JSON; everything else goes to stderr. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORKLOADS = ("wire-table1", "wire-observe")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the two targets (a no-op when current)."""
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "-j", jobs,
         "--target", "pnp_perfbench", "pnp_served"],
        stdout=sys.stderr, check=True)
    return (os.path.join(cmake_dir, "pnp_perfbench"),
            os.path.join(cmake_dir, "pnp_served"))


def cleanup(work_dir):
    """Remove run directories a killed driver could not remove itself."""
    if not os.path.isdir(work_dir):
        return
    for name in os.listdir(work_dir):
        if name.startswith("run-"):
            shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run from the repository root: no sources to build here")
        return 1
    try:
        driver, served = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = os.path.join(BUILD_DIR, "perfbench")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--served", served]
    start = time.monotonic()
    # Own session: the driver and the daemons it forks share one process
    # group, which is killed as a whole if anything is left behind.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        cleanup(work_dir)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    cleanup(work_dir)
    log(f"driver exited {proc.returncode} after "
        f"{time.monotonic() - start:.1f} s")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return proc.returncode or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
