#!/usr/bin/env python3
"""Build and run the craysim end-to-end sweep benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Configures and builds perfbench/ (which compiles the craysim libraries it
links from src/) into .bench_build/perfbench, then runs the benchmark binary
from the checkout root with the given flags. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit status is
the benchmark's; a failed build exits 1 without printing a result.
"""
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TMP = ROOT / ".bench_build" / "tmp"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: craysim sources (src/) not found beside perfbench/", file=sys.stderr)
        return False
    # The compiler's scratch files stay inside the checkout too.
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr, env=env).returncode == 0


def main():
    # Turn SIGTERM into an exception so the child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        return 1
    command = [str(BUILD / "perfbench"), *sys.argv[1:], "--tmp-dir", str(TMP)]
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
        # The benchmark removes its work directory itself; this covers a
        # child that was killed before it could.
        for leftover in TMP.glob(f"perfbench-*-{child.pid}"):
            shutil.rmtree(leftover, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
