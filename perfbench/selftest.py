#!/usr/bin/env python3
"""Self-test of the end-to-end sweep benchmark.

    python3 perfbench/selftest.py

Builds the benchmark (the same build run.py does), then checks that:
  1. every workload, run at the tiny size untraced and traced, exits 0 with
     "correct": true and prints every metric BENCHMARK.json names for that
     mode, with its unit, both on a "metric" line and in the JSON result;
  2. flipping one byte in one point's journal payload makes the digest check
     trip: exit 1, "correct": false, failed > 0;
  3. a bad flag value exits 2 with a one-line error and prints no result;
  4. no temp file survives any of these runs.
Exits 0 when every check passes.
"""
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
import run  # noqa: E402  (the build step lives there)

ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "selftest"
TMP = WORK / "tmp"
SPANS = WORK / "spans.json"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args):
    command = [str(run.BUILD / "perfbench"), "--size", "tiny", "--seconds", "1",
               "--tmp-dir", str(TMP), "--spans-out", str(SPANS), *args]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(TMP.is_dir() and not any(TMP.iterdir()), f"{' '.join(args)}: no temp file survives")
    return result


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    shutil.rmtree(WORK, ignore_errors=True)
    TMP.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            out = bench("--workload", workload, "--trace", str(trace))
            result = last_json(out.stdout)
            check(out.returncode == 0 and result is not None and result["correct"] is True
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: exits 0 with a correct result")
            if result is None:
                continue
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]), f"{label}: prints exactly the named metrics")
            for name, unit in expected[trace].items():
                printed = any(line.split()[:2] == ["metric", name] and line.split()[-1] == unit
                              for line in out.stdout.splitlines() if line.startswith("metric "))
                check(name in metrics and metrics[name]["unit"] == unit and printed,
                      f"{label}: {name} printed with unit {unit}")
            if trace == 1:
                check(SPANS.is_file() and "traceEvents" in SPANS.read_text(),
                      f"{label}: spans written at exit")
                SPANS.unlink(missing_ok=True)

    out = bench("--workload", "journaled_sweep", "--flip-journal-byte", "3")
    result = last_json(out.stdout)
    check(out.returncode == 1 and result is not None and result["correct"] is False
          and result["failed"] > 0, "flipped journal byte trips the digest check")

    out = bench("--workload", "cache_sweep", "--seed", "12x")
    check(out.returncode == 2 and out.stdout == "" and len(out.stderr.strip().splitlines()) == 1,
          "bad --seed value exits 2 with a one-line error")
    out = bench("--workload", "no_such_workload")
    check(out.returncode == 2 and out.stdout == "", "unknown workload exits 2")

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
