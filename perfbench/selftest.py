#!/usr/bin/env python3
"""Toy-size self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload on toy inputs (karate and jazz-syn k=3 q=10, a 2000-
vertex ring, three jazz-syn/com-dblp-syn signatures over a few dozen
service requests), untraced and traced, and asserts that:
  - each run exits 0 and reports correct answers;
  - each run prints exactly the metrics BENCHMARK.json names for its
    mode, each with the declared unit;
  - the traced replay reproduced the untraced run (a divergence makes the
    run fail, so a passing traced run is the proof);
  - a corrupted reference fingerprint makes the run fail with a non-zero
    exit code and a non-zero fail_rate;
  - --compare passes two identical sides, and fails a change side that
    has runs with wrong answers, whose times stay out of the medians.
Exit code 0 when every check passes.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(workload, trace, out, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy", "--out", out, *extra],
        capture_output=True, text=True, cwd=REPO_ROOT)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done.stderr


def compare(base_runs, change_runs, stem):
    """Runs --compare on two results files made of the given runs."""
    paths = [f"{stem}-base.json", f"{stem}-change.json"]
    for path, runs in zip(paths, (base_runs, change_runs)):
        with open(path, "w") as f:
            json.dump({"runs": runs}, f)
    try:
        done = subprocess.run([sys.executable, RUN, "--compare", *paths],
                              capture_output=True, text=True, cwd=REPO_ROOT)
    finally:
        for path in paths:
            os.remove(path)
    return done.returncode, done.stdout


def service_mix_run(units, correct, seconds):
    """A results-file run of service-mix whose every metric reads `seconds`."""
    return {"workload": "service-mix", "trace": 0, "provenance": {"toy": False},
            "correct": correct, "attempted": 100, "failed": 0 if correct else 1,
            "metrics": {name: {"value": seconds, "unit": unit} for name, unit in units.items()}}


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    out = os.path.join(REPO_ROOT, ".bench_build", f"selftest-{os.getpid()}.json")
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)
        print(("ok   " if condition else "FAIL ") + message)

    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                code, result, stderr = run(workload, trace, out)
                name = f"{workload} trace={trace}"
                if result is None:
                    check(False, f"{name}: printed no result ({stderr.strip()[-300:]})")
                    continue
                check(code == 0 and result["correct"] and result["failed"] == 0,
                      f"{name}: exit 0 with correct answers"
                      + ("" if trace == 0 else " and a matching traced replay"))
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                check(units == declared[trace],
                      f"{name}: every declared metric with its unit")
        code, result, _ = run("seq-branch", 0, out, "--corrupt-expected")
        with open(out) as f:
            last = json.load(f)["runs"][-1]
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0 and last["fail_rate"] > 0,
              "corrupted reference fingerprint: non-zero exit and fail_rate")

        steady = [service_mix_run(declared[0], True, 1 + i / 100) for i in range(5)]
        code, _ = compare(steady, steady, out)
        check(code == 0, "--compare: identical sides pass")
        # Three of five runs wrong: were they counted, the medians would
        # read their 9 s and flag every metric.
        wrong = steady[:2] + [service_mix_run(declared[0], False, 9.0)] * 3
        code, text = compare(steady, wrong, out)
        check(code == 1 and "FAILURES" in text and "WORSE" not in text,
              "--compare: wrong answers fail the change and stay out of the medians")
    finally:
        if os.path.exists(out):
            os.remove(out)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
