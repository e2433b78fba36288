#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, derive the
metrics named in BENCHMARK.json, check answers, record the run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.json] [--toy] [--corrupt-expected]
    python3 perfbench/run.py --compare BASE.json CHANGE.json
    python3 perfbench/run.py --record

A run builds the perfbench binary (perfbench/CMakeLists.txt, against the
repository sources) into $CARGO_TARGET_DIR or .bench_build, runs it, and
prints a human table followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Each run is appended to
the results file (default <build dir>/results.json) with its provenance
and, per metric, the sample count, median and quartiles. --compare prints
both sides' failed operations and, over their correct runs, medians and
quartiles per workload and end-to-end metric; it flags only moves beyond
the metric's bound and a change that fails more often. --record rewrites
expected.txt from the default seed, cross-checking every answer against
ListPlex. The exit code is 0 only when every answer was right.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
EXPECTED = os.path.join(BENCH_DIR, "expected.txt")
WORKLOADS = ["seq-branch", "seq-seedgraph", "par-skew", "service-mix"]
DEFAULT_SEED = 1  # must match kDefaultSeed in bench.h
# ReferenceMillis() at full speed on the host the benchmark was tuned on
# (a 4-vCPU KVM guest of a shared Xeon host, AVX2 kernels): each run's
# times are rescaled to a host that runs the reference work this fast.
REFERENCE_MS = 5.7


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(REPO_ROOT, path)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            except OSError as error:
                print(f"perfbench: cannot run {step[0]}: {error}", file=sys.stderr)
                return None
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                print("perfbench: build failed", file=sys.stderr)
                # A failed configure must not leave a cache behind.
                if step is steps[0] and len(steps) == 2:
                    shutil.rmtree(out, ignore_errors=True)
                return None
    return os.path.join(out, "perfbench")


# ----------------------------------------------------------- statistics

def quantile(values, p):
    """Linear interpolation between closest ranks (same rule as the C++)."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = p * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def summary(values):
    """Sample count, median and quartiles (statistics.quantiles, n=4)."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0] if values else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def metric(value, unit, samples=None):
    entry = {"value": value, "unit": unit}
    entry.update(summary(samples if samples is not None else [value]))
    return entry


def fastest(rounds, kind):
    """Each position's fastest round: every round repeats the same fixed
    work in the same order (an engine pass over its instances, a service
    round over its request sequence)."""
    return [min(column) for column in zip(*(r[kind] for r in rounds))]


def host_slowdown(raw, pick=min):
    """How much slower than REFERENCE_MS the host ran the reference work
    in this run, at its fastest run or, with pick=statistics.median, at
    its median run (see README.md)."""
    millis = [x for r in raw["rounds"] for x in r["ref_ms"]]
    return pick(millis) / REFERENCE_MS if millis else 1.0


def rescaled(metrics, raw, medians=()):
    """Divides every time by the host's slowdown in the run (qps is
    multiplied), taken at the reference work's fastest run, or at its
    median run for the metrics in `medians`, which cost their own work by
    a median. The measured value stays in the results file as
    "unscaled"."""
    for name, entry in metrics.items():
        if name == "peak_rss_mib":
            continue
        slowdown = host_slowdown(raw, statistics.median if name in medians else min)
        entry["unscaled"] = entry["value"]
        entry["value"] = entry["value"] * slowdown if name == "qps" else entry["value"] / slowdown
    return metrics


def end_to_end(raw):
    """The end-to-end metrics of an untraced run (see README.md).

    Every timed piece of work is fixed and repeated many times in a run,
    each time on another CPU, and interference from other tenants of a
    shared host can only add to its time. So each piece is costed at its
    fastest repetition: setup_s is the fastest set-up repeat; a
    sequential pass is the sum of each instance's fastest run; a service
    request is its fastest round, and the latency percentiles are taken
    over the requests so costed. A parallel enumeration and a whole service round
    also depend on how their threads' work happens to interleave, which
    moves them both ways, so a parallel pass is the sum of each
    instance's median run, and mine_s and qps of the service mix are the
    median round.

    Tenants of a shared host also slow whole runs, by up to 1.5x for
    minutes at a time, which no fastest-repetition rule can undo. So last,
    every time is divided by the host's slowdown in the run: the fastest
    run of the benchmark's own reference work, interleaved with the timed
    work on the same CPUs, over REFERENCE_MS; a figure costed by a
    median takes the reference work's median run instead. The results
    file keeps each measured value ("unscaled") and the samples' count,
    median and quartiles."""
    rounds = raw["rounds"]
    seconds = [r["seconds"] for r in rounds]
    setup = metric(min(raw["setup_s"]), "s", raw["setup_s"])
    rss = metric(raw["peak_rss_kib"] / 1024.0, "MiB")
    if raw["workload"] != "service-mix":
        # Every run reports every end-to-end metric as a measured number.
        # An engine workload has no cache, store or request loop, so its
        # service metrics restate mine_s, the latency of its one query;
        # the results file marks them and --compare skips them.
        columns = list(zip(*(r["query_ms"] for r in rounds)))
        parallel = raw["threads"] > 1
        best = sum((statistics.median if parallel else min)(c) for c in columns) / 1e3
        metrics = {"setup_s": setup, "mine_s": metric(best, "s", seconds), "peak_rss_mib": rss}
        restated = {"cold_p50_ms": (best * 1e3, "ms"), "warm_p50_us": (best * 1e6, "us"),
                    "disk_p50_ms": (best * 1e3, "ms"), "query_p99_ms": (best * 1e3, "ms"),
                    "qps": (1.0 / best, "1/s")}
        for name, (value, unit) in restated.items():
            metrics[name] = dict(metric(value, unit), restates="mine_s")
        return rescaled(metrics, raw, set(metrics) - {"setup_s"} if parallel else ())

    queries = fastest(rounds, "query_ms")
    cold = fastest(rounds, "cold_ms")
    warm = fastest(rounds, "warm_us")
    # A round's restart phase asks every signature once per restart.
    disk = fastest(rounds, "disk_ms")
    disk = [min(disk[s::len(cold)]) for s in range(len(cold))]
    p99 = quantile(queries, 0.99)
    rates = [r["queries"] / r["seconds"] for r in rounds]
    metrics = {
        "setup_s": setup,
        "mine_s": metric(statistics.median(seconds), "s", seconds),
        "peak_rss_mib": rss,
        "cold_p50_ms": metric(quantile(cold, 0.5), "ms", cold),
        "warm_p50_us": metric(quantile(warm, 0.5), "us", warm),
        "disk_p50_ms": metric(quantile(disk, 0.5), "ms", disk),
        "query_p99_ms": metric(p99, "ms", queries),
        "qps": metric(statistics.median(rates), "1/s", rates),
    }
    # The p99 needs at least ten samples above it.
    metrics["query_p99_ms"]["above"] = sum(1 for ms in queries if ms > p99)
    return rescaled(metrics, raw, {"mine_s", "qps"})


def per_layer(raw):
    """The per-layer metrics of a traced run. A layer the workload does
    not run reports 0 (every run prints every metric)."""
    layers = raw.get("layers", {})
    r = layers.get("replay", {})
    c = r.get("counters", {})
    par = layers.get("parallel", {})
    svc = layers.get("service", {})
    total = r.get("total_s", 0.0)

    def share(seconds):
        return seconds / total if total > 0 else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    calls = c.get("branch_calls", 0)
    speedup = ratio(par.get("sequential_s", 0.0), par.get("parallel_s", 0.0))
    values = {
        "reduction.s": (r.get("reduction_s", 0.0), "s"),
        "reduction.share": (share(r.get("reduction_s", 0.0)), "ratio"),
        "reduction.kept_frac": (ratio(r.get("core_vertices", 0), r.get("graph_vertices", 0)), "ratio"),
        "seed_graph.s": (r.get("seed_graph_s", 0.0), "s"),
        "seed_graph.share": (share(r.get("seed_graph_s", 0.0)), "ratio"),
        "seed_graph.p50_us": (r.get("seed_graph_p50_us", 0.0), "us"),
        "seed_graph.p99_us": (r.get("seed_graph_p99_us", 0.0), "us"),
        "seed_graph.built_frac": (ratio(r.get("seeds_built", 0), r.get("seeds", 0)), "ratio"),
        "seed_graph.vertices_pruned": (c.get("seed_vertices_pruned", 0), "count"),
        "seed_graph.pair_edges_pruned": (c.get("pair_edges_pruned", 0), "count"),
        "subtask.s": (r.get("subtask_s", 0.0), "s"),
        "subtask.share": (share(r.get("subtask_s", 0.0)), "ratio"),
        "subtask.count": (c.get("subtasks", 0), "count"),
        "subtask.r1_pruned_frac": (ratio(c.get("subtasks_pruned_r1", 0),
                                         c.get("subtasks", 0) + c.get("subtasks_pruned_r1", 0)), "ratio"),
        "branch.s": (r.get("branch_s", 0.0), "s"),
        "branch.share": (share(r.get("branch_s", 0.0)), "ratio"),
        "branch.calls": (calls, "count"),
        "branch.ns_per_call": (ratio(r.get("branch_s", 0.0) * 1e9, calls), "ns"),
        "branch.ub_prunes": (c.get("ub_prunes", 0), "count"),
        "branch.shortcuts": (c.get("kplex_shortcuts", 0), "count"),
        "branch.outputs_per_call": (ratio(c.get("outputs", 0), calls), "ratio"),
        "sink.s": (r.get("sink_s", 0.0), "s"),
        "sink.emits": (r.get("sink_emits", 0), "count"),
        "seed.cost_p50_us": (r.get("seed_cost_p50_us", 0.0), "us"),
        "seed.cost_p99_us": (r.get("seed_cost_p99_us", 0.0), "us"),
        "seed.cost_max_share": (share(r.get("seed_cost_max_us", 0.0) * 1e-6), "ratio"),
        "parallel.speedup": (speedup, "x"),
        "parallel.efficiency": (ratio(speedup, par.get("threads", 0)), "ratio"),
        "parallel.timeout_spawns": (par.get("timeout_spawns", 0), "count"),
        "protocol.parse_us": (svc.get("parse_us", 0.0), "us"),
        "protocol.format_us": (svc.get("format_us", 0.0), "us"),
        "protocol.reply_bytes": (svc.get("reply_bytes", 0.0), "bytes"),
        "catalog.load_ms": (svc.get("load_ms", 0.0), "ms"),
        "catalog.hash_ms": (svc.get("hash_ms", 0.0), "ms"),
        "engine.hit_rate": (svc.get("hit_rate", 0.0), "ratio"),
        "engine.hit_us": (svc.get("hit_us", 0.0), "us"),
        "store.get_us": (svc.get("get_us", 0.0), "us"),
        "store.put_ms": (svc.get("put_ms", 0.0), "ms"),
        "trace.overhead": (ratio(total, r.get("untraced_s", 0.0)) - 1.0
                           if r.get("untraced_s") else 0.0, "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


# ------------------------------------------------------------ provenance

def git_state():
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", REPO_ROOT, *args], capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return {"commit": "unknown", "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": bool(status)}


def append_result(path, record):
    results = {"runs": []}
    if os.path.exists(path):
        with open(path) as f:
            results = json.load(f)
    results["runs"].append(record)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(results, f, indent=1)
    os.replace(path + ".tmp", path)


# --------------------------------------------------------------- commands

def run(args):
    binary = build()
    if binary is None:
        return 1
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    raw_path = work + ".raw.json"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", EXPECTED, "--workdir", work, "--raw-out", raw_path]
    if args.toy:
        command.append("--toy")
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    try:
        code = subprocess.call(command)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not os.path.exists(raw_path):
        print(f"perfbench: the binary wrote no record (exit {code})", file=sys.stderr)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    correct = code == 0 and raw["failed"] == 0 and not raw["errors"]
    provenance = git_state()
    provenance.update({key: raw[key] for key in (
        "build_type", "compiler", "kernels", "nproc", "threads", "seed", "toy",
        "run_seconds")})
    provenance["host_slowdown"] = {"fastest": host_slowdown(raw),
                                   "median": host_slowdown(raw, statistics.median)}
    append_result(args.out or os.path.join(build_dir(), "results.json"), {
        "workload": args.workload, "trace": args.trace, "provenance": provenance,
        "correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
        "fail_rate": raw["failed"] / max(1, raw["attempted"]),
        "errors": raw["errors"], "metrics": metrics})

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"threads={raw['threads']} kernels={raw['kernels']} "
          f"attempted={raw['attempted']} failed={raw['failed']}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>14.6g} {entry['unit']:6s} n={entry['n']}")
    print(json.dumps({
        "correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
        "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                    for name, e in metrics.items()}}))
    return 0 if correct else 1


def compare(base_path, change_path):
    """For each workload: both sides' runs and failed operations, then
    each end-to-end metric's median and quartiles over the side's correct
    runs (a run with a wrong answer or a diverged replay is left out).
    Flags moves beyond the metric's bound. Exits 1 when a flagged move is
    for the worse, or when the change fails a larger share of its
    operations than the base."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]
    sides = []
    for path in (base_path, change_path):
        with open(path) as f:
            runs = [r for r in json.load(f)["runs"]
                    if not r["trace"] and not r["provenance"]["toy"]]
        sides.append(runs)
    flagged = 0
    for workload in WORKLOADS:
        picked = [[r for r in runs if r["workload"] == workload] for runs in sides]
        if not picked[0] or not picked[1]:
            continue
        rates = []
        for label, runs in zip(("base", "change"), picked):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            wrong = sum(1 for r in runs if not r["correct"])
            rates.append(failed / max(1, attempted))
            print(f"{workload} {label}: {len(runs)} runs, {wrong} not correct (left "
                  f"out), {failed} of {attempted} operations failed")
        if rates[1] > rates[0]:
            print(f"{workload}: FAILURES the change fails {rates[1]:.3%} of its "
                  f"operations, the base {rates[0]:.3%}")
            flagged += 1
        correct = [[r for r in runs if r["correct"]] for runs in picked]
        restated = []
        print(f"  {'metric':14s} {'base median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s}  move")
        for spec in declared:
            name = spec["name"]
            if any(r["metrics"].get(name, {}).get("restates") for runs in picked for r in runs):
                restated.append(name)
                continue
            stats = [summary([r["metrics"][name]["value"] for r in runs
                              if name in r["metrics"]]) for runs in correct]
            if stats[0]["n"] == 0 or stats[1]["n"] == 0:
                print(f"  {name:14s} no correct run on one side")
                continue
            base, change = stats[0]["median"], stats[1]["median"]
            move = (change - base) / base if base else 0.0
            worse = move > 0 if spec["better"] == "lower" else move < 0
            mark = ""
            if abs(move) > spec["bound"]:
                mark = "WORSE" if worse else "better"
                flagged += worse
            cells = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"
                     for s in stats]
            print(f"  {name:14s} {cells[0]:>34s} {cells[1]:>34s}  {move:+.1%} {mark}")
        if restated:
            print(f"  not compared, they restate mine_s here: {', '.join(restated)}")
    return 1 if flagged else 0


def record():
    binary = build()
    if binary is None:
        return 1
    with open(EXPECTED, "w") as f:
        f.write("# Recorded answers of the default seed (%d): workload, query,\n"
                "# plex count, fingerprint. Each was cross-checked against\n"
                "# ListPlex when recorded (python3 perfbench/run.py --record).\n"
                % DEFAULT_SEED)
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    code = 0
    for workload in WORKLOADS:
        code |= subprocess.call([binary, "--workload", workload, "--seed",
                                 str(DEFAULT_SEED), "--workdir", work,
                                 "--record", EXPECTED])
    shutil.rmtree(work, ignore_errors=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="results file to append this run to")
    parser.add_argument("--toy", action="store_true", help="toy-size inputs")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip every reference fingerprint (self-test)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
