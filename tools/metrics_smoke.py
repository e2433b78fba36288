#!/usr/bin/env python3
"""Observability smoke test: boots `kplex_cli serve --listen`, drives
real traffic through it, and asserts the metrics surface reports that
traffic in all three forms — text table, Prometheus exposition, and the
framed-JSON `metrics` verb — plus the coordinator-side metrics via
`--metrics-dump`.

Usage: metrics_smoke.py path/to/kplex_cli

Checks (any failure exits non-zero):
  1. after a dataset load and two identical mines, a raw text-wire
     `metrics` scrape shows non-zero request counters, cache hit AND
     miss counters, stage/request latency histograms, and the queue
     depth gauge series;
  2. a `metrics format=prom` scrape carries the same series in
     Prometheus text format (counter samples, histogram _bucket/_count);
  3. `kplex_cli metrics --endpoint` renders all three --format modes;
  4. a coordinated mine against the live worker plus a fake worker that
     drops its connection on its first chunk completes with the same
     answer anyway, and the coordinator's `--metrics-dump` shows
     kplex_coord_requeues_total >= 1, kplex_coord_workers_left_total
     >= 1, and a non-empty kplex_coord_chunk_seconds histogram;
  5. the server still shuts down cleanly on SIGTERM (exit 0).
"""

import json
import re
import signal
import socket
import subprocess
import sys
import threading


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, line):
        self.file.write(line + "\n")
        self.file.flush()

    def readline(self):
        return self.file.readline().rstrip("\n")

    def roundtrip(self, line):
        self.send(line)
        return self.readline()

    def close(self):
        self.sock.close()


def fail(message):
    print(f"metrics_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def scrape_table(port):
    """Raw text-wire scrape: `metrics` -> counters/gauges/histograms."""
    client = LineClient(port)
    header = client.roundtrip("metrics")
    match = re.fullmatch(r"metrics (\d+) series", header)
    if not match:
        fail(f"table scrape header: {header!r}")
    counters, gauges, histograms = {}, {}, {}
    for _ in range(int(match.group(1))):
        line = client.readline()
        kind, name, rest = line.split(" ", 2)
        if kind == "counter":
            counters[name] = int(rest)
        elif kind == "gauge":
            gauges[name] = int(rest)
        elif kind == "histogram":
            fields = dict(part.split("=", 1) for part in rest.split(" "))
            histograms[name] = {"count": int(fields["count"]),
                                "sum": float(fields["sum"]),
                                "p50": float(fields["p50"])}
        else:
            fail(f"unrecognized series line: {line!r}")
    client.close()
    return counters, gauges, histograms


def scrape_prom(port):
    """Raw text-wire scrape in Prometheus form -> list of body lines."""
    client = LineClient(port)
    header = client.roundtrip("metrics format=prom")
    match = re.fullmatch(r"metrics prom (\d+) lines", header)
    if not match:
        fail(f"prom scrape header: {header!r}")
    lines = [client.readline() for _ in range(int(match.group(1)))]
    client.close()
    return lines


def prom_samples(lines):
    """name -> float for plain (label-free) samples in a prom dump."""
    samples = {}
    for line in lines:
        if line.startswith("#"):
            continue
        match = re.fullmatch(r"(\w+) (-?[0-9.e+-]+)", line)
        if match:
            samples[match.group(1)] = float(match.group(2))
    return samples


class FakeWorker(threading.Thread):
    """A coordination worker that answers `hello`, then drops the
    connection on its first `shardsubmit` — forcing the coordinator to
    requeue that chunk on the live worker and retire this one."""

    def __init__(self):
        super().__init__(daemon=True)
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.listener.settimeout(60)
        self.port = self.listener.getsockname()[1]

    def run(self):
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        conn.settimeout(60)
        try:
            file = conn.makefile("rw", encoding="utf-8", newline="\n")
            file.readline()  # "hello proto=N mode=framed"
            file.write('{"id":0,"ok":true,"type":"hello","proto":6,'
                       '"mode":"framed"}\n')
            file.flush()
            file.readline()  # the first shardsubmit: never answered
        except OSError:
            pass
        finally:
            conn.close()
            self.listener.close()


def coordinated_mine(cli, endpoints):
    return subprocess.run(
        [cli, "mine", "--endpoints", ",".join(endpoints), "--graph", "kc",
         "--k", "2", "--q", "6", "--metrics-dump"],
        capture_output=True, text=True, timeout=300)


def main():
    if len(sys.argv) != 2:
        fail("usage: metrics_smoke.py path/to/kplex_cli")
    cli = sys.argv[1]
    server = subprocess.Popen(
        [cli, "serve", "--listen", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = server.stdout.readline().strip()
        if not banner.startswith("serving on 127.0.0.1:"):
            fail(f"unexpected banner: {banner!r}")
        port = int(banner.split(":")[1].split(" ")[0])
        endpoint = f"127.0.0.1:{port}"

        # Traffic: one load, two identical mines (miss then cache hit).
        text = LineClient(port)
        loaded = text.roundtrip("dataset kc karate")
        if not loaded.startswith("loaded kc:"):
            fail(f"dataset load: {loaded!r}")
        for _ in range(2):
            mined = text.roundtrip("mine kc 2 6")
            if "1 plexes" not in mined:
                fail(f"mine: {mined!r}")
        text.close()

        # 1. Text table scrape.
        counters, gauges, histograms = scrape_table(port)
        for name, floor in [("kplex_requests_mine_total", 2),
                            ("kplex_requests_dataset_total", 1),
                            ("kplex_engine_queries_total", 2),
                            ("kplex_engine_cache_misses_total", 1),
                            ("kplex_engine_cache_hits_total", 1),
                            ("kplex_dispatcher_jobs_submitted_total", 2),
                            ("kplex_catalog_loads_total", 1),
                            ("kplex_tcp_connections_total", 1)]:
            if counters.get(name, 0) < floor:
                fail(f"counter {name} = {counters.get(name)} < {floor}; "
                     f"have {sorted(counters)}")
        for name in ["kplex_dispatcher_queue_depth",
                     "kplex_tcp_active_connections",
                     "kplex_catalog_owned_bytes"]:
            if name not in gauges:
                fail(f"gauge {name} missing; have {sorted(gauges)}")
        for name, floor in [("kplex_request_mine_seconds", 2),
                            ("kplex_dispatcher_queue_wait_seconds", 2),
                            ("kplex_dispatcher_job_run_seconds", 2),
                            ("kplex_stage_enumerate_seconds", 1),
                            ("kplex_stage_cache_lookup_seconds", 2),
                            ("kplex_stage_catalog_load_seconds", 1),
                            ("kplex_session_serialize_seconds", 3)]:
            if histograms.get(name, {}).get("count", 0) < floor:
                fail(f"histogram {name} count "
                     f"{histograms.get(name, {}).get('count')} < {floor}")
        print("metrics_smoke: table scrape carries live traffic")

        # 2. Prometheus scrape over the same wire.
        prom = scrape_prom(port)
        samples = prom_samples(prom)
        if samples.get("kplex_requests_mine_total", 0) < 2:
            fail(f"prom kplex_requests_mine_total: "
                 f"{samples.get('kplex_requests_mine_total')}")
        if samples.get("kplex_request_mine_seconds_count", 0) < 2:
            fail(f"prom kplex_request_mine_seconds_count: "
                 f"{samples.get('kplex_request_mine_seconds_count')}")
        if "# TYPE kplex_request_mine_seconds histogram" not in prom:
            fail("prom output lacks the histogram TYPE line")
        if not any(re.fullmatch(
                r'kplex_request_mine_seconds_bucket\{le="\+Inf"\} [1-9]\d*',
                line) for line in prom):
            fail("prom output lacks a non-zero +Inf bucket for mine latency")
        print("metrics_smoke: prometheus scrape matches")

        # 3. The CLI client, all three formats.
        table = subprocess.run(
            [cli, "metrics", "--endpoint", endpoint],
            capture_output=True, text=True, timeout=60)
        if table.returncode != 0 or \
                "counter kplex_requests_mine_total" not in table.stdout:
            fail(f"cli table: rc={table.returncode} {table.stdout!r} "
                 f"{table.stderr!r}")
        prom_cli = subprocess.run(
            [cli, "metrics", "--endpoint", endpoint, "--format", "prom"],
            capture_output=True, text=True, timeout=60)
        if prom_cli.returncode != 0 or \
                "# TYPE kplex_requests_mine_total counter" \
                not in prom_cli.stdout:
            fail(f"cli prom: rc={prom_cli.returncode} {prom_cli.stdout!r}")
        framed = subprocess.run(
            [cli, "metrics", "--endpoint", endpoint, "--format", "json"],
            capture_output=True, text=True, timeout=60)
        if framed.returncode != 0:
            fail(f"cli json: rc={framed.returncode} {framed.stderr!r}")
        frame = json.loads(framed.stdout)
        if frame.get("type") != "metrics":
            fail(f"cli json frame type: {frame.get('type')!r}")
        framed_counters = {c["name"]: c["value"]
                           for c in frame.get("counters", [])}
        if framed_counters.get("kplex_requests_metrics_total", 0) < 1:
            fail(f"framed metrics verb counter: {framed_counters}")
        if not any(h.get("name") == "kplex_request_mine_seconds"
                   and h.get("count", 0) >= 2
                   for h in frame.get("histograms", [])):
            fail("framed scrape lacks the mine latency histogram")
        print("metrics_smoke: kplex_cli metrics renders table, prom, json")

        # 4. Coordinator metrics: the live worker is listed first, so it
        # answers the planning probe; the fake worker drops its lane on
        # the first chunk it pops, which --metrics-dump must account for.
        clean = coordinated_mine(cli, [endpoint])
        if clean.returncode != 0:
            fail(f"clean coordinated mine: rc={clean.returncode} "
                 f"{clean.stdout!r} {clean.stderr!r}")
        answer = re.search(r": (\d+ plexes, max size \d+, fingerprint "
                           r"0x[0-9a-f]{16})", clean.stdout)
        if not answer:
            fail(f"cannot parse the coordinated verdict: {clean.stdout!r}")

        requeued = None
        for _ in range(3):
            fake = FakeWorker()
            fake.start()
            run = coordinated_mine(cli, [endpoint, f"127.0.0.1:{fake.port}"])
            fake.join(timeout=60)
            if run.returncode != 0:
                fail(f"requeue-path coordinated mine: rc={run.returncode} "
                     f"{run.stdout!r} {run.stderr!r}")
            dump = prom_samples(run.stderr.splitlines())
            # The fake lane almost always pops a chunk before the live
            # lane drains the queue; retry the attempt if it lost that
            # race and the run went through without a requeue.
            if dump.get("kplex_coord_requeues_total", 0) >= 1:
                requeued = (run, dump)
                break
        if requeued is None:
            fail("no attempt produced a chunk requeue")
        run, dump = requeued
        if answer.group(1) not in run.stdout:
            fail(f"requeued mine result drifted: {run.stdout!r} vs "
                 f"{answer.group(1)!r}")
        if dump.get("kplex_coord_workers_left_total", 0) < 1:
            fail("the retired fake worker was not counted as left")
        if dump.get("kplex_coord_chunk_seconds_count", 0) < 1:
            fail(f"chunk histogram count: "
                 f"{dump.get('kplex_coord_chunk_seconds_count')}")
        print("metrics_smoke: chunk requeue accounted for in --metrics-dump")

        server.send_signal(signal.SIGTERM)
        try:
            code = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            fail("server did not shut down within 30s of SIGTERM")
        if code != 0:
            fail(f"server exited {code}: {server.stdout.read()!r}")
        print("metrics_smoke: OK")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    main()
