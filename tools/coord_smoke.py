#!/usr/bin/env python3
"""Coordinator smoke test: boots THREE `kplex_cli serve --listen`
workers and one `kplex_cli coordinate` daemon, runs a coordinated mine
through `mine --endpoint DAEMON`, SIGKILLs one worker while its chunk
is running, registers a fourth worker mid-job through `coordctl`, and
asserts the merged result is byte-identical to a single-process run —
then runs the same mine through `mine --endpoints` (an in-process
coordinator) over the live workers.

Usage: coord_smoke.py path/to/kplex_cli

Checks (any failure exits non-zero):
  1. three workers and the daemon boot; the daemon banner reports the
     workers registered;
  2. a framed single-process `mine` on worker A yields the reference
     plex count, max size, and fingerprint;
  3. during the coordinated mine, worker B is SIGKILLed while a real
     chunk is running on it, and worker D registers late via coordctl;
  4. `mine --endpoint DAEMON` still reports exactly the single-process
     count, max size, and fingerprint;
  5. `coordctl workers` shows B dead and D schedulable;
  6. `mine --endpoints A,C,D` reports the same count, max size, and
     fingerprint;
  7. `mine` refuses a flag only another mine mode reads: a local mine
     with --graph/--io-timeout, and `--endpoints` with --store (whose
     directory must never be created);
  8. daemon and surviving workers shut down cleanly on SIGTERM.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

# A workload heavy enough that the coordinated mine stays running
# while we kill a worker and register another (several seconds single
# process), yet CI-friendly.
GRAPH, K, Q = ("ee", 4, 12)
PRELOAD = "dataset ee email-euall-syn\n"


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def roundtrip(self, line):
        self.file.write(line + "\n")
        self.file.flush()
        return self.file.readline().rstrip("\n")

    def close(self):
        self.sock.close()


def fail(message):
    print(f"coord_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def boot(args, banner_pattern, what):
    process = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    port = None
    for _ in range(64):
        line = process.stdout.readline()
        if not line:
            break
        match = re.match(banner_pattern, line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        process.kill()
        fail(f"{what} did not print its banner")
    return process, port


def boot_worker(cli, script_path):
    return boot(
        [cli, "serve", "--listen", "0", "--workers", "2",
         "--script", script_path],
        r"serving on 127\.0\.0\.1:(\d+) ", "worker")


def boot_daemon(cli, endpoints):
    return boot(
        [cli, "coordinate", "--listen", "0",
         "--workers", ",".join(endpoints)],
        r"coordinating on 127\.0\.0\.1:(\d+) ", "daemon")


def reference_mine(port):
    client = LineClient(port)
    hello = json.loads(client.roundtrip("hello proto=5 mode=framed"))
    if hello.get("proto") != 5:
        fail(f"worker speaks protocol {hello.get('proto')}, need 5")
    response = json.loads(client.roundtrip(json.dumps(
        {"id": 1, "cmd": "mine", "graph": GRAPH, "k": K, "q": Q})))
    client.close()
    if response.get("state") != "done":
        fail(f"reference mine: {response!r}")
    return (response["plexes"], response["max_size"],
            response["fingerprint"])


def wait_for_running_chunk(port, deadline):
    """Polls a worker's job table until a non-empty shard chunk runs."""
    while time.monotonic() < deadline:
        try:
            client = LineClient(port)
            client.roundtrip("hello proto=5 mode=framed")
            jobs = json.loads(client.roundtrip(
                json.dumps({"id": 1, "cmd": "jobs"})))
            client.close()
        except (OSError, json.JSONDecodeError):
            time.sleep(0.05)
            continue
        for job in jobs.get("jobs", []):
            query = job.get("query", {})
            if (job.get("state") == "running"
                    and query.get("seed_end", 0) > query.get("seed_begin", 0)):
                return True
        time.sleep(0.05)
    return False


def coordctl(cli, daemon_port, *args):
    run = subprocess.run(
        [cli, "coordctl", f"127.0.0.1:{daemon_port}", *args],
        capture_output=True, text=True, timeout=60)
    if run.returncode != 0:
        fail(f"coordctl {' '.join(args)} exited {run.returncode}: "
             f"{run.stdout!r} {run.stderr!r}")
    return json.loads(run.stdout)


def parse_verdict(output):
    match = re.search(
        r"^mine .* via .*: (\d+) plexes, max size (\d+), "
        r"fingerprint (0x[0-9a-f]{16})", output, re.MULTILINE)
    if not match:
        fail(f"cannot parse the mine verdict: {output!r}")
    return (int(match.group(1)), int(match.group(2)), match.group(3))


def check_mode_refusals(cli):
    """A mine mode refuses the flags only another mode reads."""
    karate = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "data", "karate.txt")
    local = subprocess.run(
        [cli, "mine", "--input", karate, "--k", "2", "--q", "6",
         "--graph", "foo", "--io-timeout", "5"],
        capture_output=True, text=True, timeout=60)
    if local.returncode == 0 or "does not apply" not in local.stderr:
        fail(f"local mine accepted --graph/--io-timeout: "
             f"{local.stdout!r} {local.stderr!r}")
    with tempfile.TemporaryDirectory() as tmp_dir:
        store = os.path.join(tmp_dir, "store")
        remote = subprocess.run(
            [cli, "mine", "--endpoints", "127.0.0.1:1", "--graph", GRAPH,
             "--k", "2", "--q", "6", "--store", store],
            capture_output=True, text=True, timeout=60)
        if remote.returncode == 0 or "does not apply" not in remote.stderr:
            fail(f"mine --endpoints accepted --store: "
                 f"{remote.stdout!r} {remote.stderr!r}")
        if os.path.exists(store):
            fail("mine --endpoints --store created the store directory")


def main():
    if len(sys.argv) != 2:
        fail("usage: coord_smoke.py path/to/kplex_cli")
    cli = sys.argv[1]

    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as script:
        script.write(PRELOAD)
        preload = script.name

    processes = []
    try:
        a, port_a = boot_worker(cli, preload)
        processes.append(a)
        b, port_b = boot_worker(cli, preload)
        processes.append(b)
        c, port_c = boot_worker(cli, preload)
        processes.append(c)
        daemon, daemon_port = boot_daemon(
            cli, [f"127.0.0.1:{port}" for port in (port_a, port_b, port_c)])
        processes.append(daemon)

        plexes, max_size, fingerprint = reference_mine(port_a)
        print(f"coord_smoke: single-process reference: {plexes} plexes, "
              f"{fingerprint}")

        mine = subprocess.Popen(
            [cli, "mine", "--endpoint", f"127.0.0.1:{daemon_port}",
             "--graph", GRAPH, "--k", str(K), "--q", str(Q)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        processes.append(mine)

        # Kill worker B the moment a real chunk is running on it — the
        # coordinator must requeue that chunk on the survivors.
        deadline = time.monotonic() + 60
        if not wait_for_running_chunk(port_b, deadline):
            fail("no chunk ever ran on worker B (workload too small for "
                 "the kill window?)")
        b.send_signal(signal.SIGKILL)
        b.wait()
        print("coord_smoke: worker B SIGKILLed mid-chunk")

        # A fourth worker joins the running job.
        d, port_d = boot_worker(cli, preload)
        processes.append(d)
        ack = coordctl(cli, daemon_port, "register", f"127.0.0.1:{port_d}")
        if ack.get("type") != "worker_ack" or ack.get("state") != "idle":
            fail(f"late register not acked: {ack!r}")
        print("coord_smoke: worker D registered mid-job")

        output = mine.communicate(timeout=600)[0]
        if mine.returncode != 0:
            fail(f"coordinated mine exited {mine.returncode}: {output!r}")
        got = parse_verdict(output)
        if got != (plexes, max_size, fingerprint):
            fail(f"coordinated {got} != single-process "
                 f"({plexes}, {max_size}, {fingerprint})")
        print(f"coord_smoke: coordinated mine == single process "
              f"({plexes} plexes, {fingerprint})")

        table = coordctl(cli, daemon_port, "workers")
        states = {worker["endpoint"]: worker["state"]
                  for worker in table.get("workers", [])}
        if states.get(f"127.0.0.1:{port_b}") != "dead":
            fail(f"worker B not marked dead: {states!r}")
        if states.get(f"127.0.0.1:{port_d}") not in ("idle", "busy"):
            fail(f"late worker D not schedulable: {states!r}")
        print("coord_smoke: roster shows B dead, D joined")

        endpoints = ",".join(f"127.0.0.1:{port}"
                             for port in (port_a, port_c, port_d))
        run = subprocess.run(
            [cli, "mine", "--endpoints", endpoints, "--graph", GRAPH,
             "--k", str(K), "--q", str(Q)],
            capture_output=True, text=True, timeout=600)
        if run.returncode != 0:
            fail(f"mine --endpoints exited {run.returncode}: "
                 f"{run.stdout!r} {run.stderr!r}")
        got = parse_verdict(run.stdout)
        if got != (plexes, max_size, fingerprint):
            fail(f"mine --endpoints {got} != single-process "
                 f"({plexes}, {max_size}, {fingerprint})")
        print("coord_smoke: mine --endpoints == single process")

        check_mode_refusals(cli)
        print("coord_smoke: mine modes refuse each other's flags")

        for process in (daemon, a, c, d):
            process.send_signal(signal.SIGTERM)
        for process in (daemon, a, c, d):
            try:
                code = process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                fail("a process did not shut down within 30s of SIGTERM")
            if code != 0:
                fail(f"a process exited {code} on SIGTERM")
        print("coord_smoke: OK")
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()


if __name__ == "__main__":
    main()
