#!/usr/bin/env python3
"""CLI smoke test: drives `kplex_cli mine` in each of its modes against
known answers and checks that removed spellings and bad flags fail.

Usage: cli_smoke.py path/to/kplex_cli

Checks (any failure exits non-zero):
  1. karate k=2 q=6 has exactly 1 maximal plex, of size 6;
  2. `--output F` writes one line per counted plex;
  3. `--stream --top 3` prints 3 bodies, largest first, and `--maximum`
     prints the one plex of size 6;
  4. `--store DIR` run twice reports tier `computed`, then `disk`, with
     the same fingerprint (the `store tier` line), and refuses
     `--threads 1025` although the answer is on disk;
  5. the counts of `--seed-range 0:S` and `S:end` sum to the whole;
  6. `--endpoint` against `serve --listen 0` prints the same bodies and
     fingerprint as the local run;
  7. `--threads 2 --time-limit 0.05` on wiki-vote-syn reports the time
     limit and stops short of the 229,572 plexes of a full run, and
     `--threads 2 --max-results 1000` prints exactly 1,000 plexes with
     the cap hit;
  8. the fp baseline honours the run limits on wiki-vote-syn:
     `--max-results 5` prints 5 plexes with the cap hit, and
     `--time-limit 0.05` reports the time limit;
  9. negative and non-finite flags, thread counts above the 1024 bound
     (local and --store), the removed `query`/`max` commands, the
     removed `--coordinator`/`--chunk`/`--ctcp` flags, the removed
     `snapshot --format` and flags of another mine mode all exit
     non-zero.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile

VERDICT = re.compile(
    r"^mine (\S+)(?: via \S+)? k=(\d+) q=(\d+): (\d+) plexes, "
    r"max size (\d+), fingerprint (0x[0-9a-f]{16}), [0-9.]+s(.*)$",
    re.MULTILINE)


def fail(message):
    print(f"cli_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cli, *args, expect=0):
    """Runs `kplex_cli ARGS`; returns (body lines, verdict match, stdout)."""
    done = subprocess.run([cli, *args], capture_output=True, text=True,
                          timeout=120)
    if done.returncode != expect:
        fail(f"{' '.join(args)} exited {done.returncode}, expected {expect}: "
             f"{done.stdout!r} {done.stderr!r}")
    if expect != 0:
        return None, None, done.stderr
    verdict = VERDICT.search(done.stdout)
    if not verdict:
        fail(f"no verdict line from {' '.join(args)}: {done.stdout!r}")
    bodies = done.stdout[:verdict.start()].splitlines()
    return bodies, verdict, done.stdout


def count(verdict):
    return int(verdict.group(4))


def boot_worker(cli, script):
    server = subprocess.Popen(
        [cli, "serve", "--listen", "0", "--script", script],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    # The preload script's replies come first, then the banner.
    for line in server.stdout:
        match = re.match(r"serving on 127\.0\.0\.1:(\d+) ", line)
        if match:
            return server, int(match.group(1))
    server.kill()
    fail("worker did not print its banner")


def main():
    if len(sys.argv) != 2:
        fail("usage: cli_smoke.py path/to/kplex_cli")
    cli = sys.argv[1]
    karate = ["--dataset", "karate", "--k", "2"]

    _, verdict, _ = run(cli, "mine", *karate, "--q", "6")
    if (count(verdict), int(verdict.group(5))) != (1, 6):
        fail(f"karate k=2 q=6: {verdict.group(0)!r}")
    print("cli_smoke: karate k=2 q=6 = 1 plex of size 6")

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "plexes.txt")
        _, verdict, stdout = run(cli, "mine", *karate, "--q", "4",
                                 "--output", out)
        with open(out) as f:
            lines = f.read().splitlines()
        if len(lines) != count(verdict) or f"written to {out}" not in stdout:
            fail(f"--output wrote {len(lines)} lines for {verdict.group(0)!r}")
        whole = count(verdict)
        print(f"cli_smoke: --output holds all {whole} plexes")

        bodies, verdict, _ = run(cli, "mine", *karate, "--q", "4",
                                 "--stream", "--top", "3")
        sizes = [len(line.split()) for line in bodies]
        if len(bodies) != 3 or count(verdict) != 3 or \
                sizes != sorted(sizes, reverse=True):
            fail(f"--stream --top 3 printed {bodies!r}")
        bodies, verdict, _ = run(cli, "mine", *karate, "--maximum")
        if len(bodies) != 1 or len(bodies[0].split()) != 6 or \
                count(verdict) != 1:
            fail(f"--maximum printed {bodies!r}")
        print("cli_smoke: --top 3 best first, --maximum one plex of size 6")

        store = os.path.join(tmp, "store")
        tiers = []
        for _ in range(2):
            _, verdict, stdout = run(cli, "mine", *karate, "--q", "6",
                                     "--store", store)
            tier = re.search(r"^store tier: (\w+), fingerprint (0x[0-9a-f]+)",
                             stdout, re.MULTILINE)
            if not tier or tier.group(2) != verdict.group(6):
                fail(f"--store printed {stdout!r}")
            tiers.append((tier.group(1), tier.group(2)))
        if [t[0] for t in tiers] != ["computed", "disk"] or \
                tiers[0][1] != tiers[1][1]:
            fail(f"--store tiers {tiers!r}, expected computed then disk")
        # The answer is on disk now; a thread count above the bound is
        # refused all the same rather than served from it.
        _, _, stderr = run(cli, "mine", *karate, "--q", "6", "--store", store,
                           "--threads", "1025", expect=1)
        if "threads must be at most 1024" not in stderr:
            fail(f"--store answered --threads 1025 from disk: {stderr!r}")
        print("cli_smoke: --store computes once, then answers from disk")

    _, _, stdout = run(cli, "mine", *karate, "--q", "4",
                       "--seed-range", "0:0")
    total = re.search(r"of (\d+) total seeds", stdout)
    if not total:
        fail(f"no seed total in {stdout!r}")
    split = int(total.group(1)) // 2
    _, head, _ = run(cli, "mine", *karate, "--q", "4",
                     "--seed-range", f"0:{split}")
    _, tail, _ = run(cli, "mine", *karate, "--q", "4",
                     "--seed-range", f"{split}:end")
    if count(head) + count(tail) != whole or count(head) == 0:
        fail(f"shards {count(head)} + {count(tail)} != {whole}")
    print(f"cli_smoke: seed shards 0:{split} + {split}:end sum to {whole}")

    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as script:
        script.write("dataset kc karate\n")
    server, port = boot_worker(cli, script.name)
    try:
        local_bodies, local, _ = run(cli, "mine", *karate, "--q", "4",
                                     "--stream")
        remote_bodies, remote, _ = run(
            cli, "mine", "--endpoint", f"127.0.0.1:{port}", "--graph", "kc",
            "--k", "2", "--q", "4", "--stream")
        if remote_bodies != local_bodies or \
                remote.group(4, 5, 6) != local.group(4, 5, 6):
            fail(f"--endpoint {remote.group(0)!r} != local {local.group(0)!r}")
        server.send_signal(signal.SIGTERM)
        if server.wait(timeout=30) != 0:
            fail("the worker did not shut down cleanly")
    finally:
        if server.poll() is None:
            server.kill()
        os.unlink(script.name)
    print("cli_smoke: --endpoint streams the local bodies and fingerprint")

    _, verdict, _ = run(cli, "mine", "--dataset", "wiki-vote-syn", "--k", "3",
                        "--q", "11", "--threads", "2", "--time-limit", "0.05")
    if "[time limit hit]" not in verdict.group(7) or \
            count(verdict) >= 229572:
        fail(f"parallel time limit ignored: {verdict.group(0)!r}")
    print("cli_smoke: --threads 2 --time-limit 0.05 stops at the limit")

    _, verdict, _ = run(cli, "mine", "--dataset", "wiki-vote-syn", "--k", "3",
                        "--q", "12", "--threads", "2", "--max-results",
                        "1000")
    if count(verdict) != 1000 or "[result cap hit]" not in verdict.group(7):
        fail(f"parallel result cap not exact: {verdict.group(0)!r}")
    print("cli_smoke: --threads 2 --max-results 1000 prints 1000 plexes")

    wiki_fp = ["mine", "--dataset", "wiki-vote-syn", "--k", "3", "--algo",
               "fp"]
    bodies, verdict, _ = run(cli, *wiki_fp, "--q", "11", "--max-results", "5",
                             "--stream")
    if len(bodies) != 5 or count(verdict) != 5 or \
            "[result cap hit]" not in verdict.group(7):
        fail(f"fp --max-results 5 printed {len(bodies)} bodies: "
             f"{verdict.group(0)!r}")
    _, verdict, _ = run(cli, *wiki_fp, "--q", "9", "--time-limit", "0.05")
    if "[time limit hit]" not in verdict.group(7):
        fail(f"fp time limit ignored: {verdict.group(0)!r}")
    print("cli_smoke: --algo fp stops at --max-results and --time-limit")

    for flag, value in [("threads", "-1"), ("k", "-2"), ("top", "-1"),
                        ("time-limit", "nan"), ("tau-ms", "inf"),
                        ("contain", "-1")]:
        _, _, stderr = run(cli, "mine", *karate, "--q", "6", "--stream",
                           f"--{flag}", value, expect=1)
        if f"--{flag}" not in stderr:
            fail(f"--{flag} {value} refused without naming it: {stderr!r}")
    # Only counts above the 1024-thread bound, which are refused before
    # any thread starts.
    with tempfile.TemporaryDirectory() as tmp:
        for threads in ("1025", "4294967295"):
            for mode in ([], ["--store", os.path.join(tmp, "store")]):
                _, _, stderr = run(cli, "mine", *karate, "--q", "6", *mode,
                                   "--threads", threads, expect=1)
                if "threads must be at most 1024" not in stderr:
                    fail(f"--threads {threads} refused without the bound: "
                         f"{stderr!r}")
    for args in (["query", *karate, "--q", "6"], ["max", *karate],
                 ["mine", *karate, "--q", "6", "--chunk", "4"],
                 ["mine", *karate, "--q", "6", "--ctcp"],
                 ["snapshot", "--dataset", "karate", "--output",
                  os.devnull, "--format", "v1"],
                 ["mine", "--coordinator", "127.0.0.1:1", "--graph", "kc",
                  "--k", "2", "--q", "6"]):
        run(cli, *args, expect=2)
    for args in (["mine", *karate, "--q", "6", "--graph", "kc"],
                 ["mine", "--endpoints", "127.0.0.1:1", "--graph", "kc",
                  "--k", "2", "--q", "6", "--top", "3"],
                 ["mine", "--endpoint", "127.0.0.1:1", "--graph", "kc",
                  "--k", "2", "--q", "6", "--store", "unused"]):
        _, _, stderr = run(cli, *args, expect=1)
        if "does not apply" not in stderr:
            fail(f"{args!r} refused for the wrong reason: {stderr!r}")
    print("cli_smoke: bad flags, removed commands and cross-mode flags fail")
    print("cli_smoke: OK")


if __name__ == "__main__":
    main()
