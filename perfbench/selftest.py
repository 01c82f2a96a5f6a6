#!/usr/bin/env python3
"""Proves the benchmark can fail. Two servers broken on purpose:

  * miss served with --max-concurrency=1 must move loaded_rps by more than
    its bound in BENCHMARK.json;
  * hit served with --cache-entries=0 must trip the hit-ratio guard.

    python3 perfbench/selftest.py [--seed N]

Exits 0 when the benchmark caught both, 1 otherwise. Takes about three
benchmark runs' time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, server_args=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    command += ["--server-arg=" + arg for arg in server_args]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    seconds = config["run_seconds"]
    bound = next(m["bound"] for m in config["end_to_end"]
                 if m["name"] == "loaded_rps")
    ok = True

    code, healthy, _ = run("miss", args.seed, seconds)
    if code != 0 or healthy is None or not healthy["correct"]:
        print("FAIL: the healthy miss run did not pass (exit %d)" % code)
        return 1
    code, starved, _ = run("miss", args.seed, seconds,
                           ["--max-concurrency=1"])
    if code != 0 or starved is None:
        print("FAIL: the --max-concurrency=1 miss run did not finish")
        return 1
    before = healthy["metrics"]["loaded_rps"]["value"]
    after = starved["metrics"]["loaded_rps"]["value"]
    worse = (before - after) / before
    caught = worse > bound
    ok &= caught
    print("%s: miss --max-concurrency=1 loaded_rps %.1f -> %.1f req/s "
          "(%.0f%% worse, bound %.0f%%)" % (
              "ok" if caught else "FAIL", before, after, 100 * worse,
              100 * bound))

    code, uncached, stderr = run("hit", args.seed, seconds,
                                 ["--cache-entries=0"])
    caught = (code != 0 and uncached is not None and
              not uncached["correct"] and "hit ratio below 0.99" in stderr)
    ok &= caught
    print("%s: hit --cache-entries=0 %s the hit-ratio guard (exit %d)" % (
        "ok" if caught else "FAIL", "tripped" if caught else "did not trip",
        code))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
