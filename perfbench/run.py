#!/usr/bin/env python3
"""The repository benchmark: builds podium_serve and the runner from this
checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload hit|miss|shard --seed N \
        --seconds S --trace 0|1

Run it from the root of a podium checkout. The last line of stdout is the
JSON result; everything before it is the human-readable ledger. See
perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Build outputs, generated profiles and traces stay inside the checkout.
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(OUT_DIR, "build")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the Release binaries; build chatter
    goes to stderr so stdout ends with the result line."""
    for needed in ("src/CMakeLists.txt", "tools/podium_serve.cc",
                   "bench/common/flags.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("not a podium checkout: %s is missing" % needed)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 4)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs,
         "--target", "podium_serve", "perfbench_runner"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    # A fresh build leaves its objects dirty in the page cache; write them
    # back now rather than during the first run's timed phases.
    os.sync()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hit", "miss", "shard"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--server-arg", action="append", default=[],
                        help="extra podium_serve flag (used by selftest.py)")
    args = parser.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as error:
        fail("build failed (%s)" % error)

    command = [
        os.path.join(BUILD_DIR, "perfbench_runner"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--serve-binary=" + os.path.join(BUILD_DIR, "podium_serve"),
        "--out-dir=" + OUT_DIR,
    ] + ["--server-arg=" + flag for flag in args.server_arg]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, preexec_fn=die_with_parent).returncode)


def die_with_parent():
    """Runs in the runner's process before exec: if this script is killed,
    the kernel kills the runner (which in turn takes its server down)."""
    import ctypes
    pr_set_pdeathsig, sigkill = 1, 9
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, sigkill)


if __name__ == "__main__":
    main()
