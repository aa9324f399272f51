#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 specbench/run.py --workload lp-default --seed 1 --seconds 30 --trace 0

Builds the specbench package (CMake, Release; it compiles the program from
src/) into $CARGO_TARGET_DIR/specbench under the checkout root, default
.bench_build/specbench, then runs the benchmark binary from a scratch
directory inside that build tree and removes the directory afterwards. The
binary's stdout passes through unchanged: its last line is the JSON result.
Build output goes to stderr. Exits non-zero, printing no result, when the
build or the run fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "specbench")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-written cache would skip configuration next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--heldout", action="store_true",
                        help="use the workload's held-out campaign seeds")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "specbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build(build_dir):
            print("specbench: build failed", file=sys.stderr)
            return 1

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(build_dir, "specbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.heldout:
        command.append("--heldout")
    try:
        # On timeout, run() kills the benchmark and waits for it.
        return subprocess.run(command, cwd=work,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("specbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
