#!/usr/bin/env python3
"""Build and run the end-to-end tuning benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload tune-zoo --seed 1 --seconds 10 --trace 0

It configures and builds this directory's CMake project (which compiles the
library from src/) under .bench_build/, runs the `perfbench` program, and
passes its standard output through: the last line is the JSON result.
Build output goes to standard error. Extra modes:

    python3 perfbench/run.py --selftest          # sensitivity self-test
    python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 1 \\
        --attribution perfbench/attribution/W.json   # refresh a baseline
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; stop the program well before that.
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found next to "
                 f"{BENCH_DIR} (expected {REPO_ROOT}/src)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["tune-zoo", "tune-async", "service-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--attribution",
                        help="with --trace 1, write the per-layer self-time "
                             "table to this JSON file")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the sensitivity self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        if args.selftest:
            exe = build(build_dir, "perfbench_selftest")
            return subprocess.run([exe], timeout=600).returncode
        exe = build(build_dir, "perfbench")
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    scratch = os.path.join(build_dir, "scratch", str(os.getpid()))
    command = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--scratch={scratch}"]
    if args.attribution:
        command.append(f"--attribution={os.path.abspath(args.attribution)}")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
