#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build lives in .bench_build/perfbench
and is reused by later runs. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, when the program cannot be built or a run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "prpb_perfbench"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "prpb_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    run = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
