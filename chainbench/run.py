#!/usr/bin/env python3
"""Builds the chain benchmark from the repository sources and runs one workload.

    python3 chainbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                              [--smoke] [--break-oracle]

Run it from the root of a checkout. The first run configures and builds
(Release) into .bench_build/chainbench; later runs only rebuild what changed.
Build output goes to stderr; the benchmark's own output (a metadata line, then
the result line) goes to stdout. Span files of traced runs land in .bench_out/.
The exit code is the benchmark's: 0 when every correctness gate held.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "chainbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("campus_aprad", "live_fabric", "city_mloc", "wps_sweep")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("chainbench: the repository sources (src/) are missing next to the benchmark")
    if not shutil.which("cmake"):
        sys.exit("chainbench: cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", *generator, "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("chainbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(BUILD), "--target", "chainbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("chainbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-tests)")
    parser.add_argument("--break-oracle", action="store_true",
                        help="perturb one oracle answer; the gate must fire (self-tests)")
    args = parser.parse_args()

    build()
    OUT.mkdir(exist_ok=True)
    cmd = [str(BUILD / "chainbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", str(OUT)]
    if args.smoke:
        cmd.append("--smoke")
    if args.break_oracle:
        cmd.append("--break-oracle")
    sys.stdout.flush()
    # A terminated runner must not leave the benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"chainbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
