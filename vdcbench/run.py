#!/usr/bin/env python3
"""Build the simulator benchmark from this checkout and run one workload.

    python3 vdcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds vdcbench (and the simulator libraries under src/) into
.bench_build/vdcbench at the checkout root, then runs the benchmark binary.
The last line of standard output is the binary's JSON result; build output
goes to standard error. Reports and trace spans are written to
.bench_build/vdcbench/reports.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "vdcbench")


def git_sha():
    # Only a checkout that is itself a git work tree has a commit to report;
    # git must not walk up into an enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"vdcbench: simulator sources not found under {ROOT}/src", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "vdcbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tamper-digest", action="store_true",
                        help="corrupt one repetition's digest (self-test of the checks)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(BUILD, "reports"), "--git-sha", git_sha()]
    if args.tamper_digest:
        cmd.append("--tamper-digest")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
