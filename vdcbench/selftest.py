#!/usr/bin/env python3
"""Self-test of the benchmark at reduced run length.

    python3 vdcbench/selftest.py [--seconds S] [--workload NAME ...]

For every workload it runs the benchmark untraced and traced and checks that
the result line has exactly the contract's keys, that every metric named in
BENCHMARK.json is printed with its unit (and nothing else), and that all
output checks pass. It then checks that a tampered output digest counts as
a failed run, and that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exit status 0 when every check holds.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "vdcbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class Failures:
    def __init__(self):
        self.items = []

    def expect(self, ok, what):
        print(("  ok    " if ok else "  FAIL  ") + what)
        if not ok:
            self.items.append(what)


def check_result(fail, label, code, stdout, expected):
    res = result_of(stdout)
    fail.expect(code == 0, f"{label}: exit status 0 (got {code})")
    fail.expect(res is not None, f"{label}: last line is a JSON object")
    if res is None:
        return None
    fail.expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result has exactly correct/attempted/failed/metrics")
    fail.expect(res.get("correct") is True, f"{label}: correct is true")
    fail.expect(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
                f"{label}: attempted is a whole number >= 1")
    fail.expect(res.get("failed") == 0, f"{label}: runs_failed is 0")
    metrics = res.get("metrics", {})
    fail.expect(list(metrics) == [m["name"] for m in expected],
                f"{label}: metrics are exactly the BENCHMARK.json list")
    human = stdout.splitlines()
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        ok = (got.get("unit") == m["unit"] and isinstance(value, (int, float))
              and math.isfinite(value))
        printed = any(l.split()[:1] == [m["name"]] and l.split()[-1:] == [m["unit"]]
                      for l in human)
        fail.expect(ok and printed, f"{label}: {m['name']} printed with unit {m['unit']}")
    return res


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    fail = Failures()
    secs = repr(args.seconds)

    for name in names:
        print(f"{name}:")
        base = ["--workload", name, "--seed", str(SEED), "--seconds", secs]
        code, out, _ = run(base + ["--trace", "0"])
        check_result(fail, f"{name} untraced", code, out, bench["end_to_end"])
        code, out, _ = run(base + ["--trace", "1"])
        res = check_result(fail, f"{name} traced", code, out, bench["per_layer"])
        if res is not None and not name.startswith("trace_"):
            mism = res["metrics"].get("control.replay_mismatches", {}).get("value")
            fail.expect(mism == 0, f"{name} traced: control.replay_mismatches is 0")

    name = names[0]
    print(f"tampered digest ({name}):")
    code, out, _ = run(["--workload", name, "--seed", str(SEED), "--seconds", secs,
                        "--trace", "0", "--tamper-digest"])
    res = result_of(out)
    fail.expect(code != 0, "tampered run exits non-zero")
    fail.expect(res is not None and res.get("correct") is False and res.get("failed", 0) >= 1,
                "tampered run reports correct=false and a failed run")

    print("bare directory (BENCHMARK.json and the benchmark only):")
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run(["--workload", name, "--seed", str(SEED), "--seconds", secs,
                        "--trace", "0"], cwd=bare)
    fail.expect(code != 0, "bare directory: exits non-zero")
    fail.expect(result_of(out) is None, "bare directory: prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {'PASS' if not fail.items else 'FAIL (' + str(len(fail.items)) + ')'}")
    return 0 if not fail.items else 1


if __name__ == "__main__":
    sys.exit(main())
