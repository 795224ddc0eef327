#!/usr/bin/env python3
"""Repository benchmark: build the simulator and the benchmark program from
source, then run one workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --selftest

--all runs every workload of BENCHMARK.json, timed and then traced.

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else .bench_build, and the traced run's span files to .bench_out. See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BINARY_NAME = "aurora_perfbench"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", BINARY_NAME])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, BINARY_NAME)


def revision():
    """The git revision, or a hash of the benchmarked sources when the
    checkout is not a git repository."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    """Checker self-test, then every workload at tiny sizes in both modes:
    each result must carry exactly the metrics BENCHMARK.json names, with
    their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        log("checker self-test failed")
        return 1
    problems = []
    for workload in spec["workloads"]:
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            name = workload["name"]
            proc = subprocess.run(
                [binary, "--workload=" + name, "--seed=3", "--seconds=0.5",
                 "--trace=" + trace, "--tiny", "--out-dir=.bench_out/selftest"],
                capture_output=True, text=True)
            where = "%s trace=%s" % (name, trace)
            known = len(problems)
            if proc.returncode != 0:
                problems.append("%s exited %d: %s" % (where, proc.returncode, proc.stderr[-500:]))
                continue
            result = last_json_line(proc.stdout)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
                continue
            if not result["correct"]:
                problems.append("%s: outputs incorrect: %s" % (where, proc.stderr[-500:]))
            wanted = {m["name"]: m["unit"] for m in metrics}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                                "units %s" % (where, sorted(set(wanted) - set(got)),
                                              sorted(set(got) - set(wanted)),
                                              {k: (got[k], wanted[k]) for k in wanted
                                               if k in got and got[k] != wanted[k]}))
            if len(problems) == known:
                print("selftest: %-28s %d metrics ok" % (where, len(got)), flush=True)
    for p in problems:
        log("selftest: " + p)
    print("selftest: " + ("FAILED" if problems else "passed"), flush=True)
    return 1 if problems else 0


def run_all(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rc = 0
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            print("== %s trace=%s" % (workload["name"], trace), flush=True)
            rc |= run_one(binary, workload["name"], args.seed, args.seconds, trace)
    return rc


def run_one(binary, workload, seed, seconds, trace):
    return subprocess.run(
        [binary, "--workload=" + workload, "--seed=%d" % seed,
         "--seconds=%g" % seconds, "--trace=" + trace,
         "--revision=" + revision(), "--out-dir=.bench_out"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.selftest or args.all or args.workload):
        parser.error("--workload, --all or --selftest is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.all:
        return run_all(binary, args)
    return run_one(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
