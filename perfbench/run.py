#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from the
checkout's sources (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; build output goes to
standard error. Its self-tests run before every benchmark run. The last
line of standard output is the run's JSON result; `--workload all` runs
every workload in turn and prints one summary line per metric instead.
The traced run (--trace 1) also writes its spans to
<build dir>/traces/<workload>-seed<n>.jsonl.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["serve-fourier16-warm", "tree-colhist64-1t",
             "ingest-fourier16-disk"]
# A run's own deadline: inputs, set-ups and checks take well under a minute
# beyond --seconds on a 4-core 2.1 GHz Xeon.
RUN_TIMEOUT_S = 175


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, check=False)
    if result.returncode != 0:
        sys.exit(f"perfbench: {' '.join(map(str, cmd))} failed "
                 f"({result.returncode})")


def build():
    out = build_dir()
    # Configure until a build system exists (a failed configure leaves a
    # cache behind, but no Makefile).
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                "--target", "perfbench", "perfbench_selftest"])
    return out


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True,
                              check=False)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += [p for p in (ROOT / sub).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:12]


def self_test(out):
    result = subprocess.run([out / "perfbench_selftest", "--gtest_brief=1"],
                            stdout=sys.stderr, stderr=sys.stderr, check=False)
    if result.returncode != 0:
        sys.exit("perfbench: self-tests failed")


def run_one(out, workload, seed, seconds, trace, commit, capture):
    tmp = out / "tmp"
    traces = out / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [out / "perfbench", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp-dir", tmp, "--commit", commit]
    if trace:
        cmd += ["--trace-file", traces / f"{workload}-seed{seed}.jsonl"]
    try:
        return subprocess.run(cmd, cwd=ROOT, check=False, text=True,
                              timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build()
    self_test(out)
    if args.self_test:
        return 0

    commit = source_id()
    if args.workload != "all":
        result = run_one(out, args.workload, args.seed, args.seconds,
                         args.trace, commit, capture=False)
        return result.returncode

    status = 0
    summary = []
    for workload in WORKLOADS:
        result = run_one(out, workload, args.seed, args.seconds, args.trace,
                         commit, capture=True)
        sys.stdout.write(result.stdout)
        status = status or result.returncode
        last = result.stdout.strip().splitlines()[-1] if result.stdout else ""
        try:
            parsed = json.loads(last)
        except json.JSONDecodeError:
            status = status or 1
            continue
        for name, metric in parsed["metrics"].items():
            summary.append(f"{workload:24s} {name:36s} "
                           f"{metric['value']:16.6g} {metric['unit']}")
    print("summary (sample counts are in each workload's report above):")
    print("\n".join(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
