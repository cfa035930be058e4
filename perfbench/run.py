#!/usr/bin/env python3
"""Builds and runs the gdelay benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gdelay checkout. The first run configures and
builds perfbench/ (Release) into .bench_build/perfbench; later runs only
rebuild what changed. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Lines
starting with '#' before it carry the host/build stamp and the golden
digest checks. Workloads and metrics are declared in BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gdelay_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no gdelay sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4"], stdout=sys.stderr,
                   check=True)


def source_rev():
    """git rev when the checkout is a repository, plus a hash of the
    sources the binary is built from (a checkout need not be one)."""
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return f"{rev}+src.{h.hexdigest()[:12]}"


def check_metrics(result, declared):
    """The binary's metrics must be exactly the declared ones, with the
    declared units. Per-layer metrics of layers the workload leaves idle
    are not emitted by the binary; they read 0."""
    metrics = result["metrics"]
    for name, entry in declared.items():
        if name not in metrics:
            if not entry["idle_zero"]:
                fail(f"metric {name} missing from the output")
            metrics[name] = {"value": 0.0, "unit": entry["unit"]}
        elif metrics[name]["unit"] != entry["unit"]:
            fail(f"metric {name}: unit {metrics[name]['unit']!r}, "
                 f"declared {entry['unit']!r}")
    extra = set(metrics) - set(declared)
    if extra:
        fail(f"undeclared metrics {sorted(extra)}")
    result["metrics"] = {n: metrics[n] for n in declared}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()

    scratch = os.path.join(BUILD, "scratch", args.workload)
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--scratch", scratch, "--rev", source_rev()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    if args.trace:
        declared = {m["name"]: {"unit": m["unit"], "idle_zero": True}
                    for m in spec["per_layer"]}
    else:
        declared = {m["name"]: {"unit": m["unit"], "idle_zero": False}
                    for m in spec["end_to_end"]}
    check_metrics(result, declared)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
