#!/usr/bin/env python3
"""Repo benchmark: build the perfbench binary from this checkout, run one
workload, check its outputs, and print the result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics and what each metric should move are described in
perfbench/README.md; names and units come from BENCHMARK.json at the root
of the checkout. The build goes to .bench_build/perfbench (CMake, Release).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 they are the per-layer ones: public counters and the binary's own
timers from the same untraced measurement, plus a traced pass whose spans
trace_report.py turns into layer times. A metric of a layer the workload
does not exercise reads 0 and is listed as such.

Exit status: 0 when every output was verified; 1 when a check failed (the
result line says correct: false, and the lines before it name the failed
checks); 2 when the build or the run could not complete (no result line).
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cp_als", "cp_als_sharded", "serve_small", "serve_same_plan")
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import trace_report  # noqa: E402


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a ust checkout (no CMakeLists.txt or src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def source_digest():
    """sha256 over the program's sources and build files, for runs outside
    a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE):
        files += [p for p in d.rglob("*") if p.is_file() and p.suffix in
                  (".cpp", ".hpp", ".txt", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    exe = build()

    out_dir = BUILD / "runs"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-{args.trace}"
    report_path = out_dir / f"{stem}.json"
    trace_path = out_dir / f"{stem}.trace.json"
    for p in (report_path, trace_path):
        p.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(report_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    t0 = time.monotonic()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if rc not in (0, 1) or not report_path.is_file():
        fail(f"{args.workload} stopped with exit code {rc}")
    report = json.loads(report_path.read_text())
    produced = dict(report["metrics"])

    if args.trace:
        summary = trace_report.analyze(str(trace_path), dropped=int(produced.get("obs.dropped", 0)))
        produced.update(trace_report.layer_metrics(summary))
        print("perfbench traced pass: " + json.dumps(
            {k: v for k, v in summary.items() if k != "spans"}, sort_keys=True))
        for name, s in summary["spans"].items():
            print(f"perfbench span {name}: count {s['count']}, p50 {s['p50_ms']:.4f} ms, "
                  f"p99 {s['p99_ms']:.4f} ms, self p50 {s['self_p50_ms']:.4f} ms, "
                  f"sum {s['sum_ms']:.1f} ms, self sum {s['self_sum_ms']:.1f} ms")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, idle = {}, []
    for m in wanted:
        if m["name"] in produced:
            value = produced[m["name"]]
        elif args.trace:
            value = 0.0
            idle.append(m["name"])
        else:
            fail(f"perfbench did not report end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    info = dict(report["info"], git_commit=git_commit(), source_sha256=source_digest(),
                run_s=round(time.monotonic() - t0, 3))
    print("perfbench provenance: " + json.dumps(info, sort_keys=True))
    print("perfbench samples: " + json.dumps(report["samples"], sort_keys=True))
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unlisted = {k: v for k, v in report["metrics"].items() if k not in listed}
    if unlisted and not args.trace:
        print("perfbench unlisted metrics: " + json.dumps(unlisted, sort_keys=True))
    if idle:
        print(f"perfbench: not exercised by {args.workload} (reported as 0): " + ", ".join(idle))
    for msg in report["failures"]:
        print(f"perfbench: FAILED check: {msg}")
    correct = rc == 0 and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
