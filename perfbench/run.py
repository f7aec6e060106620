#!/usr/bin/env python3
"""The repo benchmark: one command per workload.

    python3 perfbench/run.py --workload full_50k|eco_stream --seed N \
        --seconds S --trace 0|1

Builds perfbench/driver.cpp and the library from src/ (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the driver on inputs generated
from --seed, checks its outputs, and prints every metric by name with its
unit and sample count. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit code is non-zero
when the build fails or a correctness check fails. README.md explains the
workloads, the metrics and the layer map.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("full_50k", "eco_stream")

# End-to-end metrics: name -> (unit, better). BENCHMARK.json carries the
# same table plus each metric's bound (checked by test_perfbench.py).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "request_p95_ms": ("ms", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "displacement_mean_sites": ("sites", "lower"),
    "hpwl_delta_pct": ("%", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Benchmark spans whose self time is a per-layer metric.
SPAN_LAYERS = {
    "bench.row_assign": "row_assign.s",
    "bench.model": "model.s",
    "bench.solve": "solve.s",
    "bench.tetris": "tetris.s",
    "bench.verify": "verify.s",
}

BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 170


def load_layer_map():
    with open(os.path.join(HERE, "layer_map.json")) as f:
        return json.load(f)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step {step[:2]} failed: {error}")
            return None
        if done.returncode != 0:
            log(f"build step {step[:2]} exited with {done.returncode}")
            return None
    return os.path.join(out, "perfbench_driver")


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unavailable"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def run_driver(binary, args, trace_out):
    """Runs the driver with every MCH_* knob removed from its environment,
    so the library runs on its defaults; returns the raw report or None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCH_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return None
    if done.returncode != 0:
        log(f"driver exited with {done.returncode}")
        return None
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no report")
        return None


def end_to_end_metrics(raw):
    """Returns {name: (value, samples, note)}. Timing metrics use the quiet
    samples (see stats.quiet_samples) when enough of them exist."""
    latency = stats.quiet_samples(raw["latency_ms"], raw["steal_pct"],
                                  raw["params"]["quiet_steal_pct"],
                                  raw["params"]["min_quiet_samples"])
    dropped = len(raw["latency_ms"]) - len(latency)
    timing_note = f"{dropped} noisy dropped" if dropped else ""
    q, tail = stats.tail_percentile(latency, 0.95)
    tail_note = timing_note if q >= 0.95 else \
        f"p{100 * q:.0f}: too few samples for p95 with {stats.MIN_BEYOND} beyond"
    cells = raw["displacement_cells"]
    designs = int(raw["scored_designs"])
    return {
        "setup_s": (stats.median(raw["setup_s"]), len(raw["setup_s"]), ""),
        "request_p50_ms": (stats.median(latency), len(latency), timing_note),
        "request_p95_ms": (tail, len(latency), tail_note),
        "requests_per_s": (1e3 * len(latency) / sum(latency), len(latency),
                           timing_note),
        "displacement_mean_sites": (raw["displacement_sites"] / cells,
                                    designs, f"{int(cells)} cells"),
        "hpwl_delta_pct": (100.0 * (raw["hpwl"] - raw["gp_hpwl"]) /
                           raw["gp_hpwl"], designs, ""),
        "peak_rss_mb": (raw["peak_rss_mb"], 1, ""),
    }


def per_layer_metrics(raw, layer_map, workload):
    """Returns ({name: (value, samples, note)}, [problems])."""
    values = {}
    for name, samples in raw["layers"].items():
        values[name] = (stats.median(samples), len(samples), "median")
    for name, value in raw["layer_values"].items():
        values[name] = (value, 1, "")

    spans = raw["spans"]
    by_metric = {}
    for span, self_ns in zip(spans, stats.self_times(spans)):
        metric = SPAN_LAYERS.get(span["name"])
        if metric is not None:
            per_request = by_metric.setdefault(metric, {})
            per_request[span["request"]] = \
                per_request.get(span["request"], 0.0) + self_ns * 1e-9
    for metric, per_request in by_metric.items():
        samples = list(per_request.values())
        values[metric] = (stats.median(samples), len(samples),
                          "median self time")

    traced, untraced = raw["traced_ms"], raw["untraced_ms"]
    if traced and untraced:
        values["trace.overhead_pct"] = (
            100.0 * (stats.median(traced) / stats.median(untraced) - 1.0),
            len(traced) + len(untraced), "traced vs untraced median")
    values["trace.dropped_spans"] = (raw["spans_dropped"], 1, "")

    metrics, problems = {}, []
    for name, spec in layer_map.items():
        if name in values:
            metrics[name] = values[name]
        elif workload in spec["measured_on"]:
            problems.append(f"per-layer metric {name} was not measured")
        else:
            metrics[name] = (0.0, 0, "not exercised by this workload")
    return metrics, problems


def run_problems(raw):
    """The driver's failed correctness checks and failed requests."""
    problems = [f"check {c['name']} failed: {c['detail']}"
                for c in raw["checks"] if not c["ok"]]
    if raw["failed"]:
        problems.append(f"{int(raw['failed'])} of {int(raw['attempted'])} "
                        "requests failed (illegal, unplaced cells or clamped "
                        "components)")
    return problems


def stamp_chrome_trace(path, provenance):
    """Adds the provenance to the Chrome trace as its metadata object."""
    if not os.path.isfile(path):
        return
    with open(path) as f:
        document = json.load(f)
    if isinstance(document, dict):
        document["metadata"] = provenance
        with open(path, "w") as f:
            json.dump(document, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 3
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}")
    trace_out = stem + ".trace.json" if args.trace else ""
    raw = run_driver(binary, args, trace_out)
    if raw is None:
        return 4

    layer_map = load_layer_map()
    provenance = dict(raw["provenance"])
    provenance.update(git_sha=git_sha(), source_digest=source_digest(),
                      workload=args.workload, seed=str(args.seed),
                      seconds=str(args.seconds), trace=str(args.trace))
    for key, value in raw["params"].items():
        provenance[f"param.{key}"] = f"{value:g}"

    problems = run_problems(raw)
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if args.trace:
        metrics, layer_problems = per_layer_metrics(raw, layer_map,
                                                    args.workload)
        problems += layer_problems
        units = {name: spec["unit"] for name, spec in layer_map.items()}
        if raw["bench_spans_opened"] == 0:
            problems.append("the traced run recorded no benchmark spans")
        problems += [f"per-layer metric {n} is not finite"
                     for n, (v, _, _) in metrics.items()
                     if not math.isfinite(v)]
    else:
        metrics = end_to_end_metrics(raw)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        problems += [f"end-to-end metric {n} = {v} is not a positive number"
                     for n, (v, _, _) in metrics.items()
                     if not stats.finite_positive(v)]
    problems += [f"invalid metric name {n!r}" for n in metrics
                 if not stats.valid_metric_name(n)]

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# provenance: " + " ".join(f"{k}={v!r}" if " " in v else f"{k}={v}"
                                       for k, v in sorted(provenance.items())))
    for name, (value, samples, note) in metrics.items():
        suffix = f", {note}" if note else ""
        print(f"{name:32s} {value:14.6g} {units[name]:6s} (n={samples}{suffix})")
    print(f"{'fail_ratio':32s} {stats.fail_ratio(failed, attempted):14.6g} "
          f"{'failed/attempted':6s} (n={attempted}, {failed} failed)")
    if args.trace:
        print(f"# trace: {len(raw['spans'])} of {raw['bench_spans_opened']} "
              "benchmark spans kept, "
              f"{raw['spans_dropped']} library spans dropped by the ring; "
              f"chrome trace of the last traced request: {trace_out}")
        stamp_chrome_trace(trace_out, provenance)
    for problem in problems:
        print(f"FAIL: {problem}")

    correct = not problems
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump({"provenance": provenance, "correct": correct,
                   "problems": problems, "attempted": attempted,
                   "failed": failed,
                   "metrics": {n: {"value": v, "unit": units[n], "samples": s}
                               for n, (v, s, _) in metrics.items()},
                   "checks": raw["checks"]}, f, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, (v, _, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
