"""One benchmark run: set up, repeat timed passes, check, report.

The workload is set up ``SETUP_REPEATS`` times (``setup_s`` is the median),
then timed passes repeat until ``--seconds`` have passed, at least one.
With ``--trace 1`` passes alternate untraced and traced: stage metrics come
from the untraced passes, layer metrics from the traced ones, and
``trace.overhead_pct`` is the traced passes' extra time. Each pass runs in
the same directory, and every run of a workload reuses it: overwriting files
in place avoids the create-after-delete slowdown of a filesystem that
discards freed blocks, which made set-up times swing threefold.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import layers
import workloads
from spans import Tracer, span_cost

SETUP_REPEATS = 3


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over the dicts that hold the key."""
    keys = dict.fromkeys(k for d in dicts for k in d)
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def environment(args, threads: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def traced_pass(wl, state, d: Path, seed: int, spans_path: Path):
    """One pass under a tracer; returns its result and its layer metrics."""
    tracer = Tracer()
    cpu0, start = os.times(), time.perf_counter()
    layers.install(tracer)
    try:
        res = wl.run_pass(state, d, seed, tracer)
    finally:
        tracer.uninstall()
    cpu, wall = os.times(), time.perf_counter() - start
    values = layers.layer_metrics(tracer)
    values["proc.cpu_util"] = (cpu.user + cpu.system - cpu0.user - cpu0.system) / wall
    values["trace.span_cost_pct"] = 100 * len(tracer.spans) * span_cost() / res.wall
    tracer.dump(spans_path, origin=start)
    if tracer.missing:
        print(f"perfbench: entry points not found: {tracer.missing}", file=sys.stderr)
    return res, values


def run(args, spec: dict, root: Path, threads: int) -> int:
    out = root / ".perfbench"
    work = out / "work" / f"{args.workload}-{args.size}"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"

    wl = workloads.WORKLOADS[args.workload](args.size)
    env = environment(args, threads)
    print("env " + json.dumps(env), flush=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.setup(work / "setup", args.seed)
        setup_times.append(time.perf_counter() - start)

    runs: list[tuple[bool, workloads.PassResult]] = []  # (traced, result), in run order
    layer_values, spans_files = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace and len(runs) % 2)
        if traced:
            spans_path = results / f"{stem}.spans{len(runs)}.json"
            res, values = traced_pass(wl, state, work / "pass", args.seed, spans_path)
            layer_values.append(values)
            spans_files.append(str(spans_path.relative_to(root)))
        else:
            res = wl.run_pass(state, work / "pass", args.seed, None)
        runs.append((traced, res))
        if time.perf_counter() >= deadline and (not args.trace or len(runs) >= 2):
            break

    # artifacts must not change between passes at one seed, traced or not
    first = runs[0][1].hashes
    for k, (_, r) in enumerate(runs[1:], start=1):
        for label, digest in r.hashes.items():
            if label in first and digest != first[label]:
                r.check(label, False, f"pass {k} artifacts differ from pass 0")
    attempted = sum(len(r.ops) for _, r in runs)
    failed = sum(len(r.failed) for _, r in runs)
    plain = [r for t, r in runs if not t]

    stage = median_of([r.metrics for r in plain])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        names = spec["per_layer"]
        values = median_of(layer_values)
        values["trace.overhead_pct"] = 100 * (
            statistics.median(r.wall for t, r in runs if t)
            / statistics.median(r.wall for r in plain) - 1
        )
        values["proc.peak_rss_mb"] = peak_rss_mb
        values["ops_failed_ratio"] = failed / attempted
        # a workload reports only its own stage metrics; the others read 0
        values.update({k: stage.get(k, 0.0) for k in workloads.STAGE_METRICS})
    else:
        names = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(r.wall for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, value in sorted(stage.items()):
        print(f"stage {key} {value!r} {units[key]}")
    record = {
        "env": env,
        "setup_s": setup_times,
        "passes": [
            {"traced": t, "wall_s": r.wall, "metrics": r.metrics,
             "hashes": r.hashes, "failures": {op: r.ops[op] for op in r.failed}}
            for t, r in runs
        ],
        "spans": spans_files,
        "attempted": attempted,
        "failed": failed,
    }
    record_path = results / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(f"record {record_path.relative_to(root)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0
