"""semibus benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload corridors --seed 1729 --seconds 20 --trace 0
    python3 perfbench/run.py --all

Run from the root of a source checkout; the package is imported from
`src/`.  With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json, measured with tracing off and given in reference seconds,
which take out the speed of the host at the time (see hostspeed); with
--trace 1 it reports the per-layer metrics from a traced run, in seconds
of the host, and writes its spans to `.bench_out/trace-<workload>-<seed>.json`.  The last line of standard
output is the JSON result; the lines before it list every metric with its
unit, the failed share and the run's metadata.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import workloads
from hostspeed import HostSpeed
from spans import Tracer, unattributed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1729  # the package's bundled seed
SETUPS = 15  # set-ups per run


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": os.getloadavg(),
    }


def untraced(wl, seconds: float) -> tuple:
    """End-to-end metrics; tracing is off.  Set-ups and passes alternate
    with calibration blocks and are reported in reference seconds (see
    hostspeed); pass 0 warms up and is checked but not timed."""
    host = HostSpeed()
    host.tick()  # warms the block up
    setups, samples = [], []  # (seconds of this host, index of the block before)

    def timed(fn):
        gc.collect()  # the modules of the previous set-up are garbage
        k = len(host.walls) - 1
        t0 = time.perf_counter()
        got = fn()
        wall = time.perf_counter() - t0
        host.tick()
        return got, wall, k

    _, wall, k = timed(wl.setup)
    setups.append((wall, k))
    timed(lambda: wl.run_pass(0))
    # set-ups are spread over the run, so that their median does not hang
    # on how busy the host was in its first second
    start = time.perf_counter()
    passes = 1
    while passes == 1 or time.perf_counter() < start + seconds:
        if time.perf_counter() >= start + seconds * len(setups) / SETUPS:
            _, wall, k = timed(wl.setup)
            setups.append((wall, k))
        sample, _, k = timed(lambda: wl.run_pass(passes))
        passes += 1
        if sample is not None:
            samples.append((sample, k))
    while len(setups) < SETUPS:
        _, wall, k = timed(wl.setup)
        setups.append((wall, k))
    wl.finish(passes)
    if not samples:
        raise RuntimeError("no timed pass completed")
    walls = [s.wall * host.wall_scale(k) for s, k in samples]
    cpus = [s.cpu * host.cpu_scale(k) for s, k in samples]
    units = samples[0][0].units
    metrics = {
        "setup_s": statistics.median(w * host.wall_scale(k) for w, k in setups),
        "units_per_s": statistics.median(units / w for w in walls),
        "cpu_ms_per_unit": statistics.median(1e3 * c / units for c in cpus),
        "time_to_report_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": passes,
        "timed_passes": len(samples),
        "setups": len(setups),
        # in seconds of this host, before the host-speed scaling
        "pass_wall_q1_q2_q3": quartiles([s.wall for s, _ in samples]),
        "setup_wall_q1_q2_q3": quartiles([w for w, _ in setups]),
        "block_wall_q1_q2_q3": quartiles(host.walls),
    }
    return metrics, info


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(wl, tracer, window: tuple) -> dict:
    """Per-layer metrics from the spans, the counts and the workload's extras."""
    agg = tracer.by_name()
    spans = tracer.spans

    def total(name):
        return agg.get(name, (0, 0.0))[1]

    def per_call(name, scale):
        n, t = agg.get(name, (0, 0.0))
        return _ratio(scale * t, n)

    reps = agg.get("experiments.replication", (0, 0.0))[0]
    c = wl.counts
    layers = ("simulator.sample_requests", "simulator.fixed", "simulator.amsod", "experiments.replication_metrics")
    m = {f"{name}.self_ms_per_rep": _ratio(1e3 * total(name), reps) for name in layers}
    for mode in ("fixed", "amsod"):
        m[f"simulator.{mode}.spilled_per_rep"] = _ratio(c[f"{mode}.spilled"], c["reps"])
        m[f"simulator.{mode}.unserved_per_rep"] = _ratio(c[f"{mode}.unserved"], c["reps"])
    m["simulator.requests_per_rep"] = _ratio(c["requests"], c["reps"])
    m["simulator.amsod.full_trip_share"] = _ratio(c["full_trips"], c["trips"])
    m["simulator.amsod.pickup_points_per_trip"] = _ratio(c["pickup_points"], c["trips"])
    m["simulator.amsod.pending_per_trip"] = _ratio(c["pending"], c["trips"])
    m["simulator.amsod.served_per_pending"] = _ratio(c["pending_served"], c["pending"])

    m["experiments.summarize.self_ms"] = per_call("experiments.summarize", 1e3)
    emits = [s.duration for s in spans if s.name in ("call.emit_report", "call.emit_sweep")]
    m["experiments.emit.self_ms"] = 1e3 * statistics.mean(emits) if emits else 0.0
    emitted = wl.extra.get("experiments.emit.bytes", [])
    m["experiments.emit.bytes"] = statistics.mean(emitted) if emitted else 0.0
    rep_ms = [1e3 * s.duration for s in spans if s.name == "experiments.replication"]
    m["experiments.rep_ms_p50"] = statistics.median(rep_ms) if rep_ms else 0.0
    m["experiments.rep_ms_p99"] = statistics.quantiles(rep_ms, n=100)[98] if len(rep_ms) > 1 else 0.0
    # the workers=1 call whose replications the replay re-ran
    reference = total("call.run_scenario") + total("call.sweep")
    layered = sum(total(n) for n in layers) + total("experiments.summarize")
    m["experiments.run_scenario.overhead_ms_per_rep"] = _ratio(1e3 * (reference - layered), reps)

    pool = wl.extra.get("pool", [])
    if pool:
        m["experiments.pool.worker_cpu_s"] = statistics.median(p["worker_cpu"] for p in pool)
        m["experiments.pool.parent_cpu_s"] = statistics.median(p["parent_cpu"] for p in pool)
        m["experiments.pool.worker_busy_share"] = sum(p["worker_cpu"] for p in pool) / (
            wl.WORKERS * sum(p["wall2"] for p in pool)
        )
        m["experiments.pool.scaling_efficiency"] = statistics.median(
            p["wall1"] / (wl.WORKERS * p["wall2"]) for p in pool
        )
    else:
        for k in ("worker_cpu_s", "parent_cpu_s", "worker_busy_share", "scaling_efficiency"):
            m[f"experiments.pool.{k}"] = 0.0

    m["model.load_scenario.self_ms"] = per_call("model.load_scenario", 1e3)
    n_valid = 2 * reps  # time_require_valid makes two calls per replayed replication
    m["model.require_valid.self_us"] = _ratio(1e6 * total("model.require_valid"), n_valid)
    m["analytic.screen.self_us"] = per_call("analytic.screen", 1e6)
    m["analytic.parallel_metrics.self_us"] = per_call("analytic.parallel_metrics", 1e6)
    m["analytic.zonal_plan.self_us"] = per_call("analytic.zonal_plan", 1e6)
    m["ingest.parse_boardings.self_ms"] = per_call("ingest.parse_boardings", 1e3)
    m["ingest.build_route_model.self_ms"] = per_call("ingest.build_route_model", 1e3)
    rows = wl.extra.get("rows", [])
    m["ingest.rows_per_op"] = statistics.mean(n for _, n in rows) if rows else 0.0

    # a verb's own time: its call minus the direct calls replayed for it
    verbs = {s.rep: s.duration for s in spans if s.name == "call.cli.main"}
    direct = {}
    for s in spans:
        if s.parent is None and s.rep in verbs and s.name != "call.cli.main":
            direct[s.rep] = direct.get(s.rep, 0.0) + s.duration
    cli_self = [d - direct.get(op, 0.0) for op, d in verbs.items()]
    m["cli.main.self_ms"] = 1e3 * statistics.mean(cli_self) if cli_self else 0.0

    wall = window[1] - window[0]
    calls = sum(s.duration for s in spans if s.parent is None and s.name in wl.calls)
    m["trace.overhead_share"] = _ratio(wall - calls, calls)
    m["trace.unattributed_share"] = _ratio(unattributed(spans, *window), wall)
    return m


def traced(wl, seconds: float, trace_path: Path, meta: dict) -> tuple:
    tracer = Tracer()
    start = time.perf_counter()
    wl.setup(tracer.span)
    end = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < end:
        wl.traced_pass(passes, tracer)
        passes += 1
    window = (start, time.perf_counter())
    wl.traced_finish()
    metrics = layer_metrics(wl, tracer, window)
    tracer.write(trace_path, meta, window)
    return metrics, {"passes": passes, "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}


def run_one(args) -> int:
    if not (SRC / "semibus" / "__init__.py").is_file():
        print(f"error: no semibus package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata(args)
    reports = OUT / f"run-{args.workload}-{os.getpid()}"
    reports.mkdir(parents=True, exist_ok=True)
    ledger = checks.Ledger()
    wl = workloads.WORKLOADS[args.workload](args.seed, reports, ledger)
    try:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            values, info = traced(wl, args.seconds, trace_path, meta)
            listed = spec["per_layer"]
        else:
            values, info = untraced(wl, args.seconds)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(reports, ignore_errors=True)
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    meta.update(info, loadavg_after=os.getloadavg())

    failed = len(ledger.failed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    for m in listed:
        print(f"  {m['name']:<45s} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_share':<45s} {failed / max(1, ledger.attempted):>14.6g} ({failed} of {ledger.attempted} operations)")
    print("meta " + json.dumps(meta))
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                print(f"{w['name']} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            print("\n".join(line for line in lines[:-1] if not line.startswith("meta ")))
            if not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
