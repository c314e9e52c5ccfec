#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the whole pipeline.

One run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

sets the workload up (``setup_s`` is the median of several set-ups),
measures it for S seconds, checks its outputs against the golden
reference and prints one JSON object as the last line of stdout:
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1`` (which also writes ``out/trace-<workload>.json``).
Any golden mismatch or failed operation makes the exit code non-zero.

Without ``--workload`` it is a report over all four::

    python3 benchmarks/e2e/run.py [--seed N] [--repeat K] [--trace] [--smoke]

runs K sets (one fresh process per run, seeds N..N+K-1), prints every
metric by name with median / quartiles / spread, says for each end-to-end
metric x workload whether the two halves of the K runs agree within the
metric's bound (the A/A check), and writes ``out/results.json`` with the
environment fingerprint.  The committed ``BENCH_*.json`` files (single
shot, ``cpu_count: 1``, one plane each) are **not** comparable baselines.
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Input sizes.  Cohorts and query mixes are the issue's; the timed part
#: is cut by ``--seconds``, never by shrinking these.  ``smoke`` sizes
#: exist only so the self-test finishes in under a minute.
SIZES = {
    "batch_tasks": {"meters": 2000, "days": 90, "sampled": 32},
    "ingest_backfill": {"meters": 1000, "window_days": 14,
                        "windows_per_second": 1.6},
    "serve_hot": {"meters": 500, "days": 28, "points": 6000},
    "fresh_mixed": {"meters": 100, "window_days": 8, "preloaded_windows": 4,
                    "tick_period_s": 0.2},
}
SMOKE_SIZES = {
    "batch_tasks": {"meters": 200, "days": 30, "sampled": 8},
    "ingest_backfill": {"meters": 100, "window_days": 8,
                        "windows_per_second": 8.0},
    "serve_hot": {"meters": 60, "days": 14, "points": 2000},
    "fresh_mixed": {"meters": 30, "window_days": 8, "preloaded_windows": 2,
                    "tick_period_s": 0.1},
}
SMOKE_SECONDS = 2


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


async def life_cycle(make, setups: int) -> tuple:
    """set-up (x ``setups``, each on a fresh workload object so nothing
    leaks from one into the next) -> timed run -> golden check -> tear-down."""
    setup_s = []
    workload = None
    try:
        for _ in range(setups):
            if workload is not None:
                await workload.teardown()
            workload = make()
            t = time.perf_counter()
            await workload.setup()
            setup_s.append(time.perf_counter() - t)
        tracer = workload.tracer
        if tracer:
            workload.instrument()
        cpu = cpu_seconds()
        t = time.perf_counter()
        with tracer.run(f"loadgen.{workload.name}") if tracer else nullcontext():
            await workload.run()
        wall = time.perf_counter() - t
        cpu = cpu_seconds() - cpu
        # Taken before the golden check, whose reference copies of the
        # data are the benchmark's memory, not the program's.
        rss = peak_rss_mb()
        workload.verify()
    finally:
        if workload is not None:
            if workload.tracer:
                workload.tracer.uninstall()
            await workload.teardown()
    return workload, {
        "setup_s": statistics.median(setup_s), "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": rss}


def end_to_end_metrics(workload, timing: dict) -> dict[str, float]:
    return {
        "setup_s": timing["setup_s"],
        **workload.end_to_end(),
        "cpu_ms_per_op": timing["cpu_s"] * 1e3 / max(1, workload.ops()),
        "peak_rss_mb": timing["peak_rss_mb"],
    }


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer_metrics(workload, tracer) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0
    (which is the prediction: that layer cannot move this workload)."""
    samples, totals, counts = workload.samples, workload.totals, tracer.counts
    seconds = tracer.layer_seconds()
    out = {f"{name}_s": s for name, s in seconds.items()}
    out["loadgen.self_s"] = sum(
        s for name, s in seconds.items() if name.startswith("loadgen."))
    # "par_ms" -> serve.client.par_ms_p50/_p95; "cold_par_ms" (a panel
    # refreshed after a commit) -> serve.service.cold_par_ms_p50.
    for key, values in samples.items():
        layer = "serve.service" if key.startswith("cold_") else "serve.client"
        for q in (50, 95):
            out[f"{layer}.{key}_p{q}"] = percentile(values, q)
    out.update({k: v for k, v in counts.items() if k in PER_LAYER})
    readings = totals.get("readings", 0)
    out.update({
        "streaming.durability.wal_syncs": tracer.calls("streaming.durability.wal_sync"),
        "streaming.durability.checkpoints": tracer.calls("streaming.durability.checkpoint"),
        "streaming.durability.wal_bytes_per_reading":
            counts["wal_bytes"] / readings if readings else 0.0,
        "streaming.window.windows_closed": len(samples["close_ms"]),
        "streaming.window.late_repaired": totals.get("revisions", 0),
        "streaming.sink.writes": tracer.calls("streaming.sink.write"),
        "columnar.partstore.bytes_per_reading": totals.get("store_bytes_per_reading", 0.0),
        "columnar.partstore.read_matrices_calls": tracer.calls("columnar.partstore.read_matrices"),
        "relational.loads": tracer.calls("relational.load"),
        "serve.admission.queue_ms_p50": percentile(samples["queue_ms"], 50),
        "serve.admission.queue_ms_p95": percentile(samples["queue_ms"], 95),
        "loadgen.lag_ms_max": max(samples["lag_ms"], default=0.0),
    })
    if hasattr(workload, "cache"):
        cache = workload.cache
        asked = cache["hits"] + cache["misses"]
        out.update({
            "serve.cache.hits": cache["hits"],
            "serve.cache.misses": cache["misses"],
            "serve.cache.hit_ratio": cache["hits"] / asked if asked else 0.0,
            "serve.cache.invalidated": cache["invalidated"],
            "serve.executor.blocks_executed": workload.blocks,
            "serve.admission.rejected":
                sum(workload.stats["admission"]["rejections"].values()),
        })
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}


def write_trace(workload, tracer, timing: dict, out_dir: Path) -> Path:
    own = tracer.self_times()
    t0 = min(s["start"] for s in tracer.spans)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload.name}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "lanes": workload.lanes,
        "wall_s": timing["wall_s"],
        # What this traced run achieved, to set against untraced runs.
        "end_to_end": workload.end_to_end(),
        "self_time_s": tracer.layer_seconds(),
        "counts": dict(tracer.counts),
        "spans": [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0,
             "self": own[s["id"]]}
            for s in sorted(tracer.spans, key=lambda s: s["id"])
        ],
    }))
    return path


def run_once(name: str, seed: int, seconds: float, traced: bool,
             sizes: dict, workdir: Path, out_dir: Path, setups: int) -> dict:
    """One run of one workload in this process; returns the result object
    (plus ``failures``, which the printed line leaves out)."""
    import trace
    import workloads

    tracer = trace.Tracer() if traced else None
    workdir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir))
    try:
        workload, timing = asyncio.run(life_cycle(
            lambda: workloads.WORKLOADS[name](
                seed, sizes[name], seconds, scratch, tracer),
            1 if traced else setups))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if traced:
        values, spec = per_layer_metrics(workload, tracer), PER_LAYER
        write_trace(workload, tracer, timing, out_dir)
    else:
        values, spec = end_to_end_metrics(workload, timing), END_TO_END
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {n: {"value": v, "unit": spec[n]["unit"]}
                    for n, v in values.items()},
        "failures": workload.failures,
    }


def print_result(name: str, result: dict) -> None:
    for message in result["failures"]:
        print(f"FAILED {name}: {message}")
    for metric, m in result["metrics"].items():
        print(f"{name:16s} {metric:44s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))


# --------------------------------------------------------------------------
# the report over all workloads
# --------------------------------------------------------------------------

def fingerprint(seed: int) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
        "fsync": "sync=True on every WAL, checkpoint and store write",
    }


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values), "spread": 0.0, "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def child(args, name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run in a fresh process, so peak RSS and caches start clean."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced)), "--workdir", str(args.workdir),
               "--out", str(args.out)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAILED"):
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{name} seed {seed}: exit {done.returncode}, "
                         f"no result line\n{done.stderr}") from None
    if set(result["metrics"]) != set(PER_LAYER if traced else END_TO_END):
        raise SystemExit(f"{name}: printed metrics differ from BENCHMARK.json")
    result["exit_code"] = done.returncode
    return result


def report(args) -> int:
    seconds = args.seconds
    env = fingerprint(args.seed)
    print("# e2e benchmark: medians of fresh-process runs on this machine.")
    print("# BENCH_*.json (cpu_count 1, single shot) are NOT comparable baselines.")
    print("# " + json.dumps(env))
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOAD_NAMES}
    ok = True
    for k in range(args.repeat):
        for name in WORKLOAD_NAMES:
            result = child(args, name, args.seed + k, seconds, traced=False)
            ok &= result["correct"] and result["exit_code"] == 0
            runs[name].append(result)
            print(f"run {k + 1}/{args.repeat} {name:16s} seed {args.seed + k} "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
    results: dict = {"environment": env, "seconds": seconds,
                     "sizes": SMOKE_SIZES if args.smoke else SIZES,
                     "workloads": {}}
    print(f"\n{'workload':16s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'unit':5s} {'n':>2s} {'spread':>7s} {'bound':>6s}  A/A")
    for name in WORKLOAD_NAMES:
        table = results["workloads"][name] = {
            "failed_share": sum(r["failed"] for r in runs[name])
            / sum(r["attempted"] for r in runs[name]),
            "end_to_end": {},
        }
        for metric, spec in END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            row = summary(values)
            half = len(values) // 2
            if half:
                drift = worse_by(spec, statistics.median(values[:half]),
                                 statistics.median(values[half:]))
                row["aa_drift"] = drift
                row["aa_agrees"] = abs(drift) <= spec["bound"]
            table["end_to_end"][metric] = row
            verdict = ("-" if not half else
                       f"{'agree' if row['aa_agrees'] else 'DISAGREE'} "
                       f"({row['aa_drift']:+.1%})")
            print(f"{name:16s} {metric:14s} {row['median']:12.4f} "
                  f"{row['q1']:12.4f} {row['q3']:12.4f} {spec['unit']:5s} "
                  f"{row['n']:2d} {row['spread']:7.1%} {spec['bound']:6.0%}  "
                  f"{verdict}")
    if args.trace:
        print()
        for name in WORKLOAD_NAMES:
            traced = child(args, name, args.seed, seconds, traced=True)
            ok &= traced["correct"] and traced["exit_code"] == 0
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            doc = json.loads((args.out / f"trace-{name}.json").read_text())
            plain = statistics.median(
                r["metrics"]["throughput"]["value"] for r in runs[name])
            # Runs are time-boxed, so the cost of looking shows as work
            # not done: untraced / traced work per second.
            ratio = plain / doc["end_to_end"]["throughput"]
            results["workloads"][name]["per_layer"] = layers
            results["workloads"][name]["trace_overhead_ratio"] = ratio
            print(f"{name:16s} trace_overhead_ratio {ratio:8.3f}  "
                  f"(trace-{name}.json, {len(doc['spans'])} spans)")
            for metric, value in layers.items():
                print(f"{name:16s} {metric:44s} {value:14.4f} "
                      f"{PER_LAYER[metric]['unit']}")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out / 'results.json'}")
    return 0 if ok else 1


# --------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="report mode: sets of runs (seeds SEED..SEED+K-1)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a 2 s clock: a self-test, not a measurement")
    parser.add_argument("--workdir", type=Path, default=HERE / ".work")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else SPEC["run_seconds"]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload is None:
        return report(args)
    # A wedged run must end by itself, inside the harness's patience.
    faulthandler.dump_traceback_later(170, exit=True, file=sys.__stderr__)
    try:
        result = run_once(
            args.workload, args.seed, args.seconds, bool(args.trace),
            SMOKE_SIZES if args.smoke else SIZES, args.workdir, args.out,
            1 if args.smoke else SETUPS)
    finally:
        faulthandler.cancel_dump_traceback_later()
    print_result(args.workload, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
