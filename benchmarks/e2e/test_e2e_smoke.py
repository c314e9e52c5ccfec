"""Self-test of the e2e benchmark: ``python -m pytest benchmarks/e2e -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  One
``--smoke --trace`` report — all four workloads plus a traced run of each,
tiny sizes — is shared by the tests that read its output.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    out = tmp_path_factory.mktemp("out")
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--workdir", str(work), "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    return {"done": done, "seconds": time.monotonic() - t0,
            "work": work, "out": out}


def test_smoke_report_prints_what_benchmark_json_names(smoke):
    done = smoke["done"]
    assert done.returncode == 0, done.stdout + done.stderr
    assert smoke["seconds"] < 60
    results = json.loads((smoke["out"] / "results.json").read_text())
    assert list(results["workloads"]) == WORKLOADS
    for name, table in results["workloads"].items():
        assert list(table["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(table["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        assert table["failed_share"] == 0
        assert table["trace_overhead_ratio"] > 0
        for row in table["end_to_end"].values():
            assert {"median", "q1", "q3", "n"} <= set(row)
            assert row["median"] > 0
        # Every metric is printed by name.
        for metric in list(table["end_to_end"]) + list(table["per_layer"]):
            assert f"{name:16s} {metric}" in done.stdout
    assert {"cpu_count", "cpu_model", "python", "numpy", "thread_env",
            "git_commit", "seed"} <= set(results["environment"])
    assert "NOT comparable" in done.stdout
    # Temp stores and WALs are gone, the directory they lived in is not.
    assert list(smoke["work"].iterdir()) == []


def test_serve_hot_cache_mix_and_fresh_mixed_validity(smoke):
    results = json.loads((smoke["out"] / "results.json").read_text())
    layers = {n: t["per_layer"] for n, t in results["workloads"].items()}
    assert layers["serve_hot"]["serve.cache.hit_ratio"] == 5 / 8
    assert layers["fresh_mixed"]["serve.cache.hit_ratio"] == 0
    assert layers["fresh_mixed"]["loadgen.lag_ms_max"] < 100  # smoke period
    # Layers a workload bypasses stay silent on it.
    assert layers["batch_tasks"]["streaming.durability.wal_syncs"] == 0
    assert layers["ingest_backfill"]["columnar.partstore.read_matrices_calls"] == 0
    assert layers["serve_hot"]["relational.loads"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_are_well_nested(smoke, name):
    doc = json.loads((smoke["out"] / f"trace-{name}.json").read_text())
    spans = {s["id"]: s for s in doc["spans"]}
    roots = [s for s in spans.values() if s["parent"] is None]
    assert [s["name"] for s in roots] == [f"loadgen.{name}"]
    children: dict[int, list[dict]] = {}
    for s in spans.values():
        assert {"id", "name", "start", "end", "parent", "request_id"} <= set(s)
        assert s["end"] >= s["start"]
        assert s["self"] >= -1e-9
        if s["parent"] is not None:
            parent = spans[s["parent"]]  # a valid parent
            assert parent["start"] - 1e-6 <= s["start"]
            assert s["end"] <= parent["end"] + 1e-6
            children.setdefault(s["parent"], []).append(s)
    sys.path.insert(0, str(HERE))
    from trace import covered
    for parent_id, kids in children.items():
        parent = spans[parent_id]
        assert covered(parent, kids) <= parent["end"] - parent["start"] + 1e-9
    # Self times of a tree add up to its root's duration — exactly, where
    # one lane drives the program; where lanes overlap, each busy lane
    # counts the same wall time again.
    total = sum(s["self"] for s in spans.values())
    wall = roots[0]["end"] - roots[0]["start"]
    assert wall <= doc["wall_s"]
    assert total >= 0.9 * doc["wall_s"]
    if doc["lanes"] == 1:
        assert total <= 1.1 * doc["wall_s"]
    assert abs(sum(doc["self_time_s"].values()) - total) < 1e-6


def test_corrupted_golden_makes_the_command_fail(tmp_path, monkeypatch, capsys):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads

    real = workloads.golden

    def corrupted(data, task):
        results = real(data, task)
        a, b = list(results)[:2]
        results[a], results[b] = results[b], results[a]
        return results

    argv = ["--workload", "batch_tasks", "--smoke", "--seconds", "0.5",
            "--workdir", str(tmp_path / "work"), "--out", str(tmp_path / "out")]
    assert run.main(argv) == 0
    monkeypatch.setattr(workloads, "golden", corrupted)
    assert run.main(argv) != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0
    assert list((tmp_path / "work").iterdir()) == []


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's files
    there is nothing to measure: non-zero exit, no result line."""
    bare = tmp_path / "bare"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in HERE.glob("*.py"):
        (bare / "benchmarks" / "e2e" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
