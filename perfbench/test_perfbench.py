"""Tests of the benchmark itself: python3 -m pytest -q perfbench/test_perfbench.py"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    computed = set(run.layer_metrics({"import_s": 0.0, "spans": []}))
    computed |= {"evaluation.thread_speedup", "trace.op_s", "trace.overhead_s"}
    assert set(per_layer) == computed
    assert list(json.loads((run.HERE / "predictions.json").read_text())) == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_children_of_the_same_thread_only():
    spans = [
        {"id": 1, "name": "a", "start": 0.0, "end": 10.0, "parent": None, "thread": 1},
        {"id": 2, "name": "b", "start": 1.0, "end": 4.0, "parent": 1, "thread": 1},
        {"id": 3, "name": "c", "start": 2.0, "end": 9.0, "parent": 1, "thread": 2},
        {"id": 4, "name": "d", "start": 2.5, "end": 3.0, "parent": 2, "thread": 1},
    ]
    assert run.self_times(spans) == {1: 7.0, 2: 2.5, 3: 7.0, 4: 0.5}


def test_seeded_tables_are_reproducible_and_near_the_published_table():
    tables = run.analyze_tables(7)
    assert tables == run.analyze_tables(7)
    assert tables != run.analyze_tables(8)
    assert tables[0] == run.PUBLISHED and run.PUBLISHED not in tables[1:]
    lo, hi = run.SEEDED_COMPOSITIONS
    for table in tables:
        assert sum(table) == 2 * run.ARM and table[0] + table[1] == run.ARM
        assert lo <= run.compositions(table) <= hi


def _runner(tmp_path: Path, name: str) -> run.Runner:
    return run.Runner(run.WORKLOADS[name], tmp_path, deadline=time.monotonic() + 600)


def test_traced_counters_repeat_on_the_published_table(tmp_path):
    runner = _runner(tmp_path, "analyze-612")
    metrics = []
    for k in range(2):
        spans = tmp_path / f"spans-{k}.json"
        assert runner.op(run.PUBLISHED, spans=spans).error is None
        metrics.append(run.layer_metrics(json.loads(spans.read_text())))
    first, second = metrics
    counters = [name for name, value in first.items() if isinstance(value, int)]
    assert {name: first[name] for name in counters} == {name: second[name] for name in counters}
    assert first["likelihood.grid_compositions"] == 126_399_420
    assert first["likelihood.grid_candidates"] == 38_579_155
    assert first["inference.posterior_entries"] == 7_349_580
    assert first["core.components_decoded"] >= 7_349_580
    assert first["inference.credible_members"] == 71_111
    assert first["reports.analyze_child_share"] >= 0.95  # so self time is 5% or less


def test_output_checks_catch_changed_bytes(tmp_path):
    runner = _runner(tmp_path, "heatmap-50")
    assert runner.op(None).error is None
    csv = tmp_path / "op" / "heatmap.csv"
    csv.write_text(csv.read_text().replace("true", "false", 1))
    assert "differs" in run.check_heatmap(None, tmp_path / "op")


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heatmap-50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
