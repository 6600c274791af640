"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces module-global functions of the package by
name, with fixed call shapes.  Renaming or deleting one of them breaks every
traced benchmark op; these tests make that a test failure instead.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_span_names(tmp_path, *cli_args):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "tracer.py"),
            str(spans),
            *cli_args,
            "--quiet",
            "--out-dir",
            str(tmp_path),
        ],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {span["name"] for span in json.loads(spans.read_text())["spans"]}


def test_tracer_analyze_spans(tmp_path):
    names = traced_span_names(
        tmp_path, "analyze", "--i1", "2", "--i0", "1", "--c1", "1", "--c0", "2", "--m", "3"
    )
    assert {
        "cli.main",
        "reports.analyze",
        "frechet.marginals",
        "frechet.set",
        "frechet.profile",
        "frechet.flags",
        "inference.mle",
        "inference.mono",
        "inference.argmax_mle",
        "inference.argmax_mono",
        "inference.posterior",
        "inference.credible",
        "likelihood.grid",
        "likelihood.profile_count",
        "core.components",
        "reports.serialize",
        "reports.render",
    } <= names


def test_tracer_compare_rules_spans(tmp_path):
    names = traced_span_names(tmp_path, "compare-rules", "--max-n", "4")
    assert {
        "cli.main",
        "evaluation.rules",
        "evaluation.rule_eu_vectors",
        "evaluation.data_space",
        "evaluation.thread_map",
        "evaluation.column",
        "likelihood.grid",
        "reports.serialize",
        "reports.render",
    } <= names
