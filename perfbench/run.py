"""Benchmark of the `defiers` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload analyze-612 --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it runs the package under ``src/``
without installing it.  Each op is one CLI command in a fresh interpreter,
started as the ``defiers`` console script starts it.  Ops run one after
another (a closed loop with one client) for ``--seconds`` seconds, and every
op's output is checked.

``--trace 0`` times untraced ops and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` repeats the workload's first input as an
untraced op, a traced op (see tracer.py) and an untraced op with
``DEFIER_THREADS=1``, and reports the per-layer metrics.  Per-layer seconds
are summed over threads; counts are per op and must repeat exactly.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A summary with the
machine description is also written under ``perfbench/out/``.  The exit code
is 0 only when every op passed its checks; it is 2, with no result, when the
source tree is missing.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Every run, ops included, must end within this many seconds.
RUN_DEADLINE_S = 170.0
# Fewest fresh-interpreter imports timed per run for setup_s.
SETUP_SAMPLES = 9

ENTRY = "import sys; from defiers.cli import main; sys.exit(main())"

# The published smoking-cessation table (i1, i0, c1, c0), half of 612 treated.
PUBLISHED = (69, 237, 26, 280)
ARM = 306
# Seeded tables stay next to the published one: takeup 60..80 of 306 under
# intervention and 20..32 under control, with 115M..140M arm compositions
# (the published table has 126.4M).  Analysis cost scales with that count.
SEEDED_I1 = range(60, 81)
SEEDED_C1 = range(20, 33)
SEEDED_COMPOSITIONS = (115_000_000, 140_000_000)


def compositions(table: tuple[int, int, int, int]) -> int:
    i1, i0, c1, c0 = table
    return (i1 + 1) * (i0 + 1) * (c1 + 1) * (c0 + 1)


def analyze_tables(seed: int) -> list[tuple[int, int, int, int]]:
    """The published table, then the seeded tables in an order fixed by the seed."""
    lo, hi = SEEDED_COMPOSITIONS
    seeded = [
        (i1, ARM - i1, c1, ARM - c1)
        for i1 in SEEDED_I1
        for c1 in SEEDED_C1
        if lo <= compositions((i1, ARM - i1, c1, ARM - c1)) <= hi
    ]
    seeded.remove(PUBLISHED)
    random.Random(seed).shuffle(seeded)
    return [PUBLISHED] + seeded


@functools.cache
def digests() -> dict:
    """SHA-256 of output files, recorded at the seed commit (see digests.json)."""
    return json.loads((HERE / "digests.json").read_text())


def _check_digest(path: Path, want: str | None) -> str | None:
    if want is not None and hashlib.sha256(path.read_bytes()).hexdigest() != want:
        return f"{path.name} differs from the recorded bytes"
    return None


def check_analyze(table, out: Path) -> str | None:
    report = json.loads((out / "report.json").read_text())
    if not (out / "report.txt").read_text():
        return "report.txt is empty"
    data = report["data"]
    if (data["i1"], data["i0"], data["c1"], data["c0"]) != table:
        return f"report.json is for {data}, not {table}"
    cred = report["credible"]
    if table == PUBLISHED:
        if report["mle"]["maximizers"] != [{"at": 52, "co": 86, "de": 0, "nt": 474}]:
            return f"published table: MLE {report['mle']['maximizers']}"
        if cred["de_range"][1] != 71:
            return f"published table: credible defier max {cred['de_range'][1]}"
    if cred["achieved_mass"] < cred["level"]:
        return f"credible mass {cred['achieved_mass']} below level {cred['level']}"
    lo, hi = report["absolute_defier_bounds"]
    de_lo, de_hi = cred["de_range"]
    if [lo, hi] != [0, table[1] + table[2]] or not lo <= de_lo <= de_hi <= hi:
        return f"defier range {[de_lo, de_hi]} outside bounds {[lo, hi]}"
    if any(sum(t.values()) != report["n"] for t in report["mle"]["maximizers"]):
        return "an MLE does not sum to n"
    key = ",".join(map(str, table))
    return _check_digest(out / "report.json", digests()["analyze-612"].get(key))


def check_heatmap(_, out: Path) -> str | None:
    if not (out / "heatmap.svg").read_text().rstrip().endswith("</svg>"):
        return "heatmap.svg is incomplete"
    return _check_digest(out / "heatmap.csv", digests()["heatmap-50"])


def check_rules(_, out: Path) -> str | None:
    if not (out / "rule_comparison.svg").read_text().rstrip().endswith("</svg>"):
        return "rule_comparison.svg is incomplete"
    last = (out / "rule_comparison.csv").read_text().splitlines()[-1].split(",")
    if last[0] != "50" or (f"{float(last[4]):.2f}", f"{float(last[5]):.2f}") != ("1.50", "1.19"):
        return f"n=50 row {last} does not give ratios 1.50 and 1.19"
    return _check_digest(out / "rule_comparison.csv", digests()["rules-50"])


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], list]  # seed -> inputs, one per op, cycled
    argv: Callable[[object], list[str]]  # input -> CLI arguments
    check: Callable[[object, Path], str | None]  # input, out dir -> error or None


WORKLOADS = {
    "analyze-612": Workload(
        analyze_tables,
        lambda t: ["analyze", "--i1", str(t[0]), "--i0", str(t[1]), "--c1", str(t[2]),
                   "--c0", str(t[3]), "--m", str(ARM)],
        check_analyze,
    ),
    "heatmap-50": Workload(lambda seed: [None], lambda _: ["heatmap", "--n", "50", "--m", "25"],
                           check_heatmap),
    "rules-50": Workload(lambda seed: [None], lambda _: ["compare-rules", "--max-n", "50"],
                         check_rules),
}


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None


class Runner:
    """Starts ops one at a time and checks each one's output."""

    def __init__(self, workload: Workload, out: Path, deadline: float):
        self.workload = workload
        self.out = out
        self.deadline = deadline
        self.ops: list[Op] = []

    def _env(self, threads: int | None) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("DEFIER_THREADS", None)
        if threads is not None:
            env["DEFIER_THREADS"] = str(threads)
        return env

    def spawn(self, cmd: list[str], threads: int | None = None) -> tuple[int, float, float, float]:
        """Run one child to completion: exit code, wall s, user+sys CPU s, peak RSS MB.

        ``os.wait4`` gives this child's own resource use; RUSAGE_CHILDREN
        would keep the largest peak RSS of all children so far.
        """
        with open(self.out / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self._env(threads),
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6

    def op(self, item, *, spans: Path | None = None, threads: int | None = None) -> Op:
        op_dir = self.out / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        args = self.workload.argv(item) + ["--quiet", "--out-dir", str(op_dir)]
        if spans is None:
            cmd = [sys.executable, "-c", ENTRY, *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        code, wall, cpu, rss = self.spawn(cmd, threads)
        error = f"exit code {code}" if code != 0 else None
        if error is None:
            try:
                error = self.workload.check(item, op_dir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"output check raised {exc!r}"
        op = Op(wall, cpu, rss, error)
        if error is not None:
            print(f"op {len(self.ops)} ({' '.join(args[:-2])}) failed: {error}", file=sys.stderr)
        self.ops.append(op)
        return op


def machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e9, 2),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced op


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its children in the same thread."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            own[parent["id"]] -= s["end"] - s["start"]
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced op, except the ones taken across ops."""
    spans = trace["spans"]
    own = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    peak: dict[tuple[str, str], int] = defaultdict(int)
    for s in spans:
        name = s["name"]
        incl[name] += s["end"] - s["start"]
        selfs[name] += own[s["id"]]
        calls[name] += 1
        for key, value in s.get("counts", {}).items():
            counts[name, key] += value
            peak[name, key] = max(peak[name, key], value)

    def self_of(*names: str) -> float:
        return sum(selfs[n] for n in names)

    analyze = [s for s in spans if s["name"] == "reports.analyze"]
    child_share = 0.0
    if analyze:
        span = analyze[0]
        covered = sum(c["end"] - c["start"] for c in spans if c["parent"] == span["id"])
        child_share = covered / (span["end"] - span["start"])
    entries = counts["inference.credible", "entries"]
    return {
        "likelihood.grid_s": incl["likelihood.grid"],
        "likelihood.grid_calls": calls["likelihood.grid"],
        "likelihood.grid_compositions": counts["likelihood.grid", "compositions"],
        "likelihood.grid_candidates": counts["likelihood.grid", "candidates"],
        "likelihood.grid_support": counts["likelihood.grid", "support"],
        "likelihood.grid_bytes": peak["likelihood.grid", "bytes"],
        "likelihood.exact_count_s": incl["likelihood.exact_count"],
        "likelihood.exact_count_calls": calls["likelihood.exact_count"],
        "inference.posterior_self_s": self_of("inference.posterior"),
        "inference.posterior_entries": counts["inference.posterior", "entries"],
        "inference.posterior_bytes": counts["inference.posterior", "bytes"],
        "core.components_s": incl["core.components"],
        "core.components_decoded": counts["core.components", "decoded"],
        "inference.credible_s": incl["inference.credible"],
        "inference.credible_members": counts["inference.credible", "members"],
        "inference.credible_useful_ratio":
            counts["inference.credible", "members"] / entries if entries else 0.0,
        "inference.mle_self_s": self_of("inference.mle", "inference.argmax_mle"),
        "inference.mono_self_s": self_of("inference.mono", "inference.argmax_mono"),
        "inference.unverified": counts["inference.argmax_mle", "unverified"]
        + counts["inference.argmax_mono", "unverified"],
        "frechet.profile_self_s": self_of("frechet.profile"),
        "frechet.profile_members": counts["frechet.profile", "members"],
        "evaluation.heatmap_self_s": self_of("evaluation.heatmap", "evaluation.row"),
        "evaluation.fisher_s": incl["evaluation.fisher"],
        "evaluation.fisher_calls": calls["evaluation.fisher"],
        "evaluation.rules_self_s": self_of("evaluation.rules", "evaluation.rule_eu_vectors",
                                           "evaluation.data_space", "evaluation.column"),
        "evaluation.realizations": counts["evaluation.data_space", "realizations"],
        "evaluation.pool_wait_s": self_of("evaluation.thread_map"),
        "reports.analyze_self_s": self_of("reports.analyze"),
        "reports.analyze_child_share": child_share,
        "reports.serialize_s": incl["reports.serialize"],
        "reports.render_s": incl["reports.render"],
        "reports.bytes_out":
            counts["reports.serialize", "bytes"] + counts["reports.render", "bytes"],
        "cli.main_self_s": self_of("cli.main"),
        "cli.import_s": trace["import_s"],
    }


# ---------------------------------------------------------------------------
# Runs


def timed_run(runner: Runner, inputs: list, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and their sample counts."""
    setup = []

    def time_import() -> None:
        code, wall, _, _ = runner.spawn([sys.executable, "-c", "import defiers.cli"])
        if code != 0:
            raise SystemExit(f"error: importing defiers.cli from {SRC} failed (exit code {code})")
        setup.append(wall)

    time_import()  # also compiles the bytecode cache, so it is not counted
    setup.clear()
    # One import before each op spreads the set-up samples over the run.
    start = time.monotonic()
    while not runner.ops or time.monotonic() - start < seconds:
        time_import()
        runner.op(inputs[len(runner.ops) % len(inputs)])
    while len(setup) < SETUP_SAMPLES:
        time_import()
    ops = runner.ops
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(o.wall_s for o in ops),
        "op_cpu_s": statistics.median(o.cpu_s for o in ops),
        "peak_rss_mb": max(o.rss_mb for o in ops),
    }
    samples = {"setup_s": len(setup), "op_p50_s": len(ops), "op_cpu_s": len(ops),
               "peak_rss_mb": len(ops)}
    return values, samples


def traced_run(runner: Runner, inputs: list, seconds: float,
               exact: set[str]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, their sample counts, and counters that did not repeat."""
    item = inputs[0]
    untraced, traced, serial, per_op = [], [], [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        untraced.append(runner.op(item).wall_s)
        spans = runner.out / "spans.json"  # the last traced op's spans are kept
        op = runner.op(item, spans=spans)
        traced.append(op.wall_s)
        if op.error is None:
            per_op.append(layer_metrics(json.loads(spans.read_text())))
        serial.append(runner.op(item, threads=1).wall_s)
    default = statistics.median(untraced)
    values: dict[str, float] = {}
    unsteady = []
    for name in per_op[0] if per_op else ():
        seen = [m[name] for m in per_op]
        if name in exact and len(set(seen)) > 1:
            unsteady.append(f"{name} {seen}")
        values[name] = seen[0] if name in exact else statistics.median(seen)
    values["evaluation.thread_speedup"] = statistics.median(serial) / default
    values["trace.op_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.op_s"] - default
    samples = {name: len(per_op) for name in values}
    samples.update({"evaluation.thread_speedup": len(serial) + len(untraced),
                    "trace.op_s": len(traced), "trace.overhead_s": len(traced) + len(untraced)})
    return values, samples, unsteady


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "defiers" / "cli.py").is_file():
        print(f"error: no defiers sources under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, out, deadline)
    inputs = workload.inputs(args.seed)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    unsteady: list[str] = []
    if args.trace:
        exact = {name for name, unit in units.items() if unit in ("count", "B")}
        values, samples, unsteady = traced_run(runner, inputs, args.seconds, exact)
    else:
        values, samples = timed_run(runner, inputs, args.seconds)

    host = machine()
    failed = sum(o.error is not None for o in runner.ops)
    attempted = len(runner.ops)
    predictions = json.loads((HERE / "predictions.json").read_text())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s; machine {host}")
    for name, unit in units.items():
        note = f"  -> {predictions[name]}" if args.trace else ""
        value = values.get(name, 0)
        shown = f"{value:>16,}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:34s} {shown} {unit:6s} (n={samples.get(name, 0)}){note}")
    print(f"  {'fail_share':34s} {failed / attempted:>16.6g} {'share':6s} "
          f"({failed}/{attempted} ops)")
    for line in unsteady:
        print(f"counter differs between traced ops: {line}", file=sys.stderr)

    correct = failed == 0 and not unsteady
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    summary = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                   seconds=args.seconds, machine=host, samples=samples,
                   ops=[o.__dict__ for o in runner.ops], unsteady=unsteady)
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
