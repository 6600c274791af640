"""Run one `defiers` command in this process, with spans at the layer boundaries.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON CLI_ARGS...

The program under test is not edited.  Before calling ``defiers.cli.main``
with CLI_ARGS, this script replaces the module-global names each layer is
called through (``reports.posterior``, ``inference.assignment_count_grid``,
``ThetaIndex.components`` and so on) with pass-through wrappers.  A wrapper
records a span (name, start, end, parent, thread) and the counters it can read
off the call's arguments and return value; it changes no argument and no
result.  Spans stay in memory and are written to SPANS_JSON when the command
returns.  The exit code is the command's.

Counting work done after a call (such as counting the non-zero entries of a
likelihood grid) is recorded as a ``trace.count`` span of its own, so that it
is charged to the tracer and not to the caller's self time.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, count=None, parent=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``parent`` overrides the enclosing span of this thread; it links work
        handed to a pool thread to the span that handed it over.
        """
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        thread = threading.get_ident()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "thread": thread}
        if count is not None:
            span["counts"] = count(result, args, kwargs)
            self.spans.append({"id": next(self._ids), "name": "trace.count", "start": end,
                               "end": time.perf_counter(), "parent": parent, "thread": thread})
        self.spans.append(span)
        return result


def _wrap(rec: Recorder, owner, attr: str, name, count=None) -> None:
    """Replace ``owner.attr`` with a pass-through wrapper recording a span.

    ``name`` is a span name, or a function of (args, kwargs) giving one.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name if isinstance(name, str) else name(args, kwargs)
        return rec.call(span, fn, args, kwargs, count)

    setattr(owner, attr, wrapper)


def _text_bytes(text, args, kwargs) -> dict:
    return {"bytes": len(text.encode())}


def _grid_counts(grid, args, kwargs) -> dict:
    import numpy as np  # not at the top: cli.import_s must include numpy's import

    i1, i0, c1, c0 = args[0].counts()
    return {
        "compositions": (i1 + 1) * (i0 + 1) * (c1 + 1) * (c0 + 1),
        "candidates": int(grid.size),
        "support": int(np.count_nonzero(grid)),
        "bytes": int(grid.nbytes),  # computed from the array size
    }


def _posterior_counts(post, args, kwargs) -> dict:
    arrays = (post.at, post.co, post.de, post.mass)
    return {"entries": post.entry_count, "bytes": sum(int(a.nbytes) for a in arrays)}


def _credible_counts(summary, args, kwargs) -> dict:
    return {"members": summary.member_count, "entries": args[0].entry_count}


def _argmax_name(args, kwargs) -> str:
    restricted = args[2] if len(args) > 2 else kwargs.get("candidate_flat")
    return "inference.argmax_mle" if restricted is None else "inference.argmax_mono"


def _argmax_counts(result, args, kwargs) -> dict:
    return {"unverified": 0 if result[1] else 1}


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    import numpy as np

    from defiers import cli, core, evaluation, frechet, inference, reports

    _wrap(rec, cli, "analyze", "reports.analyze")
    for attr in ("report_to_json", "heatmap_csv", "rule_comparison_csv"):
        _wrap(rec, cli, attr, "reports.serialize", _text_bytes)
    for attr in ("render_text", "heatmap_svg", "rule_comparison_svg"):
        _wrap(rec, cli, attr, "reports.render", _text_bytes)
    _wrap(rec, cli, "heatmap", "evaluation.heatmap")
    _wrap(rec, cli, "rule_comparison_curve", "evaluation.rules")

    _wrap(rec, reports, "estimate_marginals", "frechet.marginals")
    _wrap(rec, reports, "frechet_set", "frechet.set")
    _wrap(rec, reports, "frechet_profile", "frechet.profile",
          lambda rows, a, k: {"members": len(rows)})
    _wrap(rec, reports, "profile_level_flags", "frechet.flags")
    _wrap(rec, reports, "mle", "inference.mle")
    _wrap(rec, reports, "monotonicity_mle", "inference.mono")
    _wrap(rec, reports, "posterior", "inference.posterior", _posterior_counts)
    _wrap(rec, reports, "smallest_credible_set", "inference.credible", _credible_counts)

    for module in (inference, evaluation):
        _wrap(rec, module, "assignment_count_grid", "likelihood.grid", _grid_counts)
        _wrap(rec, module, "_argmax_ties", _argmax_name, _argmax_counts)
    _wrap(rec, inference, "exact_assignment_count", "likelihood.exact_count")
    _wrap(rec, frechet, "exact_assignment_count", "likelihood.profile_count")
    _wrap(rec, core.ThetaIndex, "components", "core.components",
          lambda r, a, k: {"decoded": int(np.size(a[1]))})

    _wrap(rec, evaluation, "fisher_exact_p", "evaluation.fisher")
    _wrap(rec, evaluation, "rule_eu_vectors", "evaluation.rule_eu_vectors")
    _wrap(rec, evaluation, "_data_space", "evaluation.data_space",
          lambda xs, a, k: {"realizations": len(xs)})

    thread_map = evaluation._thread_map

    def traced_thread_map(fn, items, threads):
        def run(fn, items, threads):
            parent = rec.current()
            item_name = f"evaluation.{fn.__name__}"

            def item(x):
                return rec.call(item_name, fn, (x,), {}, parent=parent)

            return thread_map(item, items, threads)

        return rec.call("evaluation.thread_map", run, (fn, items, threads), {})

    evaluation._thread_map = traced_thread_map


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import defiers.cli

    import_s = time.perf_counter() - start
    rec = Recorder()
    install(rec)
    try:
        return rec.call("cli.main", defiers.cli.main, (cli_args,), {})
    finally:
        with open(spans_path, "w") as out:
            json.dump({"import_s": import_s, "spans": rec.spans}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
