"""Analysis orchestration and report/CSV/SVG emission.

``analyze`` runs one configuration: every report holds the MLE, the estimate
under monotonicity, the smallest credible set and the likelihood profile
across the estimated Fréchet set, plus exact assignment counts on request.
Reports are plain dataclasses with a deterministic JSON form: running the
same analysis twice produces byte-identical output, including tie ordering.
CSV numeric fields use 17-significant-digit formatting; SVG output is
generated directly with no plotting dependency.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

from .core import (
    Bernoulli,
    CompletelyRandomized,
    Design,
    ExperimentData,
    Theta,
)
from .frechet import (
    ProfileRow,
    estimate_marginals,
    frechet_profile,
    frechet_set,
    profile_level_flags,
)
from .inference import (
    CredibleSummary,
    MleResult,
    _cached_grid,
    mle,
    monotonicity_mle,
    posterior,
    smallest_credible_set,
)
from .evaluation import HeatmapCell, RuleComparisonRow


def fmt_float(v: float) -> str:
    """Full-precision float formatting used by every CSV field."""
    return format(v, ".17g")


def _pct(v: float) -> str:
    return f"{round(100 * v)}%"


@dataclass(frozen=True)
class AnalysisRequest:
    design: Design
    data: ExperimentData
    credible_level: float = 0.95
    exact_arithmetic: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.credible_level < 1.0:
            raise ValueError(
                f"credible level must be in (0,1), got {self.credible_level}"
            )


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    design: Design
    data: ExperimentData
    average_effect: float
    marginals: tuple[int, int]
    estimated_defier_bounds: tuple[int, int]
    absolute_defier_bounds: tuple[int, int]
    mle: MleResult
    credible: CredibleSummary
    monotonicity: MleResult
    profile: tuple[ProfileRow, ...]
    profile_in_level: tuple[bool, ...]
    exact_counts: tuple[str, ...] | None = None  # assignment counts of MLE ties


def analyze(
    request: AnalysisRequest, *, progress: Callable[[str], None] | None = None
) -> AnalysisReport:
    """Run the full single-experiment analysis pipeline."""
    x, design = request.data, request.design

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    note("estimating marginals and defier bounds")
    marginals = estimate_marginals(x, design)
    fs = frechet_set(marginals)
    note(f"grid search over {x.n}-subject parameter space")
    try:  # the three share one box, released once they return or raise
        mle_result = mle(x, design)
        mono = monotonicity_mle(x, design)
        note("posterior and smallest credible set")
        credible = smallest_credible_set(posterior(x, request.credible_level))
    finally:
        _cached_grid.cache_clear()
    note("profile across the estimated Fréchet set")
    rows = frechet_profile(fs, x, design)
    flags = profile_level_flags(rows, request.credible_level)
    exact = None
    if request.exact_arithmetic:
        from .likelihood import exact_assignment_count

        exact = tuple(
            str(exact_assignment_count(t, x)) for t in mle_result.maximizers
        )
    return AnalysisReport(
        n=x.n,
        design=design,
        data=x,
        average_effect=x.average_effect(),
        marginals=(marginals.m1, marginals.mc),
        estimated_defier_bounds=(fs.defier_lo, fs.defier_hi),
        absolute_defier_bounds=(0, x.i0 + x.c1),
        mle=mle_result,
        credible=credible,
        monotonicity=mono,
        profile=tuple(rows),
        profile_in_level=tuple(flags),
        exact_counts=exact,
    )


# ---------------------------------------------------------------------------
# JSON


def design_to_dict(design: Design) -> dict:
    if isinstance(design, CompletelyRandomized):
        return {"type": "completely_randomized", "m": design.m, "n": design.n}
    return {"type": "bernoulli", "p": design.p}


def design_from_dict(d: dict) -> Design:
    if d["type"] == "completely_randomized":
        return CompletelyRandomized(m=d["m"], n=d["n"])
    if d["type"] == "bernoulli":
        return Bernoulli(p=d["p"])
    raise ValueError(f"unknown design type {d.get('type')!r}")


def _plain(value):
    """JSON-ready form: dataclasses and named tuples by field, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if hasattr(value, "_asdict"):
        return {k: _plain(v) for k, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def report_to_json(report: AnalysisReport) -> str:
    doc = _plain(report)
    doc["design"] = design_to_dict(report.design)
    doc["marginals"] = {"m1": report.marginals[0], "mc": report.marginals[1]}
    if report.credible.boundary_verified_exact:  # only false is emitted; confirmed bytes stay
        del doc["credible"]["boundary_verified_exact"]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Human-readable text


def _describe_design(design: Design) -> str:
    if isinstance(design, CompletelyRandomized):
        return f"completely randomized, {design.m} of {design.n} in intervention"
    return f"Bernoulli randomization, intervention probability {design.p}"


def _theta_line(t: Theta, n: int) -> str:
    parts = [
        f"{label} {count} ({_pct(count / n)})"
        for label, count in zip(
            ("always takers", "compliers", "defiers", "never takers"), t.counts()
        )
    ]
    return ", ".join(parts)


def render_text(report: AnalysisReport) -> str:
    n = report.n
    lines = [
        "Design-based analysis of the joint distribution of potential outcomes",
        "=" * 70,
        f"design: {_describe_design(report.design)}",
        f"data: i1={report.data.i1} i0={report.data.i0} "
        f"c1={report.data.c1} c0={report.data.c0} (n={n})",
        f"estimated average effect: {report.average_effect:+.4f} "
        f"({_pct(report.average_effect)})",
        "",
        f"estimated marginal takeup counts: {report.marginals[0]} in intervention, "
        f"{report.marginals[1]} in control (of {n})",
        f"absolute defier bounds: {report.absolute_defier_bounds[0]}..."
        f"{report.absolute_defier_bounds[1]} "
        f"(max {_pct(report.absolute_defier_bounds[1] / n)} of the sample)",
        f"estimated defier bounds: {report.estimated_defier_bounds[0]}..."
        f"{report.estimated_defier_bounds[1]} "
        f"(upper bound {_pct(report.estimated_defier_bounds[1] / n)})",
        "",
        "maximum likelihood estimate"
        + (
            ""
            if len(report.mle.maximizers) == 1
            else f" ({len(report.mle.maximizers)}-way tie, equal weights)"
        )
        + ":",
    ]
    for t in report.mle.maximizers:
        lines.append(f"  {_theta_line(t, n)}")
    lines.append(f"  log likelihood: {report.mle.log_likelihood:.6f}")
    if not report.mle.tie_verified_exact:
        lines.append("  maximizer tie not confirmed exactly")
    if report.exact_counts is not None:
        for t, c in zip(report.mle.maximizers, report.exact_counts):
            lines.append(f"  exact assignment count of {t.counts()}: {c}")
    mono = report.monotonicity
    lines += ["", "maximum likelihood under monotonicity (no defiers or no compliers):"]
    for t in mono.maximizers:
        lines.append(f"  {_theta_line(t, n)}")
    if not mono.tie_verified_exact:
        lines.append("  maximizer tie not confirmed exactly")
    same = set(mono.maximizers) == set(report.mle.maximizers)
    lines.append(f"  {'matches' if same else 'differs from'} the unrestricted estimate")
    c = report.credible
    lines += [
        "",
        f"smallest {_pct(c.level)} credible set: {c.member_count} members, "
        f"mass {c.achieved_mass:.6f}",
        *([] if c.boundary_verified_exact else ["  credible boundary not confirmed exactly"]),
        f"  always takers range: {c.at_range[0]}...{c.at_range[1]}",
        f"  compliers range:     {c.co_range[0]}...{c.co_range[1]}",
        f"  defiers range:       {c.de_range[0]}...{c.de_range[1]} "
        f"(max {_pct(c.de_range[1] / n)} of the sample)",
        f"  never takers range:  {c.nt_range[0]}...{c.nt_range[1]}",
        "  note: the four per-type ranges come from one joint credible set and are",
        "  dependent; the type counts must sum to the sample size.",
        "",
        "likelihood profile across the estimated Fréchet set:",
    ]
    for row, inside in zip(report.profile, report.profile_in_level):
        mark = "" if inside else " (outside level set)"
        lines.append(f"  defiers {row.defiers:4d}: mass {row.mass:.6f}{mark}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV writers


def _csv(header: str, rows: list) -> str:
    """CSV text: floats by ``fmt_float``, booleans lowercased, the rest by ``str``."""
    def spell(v) -> str:
        if isinstance(v, float):
            return fmt_float(v)
        return str(v).lower() if isinstance(v, bool) else str(v)

    return "\n".join([header, *(",".join(map(spell, row)) for row in rows)]) + "\n"


def profile_csv(rows: list[ProfileRow], in_level: list[bool]) -> str:
    fields = [(*row, flag) for row, flag in zip(rows, in_level)]
    return _csv("defiers,log_likelihood,mass,in_95_set", fields)


def heatmap_csv(cells: list[list[HeatmapCell]]) -> str:
    """One row per cell in row-major (i1, c1) order; tied cells emit one row per estimate."""
    return _csv(
        "i1,c1,mle_at,mle_co,mle_de,mle_nt,tie_count,types,defiers,fisher_p,fisher_reject_5",
        [
            (c.i1, c.c1, *t.counts(), len(c.mle_set), c.type_signature, c.defier_count,
             c.fisher_p, c.fisher_reject_5)
            for row in cells for c in row for t in c.mle_set
        ],
    )


def rule_comparison_csv(rows: list[RuleComparisonRow]) -> str:
    names = ("n", "eu_mle", "eu_frechet", "eu_mono", "ratio_frechet", "ratio_mono")
    return _csv(",".join(names), [[getattr(r, name) for name in names] for r in rows])


# ---------------------------------------------------------------------------
# SVG writers (static markup, no plotting dependency)

_CHART_WIDTH, _CHART_HEIGHT = 640, 360  # profile and rule-comparison charts


def _tag(name: str, text: str | list[str] | None = None, **attrs) -> str:
    """One SVG element, self-closing unless it has text (a list of elements is
    written one a line).  ``class_`` is written ``class``, other underscores as
    hyphens (``font_size`` as ``font-size``), booleans as ``true``/``false``."""
    spelled = "".join([
        f' {key.rstrip("_").replace("_", "-")}="'
        f'{str(value).lower() if isinstance(value, bool) else value}"'
        for key, value in attrs.items()
    ])
    if isinstance(text, list):
        text = "\n".join(["", *text, ""])
    return f"<{name}{spelled}/>" if text is None else f"<{name}{spelled}>{text}</{name}>"


def _svg(width: int, height: int, parts: list[str]) -> str:
    """A whole figure: ``parts`` one a line inside the root element."""
    return _tag("svg", parts, xmlns="http://www.w3.org/2000/svg", width=width, height=height,
                viewBox=f"0 0 {width} {height}") + "\n"


def _purple_shade(fraction: float) -> str:
    """Light-to-dark purple ramp; input in [0, 1]."""
    f = min(max(fraction, 0.0), 1.0)
    return f"rgb({round(245 - 175 * f)},{round(240 - 200 * f)},{round(250 - 90 * f)})"


def heatmap_svg(cells: list[list[HeatmapCell]]) -> str:
    """Grid shaded by defier count, with type-region and Fisher boundaries.

    Intervention takeup runs along x, control takeup along y (origin bottom
    left).  Dotted segments separate cells whose MLE type signatures differ;
    the dashed outline bounds the region where the exact test fails to reject
    at the 5% level.
    """
    m, mc = len(cells) - 1, len(cells[0]) - 1
    margin, side = 30, 14  # px; a cell is side by side
    width = margin * 2 + (m + 1) * side
    height = margin * 2 + (mc + 1) * side
    max_defiers = max((c.defier_count for row in cells for c in row), default=0) or 1
    corners = [  # each cell with its top left corner
        (cells[i1][c1], i1, c1, margin + i1 * side, margin + (mc - c1) * side)
        for i1 in range(m + 1) for c1 in range(mc + 1)
    ]
    rects = [
        _tag("rect", x=x, y=y, width=side, height=side,
             fill=_purple_shade(cell.defier_count / max_defiers),
             data_types=cell.type_signature, data_defiers=cell.defier_count,
             data_fisher_reject=cell.fisher_reject_5)
        for cell, _, _, x, y in corners
    ]
    parts = [_tag("g", rects, class_="cells")]
    for class_, stroke, stroke_width, dash, attr in (
        ("type-regions", "black", 1, "1,2", "type_signature"),
        ("fisher-boundary", "grey", 1.5, "4,3", "fisher_reject_5"),
    ):
        segments = []
        for cell, i1, c1, x, y in corners:
            if i1 < m and getattr(cell, attr) != getattr(cells[i1 + 1][c1], attr):
                segments.append(_tag("line", x1=x + side, y1=y, x2=x + side, y2=y + side))
            if c1 < mc and getattr(cell, attr) != getattr(cells[i1][c1 + 1], attr):
                segments.append(_tag("line", x1=x, y1=y, x2=x + side, y2=y))
        parts.append(_tag("g", segments, class_=class_, stroke=stroke,
                          stroke_width=stroke_width, stroke_dasharray=dash, fill="none"))
    parts += [
        _tag("text", f"takeup in intervention (0...{m})", x=margin, y=height - 8, font_size=10),
        _tag("text", f"takeup in control (0...{mc})", x=8, y=margin - 8, font_size=10),
    ]
    return _svg(width, height, parts)


def profile_svg(rows: list[ProfileRow], in_level: list[bool]) -> str:
    """Bar chart of within-set masses; bars outside the level set are lighter."""
    margin = 40
    plot_w = _CHART_WIDTH - 2 * margin
    plot_h = _CHART_HEIGHT - 2 * margin
    max_mass = max((r.mass for r in rows), default=0.0) or 1.0
    bar_w = plot_w / max(len(rows), 1)
    bars = []
    for k, (row, inside) in enumerate(zip(rows, in_level)):
        h = plot_h * row.mass / max_mass
        bars.append(_tag("rect", x=f"{margin + k * bar_w:.2f}", y=f"{margin + plot_h - h:.2f}",
                         width=f"{bar_w * 0.85:.2f}", height=f"{h:.2f}",
                         fill="#5b3a8c" if inside else "#cbb8e6", data_defiers=row.defiers,
                         data_in_level=inside))
    return _svg(_CHART_WIDTH, _CHART_HEIGHT, [
        _tag("g", bars, class_="bars"),
        _tag("line", x1=margin, y1=margin + plot_h, x2=margin + plot_w, y2=margin + plot_h,
             stroke="black"),
        _tag("text", f"defiers ({rows[0].defiers}...{rows[-1].defiers})", x=margin,
             y=_CHART_HEIGHT - 10, font_size=11),
        _tag("text", "normalized mass", x=10, y=margin - 10, font_size=11),
    ])


def rule_comparison_svg(rows: list[RuleComparisonRow]) -> str:
    """Two ratio curves (maximum likelihood over each alternative rule)."""
    margin = 45
    plot_w = _CHART_WIDTH - 2 * margin
    plot_h = _CHART_HEIGHT - 2 * margin
    xs = [r.n for r in rows]
    series = [  # class, colour, legend, ratios
        ("ratio-frechet", "#1f77b4", "uniform-in-set", [r.ratio_frechet for r in rows]),
        ("ratio-mono", "#d62728", "monotonicity", [r.ratio_mono for r in rows]),
    ]
    top = max(v for *_, vals in series for v in vals)
    lo, hi = 1.0, max(top, 1.0 + 1e-9)
    x0, x1 = min(xs), max(xs)

    def px(nv: float) -> float:
        return margin + plot_w * ((nv - x0) / (x1 - x0) if x1 > x0 else 0.5)

    def py(v: float) -> float:
        return margin + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [
        _tag("polyline", class_=name, fill="none", stroke=color, stroke_width=2,
             points=" ".join(f"{px(n):.2f},{py(v):.2f}" for n, v in zip(xs, vals)))
        for name, color, _, vals in series
    ]
    parts += [
        _tag("line", x1=margin, y1=py(1.0), x2=margin + plot_w, y2=py(1.0), stroke="#888",
             stroke_dasharray="3,3"),
        _tag("text", f"sample size ({x0}...{x1})", x=margin, y=_CHART_HEIGHT - 12,
             font_size=11),
        _tag("text", "Bayes expected utility ratio (maximum likelihood rule over alternative)",
             x=10, y=margin - 12, font_size=11),
        *(_tag("text", f"over {legend} rule", x=_CHART_WIDTH - margin - 170, y=margin + 16 * k,
               font_size=11, fill=color) for k, (_, color, legend, _) in enumerate(series)),
    ]
    return _svg(_CHART_WIDTH, _CHART_HEIGHT, parts)
