"""Command-line front end.

Subcommands: analyze, heatmap, compare-rules, frechet-profile, oracle, monty.
``analyze`` has one configuration: it always reports the MLE, the estimate
under monotonicity, the smallest credible set and the Fréchet profile;
``--level`` sets the credible level and ``--exact`` adds exact assignment
counts.  Exit codes: 0 success, 2 input error, 3 size-guard refusal.
Subcommands raise; ``main`` alone maps a ``BudgetExceededError`` to 3 and any
other ``ValueError`` to 2.  Progress goes to stderr unless --quiet; oracle
and monty write no file and print only their result.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .core import (
    Bernoulli,
    BudgetExceededError,
    CompletelyRandomized,
    Design,
    ExperimentData,
    Theta,
)
from .evaluation import heatmap, monty_hall_likelihoods, rule_comparison_curve
from .frechet import estimate_marginals, frechet_profile, frechet_set, profile_level_flags
from .likelihood import oracle_data_distribution
from .reports import (
    AnalysisRequest,
    analyze,
    design_from_dict,
    heatmap_csv,
    heatmap_svg,
    profile_csv,
    profile_svg,
    render_text,
    report_to_json,
    rule_comparison_csv,
    rule_comparison_svg,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _progress(args: argparse.Namespace):
    if args.quiet:
        return None
    return lambda msg: print(msg, file=sys.stderr, flush=True)


def _load_request_inputs(args: argparse.Namespace) -> tuple[Design, ExperimentData]:
    """Design and counts from --input JSON or from the count and design flags."""
    if args.input is not None:
        given = [f"--{k}" for k in ("i1", "i0", "c1", "c0", "m", "p") if getattr(args, k) is not None]
        if given:
            raise ValueError(f"--input carries the counts and design; drop {' '.join(given)}")
        path = Path(args.input)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        try:
            counts = doc["counts"]
            data = ExperimentData(
                i1=counts["i1"], i0=counts["i0"], c1=counts["c1"], c0=counts["c0"]
            )
            design_doc = dict(doc["design"])
            if design_doc.get("type") == "completely_randomized":
                design_doc.setdefault("n", data.n)
            design = design_from_dict(design_doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad field: {exc}") from exc
        return design, data
    missing = [k for k in ("i1", "i0", "c1", "c0") if getattr(args, k) is None]
    if missing:
        raise ValueError(
            f"provide --input FILE or all of --i1 --i0 --c1 --c0 (missing {missing})"
        )
    data = ExperimentData(i1=args.i1, i0=args.i0, c1=args.c1, c0=args.c0)
    if (args.m is None) == (args.p is None):
        raise ValueError("provide exactly one of --m (completely randomized) or --p (Bernoulli)")
    if args.m is not None:
        return CompletelyRandomized(m=args.m, n=data.n), data
    return Bernoulli(p=args.p), data


def _warn_bernoulli(design: Design, args: argparse.Namespace) -> None:
    if isinstance(design, Bernoulli) and not args.quiet:
        print(
            "warning: Bernoulli design treats arm sizes as random; published "
            "applications use completely randomized designs",
            file=sys.stderr,
        )


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="JSON document with design and counts")
    p.add_argument("--i1", type=int, help="takeup count in intervention")
    p.add_argument("--i0", type=int, help="no-takeup count in intervention")
    p.add_argument("--c1", type=int, help="takeup count in control")
    p.add_argument("--c0", type=int, help="no-takeup count in control")
    p.add_argument("--m", type=int, help="intervention arm size (completely randomized)")
    p.add_argument("--p", type=float, help="intervention probability (Bernoulli)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    p.add_argument("--out-dir", default=".", help="directory for output files")


def _write(args: argparse.Namespace, name: str, content: str) -> Path:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / name
        path.write_text(content)
    except OSError as exc:
        raise ValueError(f"cannot write {name}: {exc}") from exc
    if not args.quiet:
        print(f"wrote {path}", file=sys.stderr)
    return path


def _cmd_analyze(args: argparse.Namespace) -> int:
    design, data = _load_request_inputs(args)
    _warn_bernoulli(design, args)
    request = AnalysisRequest(
        design=design,
        data=data,
        credible_level=args.level,
        exact_arithmetic=args.exact,
    )
    report = analyze(request, progress=_progress(args))
    _write(args, "report.json", report_to_json(report))
    text = render_text(report)
    _write(args, "report.txt", text)
    if not args.quiet:
        print(text, end="")
    return EXIT_OK


def _cmd_frechet_profile(args: argparse.Namespace) -> int:
    design, data = _load_request_inputs(args)
    _warn_bernoulli(design, args)
    fs = frechet_set(estimate_marginals(data, design))
    rows = frechet_profile(fs, data, design)
    flags = profile_level_flags(rows, args.level)
    _write(args, "frechet_profile.csv", profile_csv(rows, flags))
    _write(args, "frechet_profile.svg", profile_svg(rows, flags))
    return EXIT_OK


def _cmd_heatmap(args: argparse.Namespace) -> int:
    cells = heatmap(args.n, args.m, force=args.force, progress=_progress(args))
    _write(args, "heatmap.csv", heatmap_csv(cells))
    _write(args, "heatmap.svg", heatmap_svg(cells))
    return EXIT_OK


def _cmd_compare_rules(args: argparse.Namespace) -> int:
    if args.max_n < 2 or args.max_n % 2 != 0:  # range would drop an odd top
        raise ValueError(f"--max-n must be even and >= 2, got {args.max_n}")
    rows = rule_comparison_curve(range(2, args.max_n + 1, 2), progress=_progress(args))
    _write(args, "rule_comparison.csv", rule_comparison_csv(rows))
    _write(args, "rule_comparison.svg", rule_comparison_svg(rows))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    theta = Theta(args.at, args.co, args.de, args.nt)
    tally = oracle_data_distribution(theta, args.m)
    total = math.comb(theta.n, args.m)
    print("i1,i0,c1,c0,assignments,fraction")
    for x in sorted(tally, key=lambda d: (d.i1, d.c1)):
        frac = Fraction(tally[x], total)
        print(
            f"{x.i1},{x.i0},{x.c1},{x.c0},{tally[x]},"
            f"{frac.numerator}/{frac.denominator}"
        )
    print(f"total,,,,{sum(tally.values())},1")
    return EXIT_OK


def _cmd_monty(args: argparse.Namespace) -> int:
    result = monty_hall_likelihoods()
    print(
        f"car-absent: {result.car_absent}, car-present: {result.car_present}, "
        f"decision: {result.decision}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defiers",
        description=(
            "Design-based likelihood analysis of binary-intervention/"
            "binary-outcome randomized experiments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of one experiment")
    _add_common(p)
    _add_data_options(p)
    p.add_argument("--level", type=float, default=0.95, help="credible level")
    p.add_argument("--exact", action="store_true",
                   help="report exact assignment counts for the maximizers")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("frechet-profile", help="likelihood profile across the estimated set")
    _add_common(p)
    _add_data_options(p)
    p.add_argument("--level", type=float, default=0.95, help="mass level for the flags")
    p.set_defaults(fn=_cmd_frechet_profile)

    p = sub.add_parser("heatmap", help="MLE of every possible data realization")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--m", type=int, required=True, help="intervention arm size")
    p.add_argument("--force", action="store_true",
                   help="run above the size guard (long-running)")
    p.set_defaults(fn=_cmd_heatmap)

    p = sub.add_parser("compare-rules", help="Bayes expected utility of the three rules")
    _add_common(p)
    p.add_argument("--max-n", type=int, required=True, help="largest even sample size")
    p.set_defaults(fn=_cmd_compare_rules)

    p = sub.add_parser("oracle", help="assignment tally for a known joint distribution")
    p.add_argument("--at", type=int, required=True, help="always takers")
    p.add_argument("--co", type=int, required=True, help="compliers")
    p.add_argument("--de", type=int, required=True, help="defiers")
    p.add_argument("--nt", type=int, required=True, help="never takers")
    p.add_argument("--m", type=int, required=True, help="intervention arm size")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("monty", help="three-door reveal demonstration")
    p.set_defaults(fn=_cmd_monty)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
