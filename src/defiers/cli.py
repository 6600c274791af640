"""Command-line front end.

Subcommands: analyze, heatmap, compare-rules, frechet-profile, oracle, monty.
Exit codes: 0 success, 2 input error, 3 size-guard refusal.  Progress goes to
stderr unless --quiet.
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
    DegenerateDataError,
    Design,
    DesignInconsistencyError,
    ExperimentData,
    Theta,
)
from .evaluation import (
    BAYES_MAX_N_CR,
    heatmap,
    monty_hall_likelihoods,
    rule_comparison_curve,
)
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


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _progress(args: argparse.Namespace):
    if args.quiet:
        return None
    return lambda msg: print(msg, file=sys.stderr, flush=True)


def _load_request_inputs(args: argparse.Namespace) -> tuple[Design, ExperimentData]:
    """Design and counts from --input JSON or from the positional flags."""
    if args.input is not None:
        path = Path(args.input)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise _CliError(f"cannot read {path}: {exc}", EXIT_INPUT) from exc
        except json.JSONDecodeError as exc:
            raise _CliError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
                EXIT_INPUT,
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
            raise _CliError(f"{path}: bad field: {exc}", EXIT_INPUT) from exc
        return design, data
    missing = [k for k in ("i1", "i0", "c1", "c0") if getattr(args, k) is None]
    if missing:
        raise _CliError(
            f"provide --input FILE or all of --i1 --i0 --c1 --c0 (missing {missing})",
            EXIT_INPUT,
        )
    try:
        data = ExperimentData(i1=args.i1, i0=args.i0, c1=args.c1, c0=args.c0)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT) from exc
    if (args.m is None) == (args.p is None):
        raise _CliError("provide exactly one of --m (completely randomized) or --p (Bernoulli)", EXIT_INPUT)
    try:
        design: Design
        if args.m is not None:
            design = CompletelyRandomized(m=args.m, n=data.n)
        else:
            design = Bernoulli(p=args.p)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT) from exc
    return design, data


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
        raise _CliError(f"cannot write {name}: {exc}", EXIT_INPUT) from exc
    if not args.quiet:
        print(f"wrote {path}", file=sys.stderr)
    return path


def _cmd_analyze(args: argparse.Namespace) -> int:
    design, data = _load_request_inputs(args)
    _warn_bernoulli(design, args)
    try:
        request = AnalysisRequest(
            design=design,
            data=data,
            credible_level=args.level,
            with_frechet_profile=not args.no_profile,
            with_monotonicity=not args.no_monotonicity,
            exact_arithmetic=args.exact,
        )
        report = analyze(request, progress=_progress(args))
    except (DegenerateDataError, DesignInconsistencyError, ValueError) as exc:
        raise _CliError(str(exc), EXIT_INPUT) from exc
    _write(args, "report.json", report_to_json(report))
    _write(args, "report.txt", render_text(report))
    if not args.quiet:
        print(render_text(report), end="")
    return EXIT_OK


def _cmd_frechet_profile(args: argparse.Namespace) -> int:
    design, data = _load_request_inputs(args)
    _warn_bernoulli(design, args)
    try:
        fs = frechet_set(estimate_marginals(data, design))
        rows = frechet_profile(fs, data, design)
        flags = profile_level_flags(rows, args.level)
    except (DegenerateDataError, DesignInconsistencyError, ValueError) as exc:
        raise _CliError(str(exc), EXIT_INPUT) from exc
    _write(args, "frechet_profile.csv", profile_csv(rows, flags))
    _write(args, "frechet_profile.svg", profile_svg(rows, flags))
    return EXIT_OK


def _cmd_heatmap(args: argparse.Namespace) -> int:
    try:
        cells = heatmap(args.n, args.m, force=args.force, progress=_progress(args))
    except BudgetExceededError as exc:
        raise _CliError(str(exc), EXIT_BUDGET) from exc
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT) from exc
    _write(args, "heatmap.csv", heatmap_csv(cells))
    _write(args, "heatmap.svg", heatmap_svg(cells))
    return EXIT_OK


def _cmd_compare_rules(args: argparse.Namespace) -> int:
    if args.max_n < 2 or args.max_n % 2 != 0:
        raise _CliError(f"--max-n must be even and >= 2, got {args.max_n}", EXIT_INPUT)
    if args.max_n > BAYES_MAX_N_CR:
        raise _CliError(
            f"--max-n {args.max_n} exceeds the exact-evaluation guard of {BAYES_MAX_N_CR}",
            EXIT_BUDGET,
        )
    progress = _progress(args)
    rows = []
    for n in range(2, args.max_n + 1, 2):
        rows.extend(rule_comparison_curve([n]))
        if progress is not None:
            progress(f"evaluated rules at n={n}")
    _write(args, "rule_comparison.csv", rule_comparison_csv(rows))
    _write(args, "rule_comparison.svg", rule_comparison_svg(rows))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        theta = Theta(args.at, args.co, args.de, args.nt)
        if not 0 <= args.m <= theta.n:
            raise ValueError(f"need 0 <= m <= n, got m={args.m}, n={theta.n}")
        tally = oracle_data_distribution(theta, args.m)
    except BudgetExceededError as exc:
        raise _CliError(str(exc), EXIT_BUDGET) from exc
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT) from exc
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

    def as_fraction(v: float) -> str:
        frac = Fraction(v).limit_denominator(64)
        return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"

    print(
        f"car-absent: {as_fraction(result.car_absent)}, "
        f"car-present: {as_fraction(result.car_present)}, "
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
    p.add_argument("--no-profile", action="store_true", help="skip the Fréchet profile")
    p.add_argument("--no-monotonicity", action="store_true",
                   help="skip the monotonicity-restricted estimate")
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
    _add_common(p)
    p.add_argument("--at", type=int, required=True, help="always takers")
    p.add_argument("--co", type=int, required=True, help="compliers")
    p.add_argument("--de", type=int, required=True, help="defiers")
    p.add_argument("--nt", type=int, required=True, help="never takers")
    p.add_argument("--m", type=int, required=True, help="intervention arm size")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("monty", help="three-door reveal demonstration")
    _add_common(p)
    p.set_defaults(fn=_cmd_monty)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DegenerateDataError, DesignInconsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
