from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from defiers.core import Bernoulli, CompletelyRandomized, ExperimentData, Theta
from defiers.evaluation import heatmap, rule_comparison_curve
from defiers.frechet import (
    Marginals,
    estimate_marginals,
    frechet_profile,
    frechet_set,
    profile_level_flags,
)
from defiers.reports import (
    AnalysisRequest,
    analyze,
    design_from_dict,
    design_to_dict,
    fmt_float,
    heatmap_csv,
    heatmap_svg,
    profile_csv,
    profile_svg,
    render_text,
    report_to_json,
    rule_comparison_csv,
    rule_comparison_svg,
)

from grid_reference import tables

SIX = ExperimentData(2, 1, 1, 2)
CR6 = CompletelyRandomized(3, 6)
ORGAN = ExperimentData(50, 11, 23, 31)
ORGAN_CR = CompletelyRandomized(61, 115)


@pytest.fixture(scope="module")
def six_report():
    return analyze(AnalysisRequest(design=CR6, data=SIX, exact_arithmetic=True))


def test_analyze_six_person(six_report):
    rep = six_report
    assert rep.mle.maximizers == (Theta(0, 4, 2, 0),)
    assert rep.average_effect == pytest.approx(1 / 3)
    assert rep.marginals == (4, 2)
    assert rep.estimated_defier_bounds == (0, 2)
    assert rep.absolute_defier_bounds == (0, 2)  # i0 + c1
    assert [r.mass for r in rep.profile] == pytest.approx([8 / 26, 6 / 26, 12 / 26])
    assert rep.exact_counts == ("12",)


# Expected report.json bytes for each case live in golden/<name>.json.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "six_person_exact": AnalysisRequest(design=CR6, data=SIX, exact_arithmetic=True),
    "organ_donation": AnalysisRequest(design=ORGAN_CR, data=ORGAN),
    "bernoulli_half": AnalysisRequest(design=Bernoulli(0.5), data=ExperimentData(3, 3, 2, 4)),
}


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_report_json_golden_bytes(name):
    expected = (GOLDEN / f"{name}.json").read_bytes().decode()
    assert report_to_json(analyze(GOLDEN_CASES[name])) == expected


def _profile(x, design):
    rows = frechet_profile(frechet_set(estimate_marginals(x, design)), x, design)
    return rows, profile_level_flags(rows, 0.95)


# Expected figure and CSV bytes live in golden/<name>.
FIGURE_CASES = {
    "heatmap_6_3.svg": lambda: heatmap_svg(heatmap(6, 3)),
    "heatmap_6_3.csv": lambda: heatmap_csv(heatmap(6, 3)),
    "heatmap_8_4.svg": lambda: heatmap_svg(heatmap(8, 4)),  # its Fisher layer has segments
    "rules_2_4_6.svg": lambda: rule_comparison_svg(rule_comparison_curve([2, 4, 6])),
    "rules_2_4_6.csv": lambda: rule_comparison_csv(rule_comparison_curve([2, 4, 6])),
    "profile_six_person.svg": lambda: profile_svg(*_profile(SIX, CR6)),
    "profile_six_person.csv": lambda: profile_csv(*_profile(SIX, CR6)),
    "profile_organ_donation.svg": lambda: profile_svg(*_profile(ORGAN, ORGAN_CR)),
    "profile_organ_donation.csv": lambda: profile_csv(*_profile(ORGAN, ORGAN_CR)),
}


@pytest.mark.parametrize("name", list(FIGURE_CASES))
def test_figure_and_csv_golden_bytes(name):
    assert FIGURE_CASES[name]().encode() == (GOLDEN / name).read_bytes()


def test_analyze_deterministic():
    a = analyze(AnalysisRequest(design=CR6, data=SIX))
    b = analyze(AnalysisRequest(design=CR6, data=SIX))
    assert report_to_json(a) == report_to_json(b)
    assert render_text(a) == render_text(b)


def test_render_text_percentages(six_report):
    text = render_text(six_report)
    assert "33%" in text  # average effect 1/3
    assert "defiers 2 (33%)" in text
    assert "dependent" in text  # per-type range caveat


def test_design_dict_roundtrip():
    for design in (CR6, Bernoulli(0.25)):
        assert design_from_dict(design_to_dict(design)) == design
    with pytest.raises(ValueError):
        design_from_dict({"type": "matched_pairs"})


def test_fmt_float_full_precision():
    v = 0.1234567890123456789
    assert float(fmt_float(v)) == v
    assert fmt_float(1.0) == "1"


def test_profile_csv_columns():
    fs = frechet_set(estimate_marginals(SIX, CR6))
    rows = frechet_profile(fs, SIX, CR6)
    flags = profile_level_flags(rows, 0.95)
    text = profile_csv(rows, flags)
    lines = text.strip().split("\n")
    assert lines[0] == "defiers,log_likelihood,mass,in_95_set"
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("0,")
    assert lines[1].endswith(",true")
    assert lines[2].endswith(",false")


def test_heatmap_csv_shape():
    cells = heatmap(6, 3)
    text = heatmap_csv(cells)
    lines = text.strip().split("\n")
    assert (
        lines[0]
        == "i1,c1,mle_at,mle_co,mle_de,mle_nt,tie_count,types,defiers,fisher_p,fisher_reject_5"
    )
    # unique maximizers at n=6: exactly one row per cell
    assert len(lines) == 1 + 4 * 4
    # row-major ordering by (i1, c1)
    keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert keys == sorted(keys)


def test_rule_comparison_csv():
    rows = rule_comparison_curve([2, 4])
    text = rule_comparison_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,eu_mle,eu_frechet,eu_mono,ratio_frechet,ratio_mono"
    assert len(lines) == 3
    assert lines[1].startswith("2,")


def test_heatmap_svg_structure():
    cells = heatmap(6, 3)
    svg = heatmap_svg(cells)
    assert svg.count("<rect ") == 16  # one per cell
    assert svg.count("data-types=") == 16
    assert 'class="fisher-boundary"' in svg
    assert 'class="type-regions"' in svg
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_profile_svg_structure():
    fs = frechet_set(estimate_marginals(SIX, CR6))
    rows = frechet_profile(fs, SIX, CR6)
    flags = profile_level_flags(rows, 0.95)
    svg = profile_svg(rows, flags)
    assert svg.count("<rect ") == len(rows)
    assert svg.count('data-in-level="false"') == flags.count(False)


def test_rule_comparison_svg_structure():
    rows = rule_comparison_curve([2, 4, 6])
    svg = rule_comparison_svg(rows)
    assert svg.count("<polyline ") == 2
    assert "ratio-frechet" in svg and "ratio-mono" in svg


def test_request_validation():
    with pytest.raises(ValueError):
        AnalysisRequest(design=CR6, data=SIX, credible_level=1.5)


def test_heatmap_csv_emits_each_tied_estimate():
    from defiers.evaluation import HeatmapCell

    cell = HeatmapCell(
        i1=1,
        c1=2,
        mle_set=(Theta(0, 3, 1, 2), Theta(1, 2, 0, 3)),
        defier_count=1,
        type_signature="ACDN",
        fisher_p=1.0,
        fisher_reject_5=False,
    )
    lines = heatmap_csv([[cell]]).strip().split("\n")
    assert len(lines) == 3  # header plus one row per tied estimate
    assert lines[1].startswith("1,2,0,3,1,2,2,")
    assert lines[2].startswith("1,2,1,2,0,3,2,")


def _exact_half(num: int, den: int) -> bool:
    return 2 * num % (2 * den) == den


@settings(max_examples=100, deadline=None)
@given(counts=tables(max_n=20), level=st.sampled_from([0.5, 0.8, 0.95, 0.99]))
@example(counts=(1, 2, 1, 1), level=0.95)  # an exact half, see below
def test_analyze_commutes_with_relabeling(counts, level):
    # At n <= 20 every count, sum and mass is exact, so swapping the takeup
    # labels must mirror the whole analysis, ties and credible boundary included.
    x = ExperimentData(*counts)
    n, m = x.n, x.intervention_size
    assume(0 < m < n)
    design = CompletelyRandomized(m, n)
    rep = analyze(AnalysisRequest(design=design, data=x, credible_level=level))
    mirror = analyze(AnalysisRequest(design=design, data=x.relabeled(), credible_level=level))
    for got, want in ((mirror.mle, rep.mle), (mirror.monotonicity, rep.monotonicity)):
        assert set(got.maximizers) == {t.relabeled() for t in want.maximizers}
        assert got.log_likelihood == want.log_likelihood
        assert got.tie_verified_exact == want.tie_verified_exact
    a, b = rep.credible, mirror.credible
    assert (b.member_count, b.achieved_mass.hex()) == (a.member_count, a.achieved_mass.hex())
    assert (b.at_range, b.co_range, b.de_range, b.nt_range) == (
        a.nt_range, a.de_range, a.co_range, a.at_range
    )
    assert b.boundary_verified_exact == a.boundary_verified_exact
    # Round-half-up does not mirror an exact half, so the estimated set moves.
    if _exact_half(n * x.i1, m) or _exact_half(n * x.c1, n - m):
        assert mirror.marginals != (n - rep.marginals[0], n - rep.marginals[1])
        return
    assert mirror.marginals == (n - rep.marginals[0], n - rep.marginals[1])
    assert [r.mass for r in mirror.profile] == [r.mass for r in rep.profile]
    assert [r.log_likelihood for r in mirror.profile] == [r.log_likelihood for r in rep.profile]
    assert mirror.profile_in_level == rep.profile_in_level


def test_exact_half_marginals_do_not_mirror_under_relabeling():
    # n * c1 / (n - m) = 5 / 2 rounds up to 3 on both sides of the swap
    x, design = ExperimentData(1, 2, 1, 1), CompletelyRandomized(3, 5)
    assert estimate_marginals(x, design) == Marginals(2, 3, 5)
    assert estimate_marginals(x.relabeled(), design) == Marginals(3, 3, 5)
