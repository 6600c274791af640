import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from defiers import cli
from defiers.cli import main
from defiers.evaluation import BAYES_MAX_N_CR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_input(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SIX_DOC = {
    "design": {"type": "completely_randomized", "m": 3},
    "counts": {"i1": 2, "i0": 1, "c1": 1, "c0": 2},
}


def test_analyze_six_person(tmp_path, capsys):
    path = write_input(tmp_path, SIX_DOC)
    code, out, _ = run(
        capsys, "analyze", "--input", path, "--quiet", "--out-dir", str(tmp_path)
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mle"]["maximizers"] == [{"at": 0, "co": 4, "de": 2, "nt": 0}]
    assert report["average_effect"] == pytest.approx(1 / 3)
    text = (tmp_path / "report.txt").read_text()
    assert "compliers 4 (67%)" in text


def test_analyze_flags_input(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "analyze",
        "--i1", "2", "--i0", "1", "--c1", "1", "--c0", "2", "--m", "3",
        "--quiet", "--out-dir", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n"] == 6


@pytest.mark.parametrize("flag", ["--no-profile", "--no-monotonicity"])
def test_analyze_has_no_skip_flags(tmp_path, capsys, flag):
    # analyze runs one configuration: every report holds the monotone MLE
    # and the Fréchet profile
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", write_input(tmp_path, SIX_DOC), flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"defiers: error: unrecognized arguments: {flag}\n")
    assert not (tmp_path / "report.json").exists()


def test_analyze_deterministic_bytes(tmp_path, capsys):
    path = write_input(tmp_path, SIX_DOC)
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run(
            capsys, "analyze", "--input", path, "--quiet", "--out-dir", str(out_dir)
        )
        assert code == 0
        outputs.append(
            (
                (out_dir / "report.json").read_bytes(),
                (out_dir / "report.txt").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"design": }')
    code, _, err = run(capsys, "analyze", "--input", str(path), "--quiet")
    assert code == 2
    assert "line" in err


def test_analyze_missing_field(tmp_path, capsys):
    path = write_input(tmp_path, {"counts": {"i1": 1, "i0": 1, "c1": 1, "c0": 1}})
    code, _, err = run(capsys, "analyze", "--input", str(path), "--quiet")
    assert code == 2


@pytest.mark.parametrize(
    "design,field",
    [
        ({"type": "completely_randomized", "m": 3, "mm": 3}, "'mm'"),
        ({"type": "bernoulli", "p": 0.5, "m": 3}, "'m'"),
    ],
)
def test_analyze_unknown_design_field(tmp_path, capsys, design, field):
    # a misspelt field is an error, not a default silently taken
    doc = {"design": design, "counts": {"i1": 2, "i0": 1, "c1": 1, "c0": 2}}
    path = write_input(tmp_path, doc)
    code, _, err = run(capsys, "analyze", "--input", path, "--quiet")
    assert code == 2
    assert err == f"error: {path}: bad field: unknown {design['type']} design field {field}\n"


def test_analyze_empty_arm(tmp_path, capsys):
    doc = {
        "design": {"type": "completely_randomized", "m": 0},
        "counts": {"i1": 0, "i0": 0, "c1": 2, "c0": 2},
    }
    code, _, err = run(capsys, "analyze", "--input", write_input(tmp_path, doc), "--quiet")
    assert code == 2


def test_analyze_design_count_mismatch(tmp_path, capsys):
    doc = {
        "design": {"type": "completely_randomized", "m": 2},
        "counts": {"i1": 2, "i0": 1, "c1": 1, "c0": 2},
    }
    code, _, err = run(capsys, "analyze", "--input", write_input(tmp_path, doc), "--quiet")
    assert code == 2
    assert "error" in err


def test_analyze_bernoulli_warns(tmp_path, capsys):
    doc = {
        "design": {"type": "bernoulli", "p": 0.5},
        "counts": {"i1": 2, "i0": 1, "c1": 1, "c0": 2},
    }
    path = write_input(tmp_path, doc)
    code, _, err = run(capsys, "analyze", "--input", path, "--out-dir", str(tmp_path))
    assert code == 0
    assert "warning" in err and "Bernoulli" in err


def test_analyze_prints_the_report_text(tmp_path, capsys):
    path = write_input(tmp_path, SIX_DOC)
    code, out, _ = run(capsys, "analyze", "--input", path, "--out-dir", str(tmp_path))
    assert code == 0
    assert out.encode() == (tmp_path / "report.txt").read_bytes()


def test_frechet_profile_cmd(tmp_path, capsys):
    path = write_input(tmp_path, SIX_DOC)
    code, _, _ = run(
        capsys, "frechet-profile", "--input", path, "--quiet", "--out-dir", str(tmp_path)
    )
    assert code == 0
    csv = (tmp_path / "frechet_profile.csv").read_text()
    assert csv.splitlines()[0] == "defiers,log_likelihood,mass,in_95_set"
    assert (tmp_path / "frechet_profile.svg").exists()


def test_frechet_profile_bernoulli_flags(tmp_path, capsys):
    # marginals (3, 0) leave one member, (0,3,0,0), which cannot give a
    # non-taker in intervention: the profile is flat at zero mass
    code, _, _ = run(
        capsys,
        "frechet-profile",
        "--i1", "1", "--i0", "1", "--c1", "0", "--c0", "1", "--p", "0.1",
        "--quiet", "--out-dir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "frechet_profile.csv").read_text().splitlines()
    assert lines[1:] == ["0,-inf,0,true"]


def test_frechet_profile_flags_a_block_ending_on_the_decimal_level(tmp_path, capsys):
    # The 14 members other than 7 defiers hold exactly 19/20 of the within-set mass.
    # Their float sum stays within the decimal 0.95, so all of them are flagged; a
    # test against the binary value of 0.95 would leave one block out (ROADMAP item 11).
    code, _, _ = run(
        capsys,
        "frechet-profile",
        "--i1", "1", "--i0", "1", "--c1", "13", "--c0", "15", "--m", "2",
        "--quiet", "--out-dir", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "frechet_profile.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["true"] * 7 + ["false"] + ["true"] * 7


def test_heatmap_cmd(tmp_path, capsys):
    code, _, _ = run(
        capsys, "heatmap", "--n", "6", "--m", "3", "--quiet", "--out-dir", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "heatmap.csv").read_text().splitlines()
    assert len(lines) == 1 + 16
    assert (tmp_path / "heatmap.svg").exists()


def test_heatmap_budget_exit(tmp_path, capsys):
    code, _, err = run(
        capsys, "heatmap", "--n", "100", "--m", "50", "--quiet", "--out-dir", str(tmp_path)
    )
    assert code == 3


def test_analyze_grid_guard_exit(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "analyze",
        "--i1", "501", "--i0", "0", "--c1", "0", "--c0", "501", "--m", "501",
        "--quiet", "--out-dir", str(tmp_path),
    )
    assert code == 3
    assert "exceeds the guard of 1000" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["heatmap", "--n", "4", "--m", "2"], "heatmap row i1=2 of 2"),
        (["compare-rules", "--max-n", "4"], "evaluated rules at n=4"),
    ],
)
def test_progress_goes_to_stderr(tmp_path, capsys, argv, line):
    code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0
    assert line in err.splitlines()
    assert out == ""


def test_heatmap_progress_prints_each_row_once_in_order(tmp_path, capsys):
    code, _, err = run(capsys, "heatmap", "--n", "4", "--m", "2", "--out-dir", str(tmp_path))
    assert code == 0
    rows = [line for line in err.splitlines() if line.startswith("heatmap row")]
    assert rows == [f"heatmap row i1={i} of 2" for i in range(3)]


def test_compare_rules_cmd(tmp_path, capsys):
    code, _, _ = run(
        capsys, "compare-rules", "--max-n", "6", "--quiet", "--out-dir", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "rule_comparison.csv").read_text().splitlines()
    assert lines[0] == "n,eu_mle,eu_frechet,eu_mono,ratio_frechet,ratio_mono"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 4, 6]


def test_compare_rules_is_one_curve_call_that_reports_each_n(tmp_path, capsys, monkeypatch):
    calls, curve = [], cli.rule_comparison_curve
    monkeypatch.setattr(
        cli, "rule_comparison_curve", lambda *a, **k: calls.append(a) or curve(*a, **k)
    )
    code, _, err = run(capsys, "compare-rules", "--max-n", "6", "--out-dir", str(tmp_path))
    assert code == 0 and len(calls) == 1
    assert err.splitlines() == [f"evaluated rules at n={n}" for n in (2, 4, 6)] + [
        f"wrote {tmp_path / name}" for name in ("rule_comparison.csv", "rule_comparison.svg")
    ]


def test_compare_rules_budget(tmp_path, capsys):
    code, _, err = run(capsys, "compare-rules", "--max-n", "62", "--quiet")
    assert code == 3
    assert f"guard of {BAYES_MAX_N_CR}" in err


def test_oracle_cmd(capsys):
    code, out, _ = run(
        capsys, "oracle", "--at", "0", "--co", "4", "--de", "2", "--nt", "0", "--m", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i1,i0,c1,c0,assignments,fraction"
    row = next(line for line in lines if line.startswith("2,1,1,2,"))
    assert row == "2,1,1,2,12,3/5"
    assert lines[-1].startswith("total,,,,20,")


@pytest.mark.parametrize(
    "command",
    [["oracle", "--at", "0", "--co", "4", "--de", "2", "--nt", "0", "--m", "3"], ["monty"]],
    ids=["oracle", "monty"],
)
@pytest.mark.parametrize("flag", [["--quiet"], ["--out-dir", "."]], ids=["quiet", "out-dir"])
def test_print_only_commands_take_no_file_flags(capsys, command, flag):
    # oracle and monty write no file and print only their result
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {' '.join(flag)}\n")


def test_oracle_budget(capsys):
    code, _, _ = run(
        capsys, "oracle", "--at", "25", "--co", "0", "--de", "0", "--nt", "0", "--m", "12"
    )
    assert code == 3


COUNTS = ["--i1", "1", "--i0", "1", "--c1", "1", "--c0", "1"]


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (
            ["analyze", "--input", "{tmp}/absent.json"],
            2,
            "cannot read {tmp}/absent.json: [Errno 2] No such file or directory: "
            "'{tmp}/absent.json'",
        ),
        (
            ["analyze", "--i1", "1", "--i0", "1"],
            2,
            "provide --input FILE or all of --i1 --i0 --c1 --c0 (missing ['c1', 'c0'])",
        ),
        (
            ["analyze", *COUNTS],
            2,
            "provide exactly one of --m (completely randomized) or --p (Bernoulli)",
        ),
        (
            ["frechet-profile", *COUNTS, "--m", "2", "--p", "0.5"],
            2,
            "provide exactly one of --m (completely randomized) or --p (Bernoulli)",
        ),
        (
            ["analyze", "--i1", "-1", "--i0", "1", "--c1", "1", "--c0", "1", "--m", "1"],
            2,
            "ExperimentData counts must be non-negative, got -1",
        ),
        (
            ["analyze", *COUNTS, "--m", "2", "--out-dir", "{tmp}/input.json", "--quiet"],
            2,
            "cannot write report.json: [Errno 17] File exists: '{tmp}/input.json'",
        ),
        (["compare-rules", "--max-n", "5"], 2, "--max-n must be even and >= 2, got 5"),
        (["heatmap", "--n", "4", "--m", "5"], 2, "need 0 <= m <= n, got m=5, n=4"),
        (
            ["oracle", "--at", "0", "--co", "2", "--de", "0", "--nt", "0", "--m", "3"],
            2,
            "need 0 <= m <= n, got m=3, n=2",
        ),
        (
            ["oracle", "--at", "25", "--co", "0", "--de", "0", "--nt", "0", "--m", "30"],
            2,
            "need 0 <= m <= n, got m=30, n=25",
        ),
        (
            ["oracle", "--at", "-1", "--co", "2", "--de", "0", "--nt", "0", "--m", "1"],
            2,
            "Theta counts must be non-negative, got -1",
        ),
        (  # m + n is above the cap of 100,000, n is not: the grid guard refuses
            ["analyze", "--i1", "50000", "--i0", "0", "--c1", "0", "--c0", "10000",
             "--m", "50000", "--quiet", "--out-dir", "{tmp}/out"],
            3,
            "full likelihood grid at n=60000 exceeds the guard of 1000",
        ),
        (  # the JSON's counts and design would silently win over the flags
            ["analyze", "--input", "{tmp}/input.json", "--i1", "50", "--m", "7", "--p", "0.3",
             "--out-dir", "{tmp}/out"],
            2,
            "--input carries the counts and design; drop --i1 --m --p",
        ),
        (
            ["frechet-profile", "--input", "{tmp}/input.json", *COUNTS, "--m", "2",
             "--p", "0.5", "--out-dir", "{tmp}/out"],
            2,
            "--input carries the counts and design; drop --i1 --i0 --c1 --c0 --m --p",
        ),
    ],
)
def test_error_exit_table(tmp_path, capsys, argv, code, line):
    write_input(tmp_path, SIX_DOC)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err == f"error: {line.format(tmp=tmp_path)}\n"


def test_monty_cmd(capsys):
    from fractions import Fraction

    code, out, _ = run(capsys, "monty")
    assert code == 0
    line = out.strip()
    assert line == "car-absent: 1/2, car-present: 1, decision: switch"
    # documented key: value format parses, and the decision is the argmax
    fields = dict(part.split(": ") for part in line.split(", "))
    assert fields["decision"] == "switch"
    assert Fraction(fields["car-present"]) > Fraction(fields["car-absent"])


@pytest.mark.parametrize(
    "argv, code",
    [(["monty"], 0), (["heatmap", "--n", "100", "--m", "50", "--quiet"], 3)],
)
def test_module_entry_point_exit_codes(argv, code):
    # `python -m defiers.cli` hands main's return value to the process exit
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "defiers.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr


def test_module_entry_point_runs_in_process(monkeypatch, capsys):
    # the same entry line, run where the test process can trace it
    monkeypatch.setattr(sys, "argv", ["defiers.cli", "monty"])
    monkeypatch.delitem(sys.modules, "defiers.cli")  # a fresh module, as `-m` runs it
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("defiers.cli", run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("car-absent: 1/2")
