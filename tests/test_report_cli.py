import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import diagbounds
from diagbounds import DependenceAssumption, SRegion, TestConfig
from diagbounds.cli import _test_config, build_parser, main
from diagbounds.datasets import list_datasets, load_dataset, read_counts
from diagbounds.inference import MAX_BOOTSTRAP, MAX_REPS, MAX_S_GRID, MAX_THETA_GRID
from diagbounds.report import (
    MAX_SWEEP_GRID,
    ReportBundle,
    ReportToggles,
    StudyConfig,
    run_analysis,
    run_sensitivity,
)

from helpers import TABLE_DATASETS, WA1


def test_bundled_datasets_match_table_counts():
    assert set(list_datasets()) == {
        "eua_symptomatic",
        "shah_symptomatic",
        "shah_asymptomatic",
    }
    assert load_dataset("eua_symptomatic") == TABLE_DATASETS["eua_sx"]
    assert load_dataset("shah_symptomatic") == TABLE_DATASETS["shah_sx"]
    assert load_dataset("shah_asymptomatic") == TABLE_DATASETS["shah_asx"]


def test_read_counts_json_and_csv(tmp_path):
    j = tmp_path / "c.json"
    j.write_text(json.dumps({"n11": 9, "n01": 1, "n10": 2, "n00": 8, "note": "x"}))
    assert read_counts(j).cells == (9, 1, 2, 8)
    c = tmp_path / "c.csv"
    c.write_text("t,r,count\n1,1,9\n0,1,1\n1,0,2\n0,0,8\n")
    assert read_counts(c).cells == (9, 1, 2, 8)
    bad = tmp_path / "bad.csv"
    bad.write_text("t,r,count\n1,1,9\n")
    with pytest.raises(ValueError, match="missing"):
        read_counts(bad)


def _study(tmp_path, **kw):
    return StudyConfig(
        counts=TABLE_DATASETS["eua_sx"],
        s_region=SRegion.singleton(0.9, 1.0),
        assumption=WA1,
        test_config=TestConfig(alpha=0.05, seed=11, theta_grid=40),
        out_dir=tmp_path,
        label="eua",
        **kw,
    )


def test_run_analysis_outputs_and_values(tmp_path):
    bundle = run_analysis(_study(tmp_path))
    data = bundle.data
    assert data["apparent"]["theta1"] == pytest.approx(0.846, abs=1e-3)
    assert data["projections"]["theta1"][0] == pytest.approx(0.761, abs=1e-3)
    assert data["projections"]["theta1"][1] == pytest.approx(0.800, abs=1e-3)
    assert data["false_negative_rate"][0] == pytest.approx(0.200, abs=1e-3)
    assert data["false_negative_rate"][1] == pytest.approx(0.239, abs=1e-3)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "estimates.csv").exists()
    assert (tmp_path / "identified_set.csv").exists()
    assert (tmp_path / "fig_identified_set.svg").exists()
    svg = (tmp_path / "fig_identified_set.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_report_roundtrip_is_byte_stable(tmp_path):
    bundle = run_analysis(_study(tmp_path))
    text = (tmp_path / "report.json").read_text()
    again = ReportBundle.from_json(text)
    assert again.to_json() == text
    assert again.estimates_table() == bundle.estimates_table()
    assert again.config_hash == bundle.config_hash


def test_identical_configs_hash_identically(tmp_path):
    b1 = run_analysis(_study(tmp_path / "a"))
    b2 = run_analysis(_study(tmp_path / "b"))
    assert b1.to_json() == b2.to_json()
    b3 = run_analysis(
        StudyConfig(
            counts=TABLE_DATASETS["eua_sx"],
            s_region=SRegion.singleton(0.9, 1.0),
            assumption=WA1,
            test_config=TestConfig(alpha=0.05, seed=12, theta_grid=40),
            out_dir=None,
            label="eua",
        )
    )
    assert b3.config_hash != b1.config_hash


def test_prevalence_and_predictive_toggles(tmp_path):
    from diagbounds import PretestRange

    cfg = StudyConfig(
        counts=TABLE_DATASETS["eua_sx"],
        s_region=SRegion.singleton(0.9, 1.0),
        assumption=WA1,
        test_config=TestConfig(alpha=0.05, seed=11),
        toggles=ReportToggles(prevalence_curve=True, predictive_values=True),
        out_dir=tmp_path,
        screen_q=104.0 / 460.0,
        pretest=PretestRange(0.1, 0.3),
        label="eua",
    )
    bundle = run_analysis(cfg)
    recs = bundle.data["prevalence_curve"]
    assert len(recs) == 201
    for rec in recs:
        sharp_w = rec["sharp"][1] - rec["sharp"][0]
        rect_w = rec["rect"][1] - rec["rect"][0]
        assert sharp_w <= rect_w + 1e-12
    at_q = bundle.data["prevalence_at_q"]["sharp"]
    assert at_q[0] - 1e-6 <= 0.2826087 <= at_q[1] + 1e-6
    pv = bundle.data["predictive_values"]
    assert 0.0 <= pv["ppv"][0] <= pv["ppv"][1] <= 1.0
    assert (tmp_path / "prevalence_curve.csv").exists()
    assert (tmp_path / "fig_prevalence_width.svg").exists()


def test_metadata_only_bundle():
    cfg = StudyConfig(
        counts=TABLE_DATASETS["eua_sx"],
        s_region=SRegion.singleton(0.9, 1.0),
        assumption=WA1,
        toggles=ReportToggles(
            apparent=False, sharp=False, frechet=False, figures=False
        ),
        label="eua",
    )
    bundle = run_analysis(cfg)
    assert "apparent" not in bundle.data
    assert "projections" not in bundle.data
    assert "provenance" in bundle.data and "validation" in bundle.data


def test_run_sensitivity_reproduces_sweep_table(tmp_path):
    expectations = {
        "eua_sx": ((0.677, 0.800), (0.984, 1.000)),
        "shah_sx": ((0.655, 0.744), (0.997, 1.000)),
        "shah_asx": ((0.550, 0.669), (0.994, 0.997)),
    }
    for name, (t1, t0) in expectations.items():
        cfg = StudyConfig(
            counts=TABLE_DATASETS[name],
            s_region=SRegion.singleton(0.9, 1.0),
            assumption=WA1,
            out_dir=tmp_path / name,
            label=name,
        )
        bundle = run_sensitivity(cfg, 0.8, 0.9, grid=10)
        variant = bundle.data["sensitivity"]["variants"][1]
        assert variant["theta1_projection"][0] == pytest.approx(t1[0], abs=1e-3)
        assert variant["theta1_projection"][1] == pytest.approx(t1[1], abs=1e-3)
        assert variant["theta0_extremal_segments"][0] == pytest.approx(t0[0], abs=1e-3)
        assert variant["theta0_extremal_segments"][1] == pytest.approx(t0[1], abs=1e-3)
        assert (tmp_path / name / "sensitivity.csv").exists()


def test_sensitivity_degenerate_range_equals_baseline(tmp_path):
    cfg = StudyConfig(
        counts=TABLE_DATASETS["eua_sx"],
        s_region=SRegion.singleton(0.9, 1.0),
        assumption=WA1,
        label="eua",
    )
    bundle = run_sensitivity(cfg, 0.9, 0.9, grid=5)
    base, var = bundle.data["sensitivity"]["variants"]
    assert base["theta1_projection"] == pytest.approx(var["theta1_projection"], abs=1e-12)


def test_cli_estimate_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(
        [
            "estimate",
            "--dataset",
            "eua_symptomatic",
            "--s1",
            "0.9",
            "--s0",
            "1.0",
            "--assumption",
            "wa1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "sharp projections" in text
    assert (out / "report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["estimate"], ["infer"], ["sensitivity", "--s1-lo", "0.8", "--s1-hi", "0.9"],
     ["simulate-coverage", "--n", "9", "--reps", "1"]],
)
def test_cli_test_config_defaults_are_test_config_defaults(argv):
    args = build_parser().parse_args([argv[0], "--dataset", "eua_symptomatic", *argv[1:]])
    cfg = _test_config(args)
    assert dataclasses.replace(cfg, beta=None) == TestConfig()
    assert cfg.beta_value == TestConfig().beta_value


def test_sensitivity_takes_only_the_options_it_reads():
    # The sweep needs one s0 and sets its own s1 grid, so no reference interval and no --s-grid.
    verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {f for action in verbs["sensitivity"]._actions for f in action.option_strings} - {"-h", "--help"}
    assert flags == {
        "--input", "--dataset", "--assumption", "--alpha", "--out", "--s1", "--s0", "--format",
        "--s1-lo", "--s1-hi", "--grid",
    }


def test_cli_refuted_exit_code(tmp_path):
    with pytest.warns(UserWarning, match="dropping refuted reference point"):
        rc = main(
            [
                "estimate",
                "--dataset",
                "eua_symptomatic",
                "--s1",
                "0.45",
                "--s0",
                "0.7",
                "--assumption",
                "none",
                "--out",
                str(tmp_path),
            ]
        )
    assert rc == 2


def test_cli_invalid_input_exit_code(tmp_path):
    rc = main(
        [
            "estimate",
            "--input",
            str(tmp_path / "missing.json"),
            "--s1",
            "0.9",
            "--s0",
            "1.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3
    rc = main(
        [
            "estimate",
            "--dataset",
            "eua_symptomatic",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3  # missing reference performance


@pytest.mark.parametrize(
    "cells",
    [
        {"n11": 99.7, "n01": 18, "n10": 5, "n00": 338.9},
        {"n11": True, "n01": 18, "n10": 5, "n00": 338},
    ],
    ids=["fractional", "boolean"],
)
def test_cli_rejects_non_integral_counts(tmp_path, capsys, cells):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(cells))
    argv = ["estimate", "--input", str(path), "--s1", "0.9", "--s0", "1.0", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("list.json", "[1, 2, 3, 4]", "must be an object"),
        ("null.json", "null", "must be an object"),
        ("short.csv", "t,r,count\n1,1\n", "3 fields"),
        ("long.csv", "t,r,count\n1,1,4,5\n", "3 fields"),
        ("huge.json", json.dumps({"n11": 10**400, "n01": 1, "n10": 1, "n00": 1}), "2\\*\\*53"),
        ("ternary.csv", "t,r,count\n2,1,4\n", "must be binary"),
        ("duplicate.csv", "t,r,count\n1,1,4\n1,1,5\n", "duplicate cell"),
    ],
)
def test_read_counts_rejects_malformed_files(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_counts(path)


def test_read_counts_rejects_a_directory(tmp_path):
    (tmp_path / "counts.json").mkdir()
    with pytest.raises(ValueError, match="cannot read"):
        read_counts(tmp_path / "counts.json")


def test_read_counts_strips_csv_header_padding(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("t, r , count\n1,1,9\n0,1,1\n1,0,2\n0,0,8\n")
    assert read_counts(path).cells == (9, 1, 2, 8)


_COUNT = st.one_of(
    st.integers(-2, 400),
    st.integers(),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
_CELL_KEYS = st.lists(st.sampled_from(["n11", "n01", "n10", "n00", "note"]), unique=True)
_JSON_COUNTS = _JSON | _CELL_KEYS.flatmap(lambda keys: st.fixed_dictionaries({k: _COUNT for k in keys}))
_FIELD = st.sampled_from(["0", "1", "2", " 1", "-1", "1.5", "x", "", "40", "9" * 30])
_CSV_ROW = st.lists(_FIELD, max_size=4).map(",".join)
_CSV_TEXT = st.text(max_size=30) | st.builds(
    lambda header, rows: "\n".join([header, *rows]) + "\n",
    st.sampled_from(["t,r,count", "t, r, count", "r,t,count", "t,r", ""]),
    st.lists(_CSV_ROW, max_size=6),
)


def _exit_code(suffix: str, text: str, verb: str) -> int:
    # A refuted reference point is dropped with a warning (exit code 2
    # follows); any other warning stays an error.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "dropping refuted reference point", UserWarning)
        path = Path(tmp) / f"counts{suffix}"
        path.write_text(text)
        argv = [verb, "--input", str(path), "--s1", "0.9", "--s0", "1.0", "--out", tmp, "--format", "json"]
        return main(argv + (["--q", "0.23"] if verb == "prevalence" else []))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(value=[1, 2, 3, 4], verb="estimate")
@example(value=None, verb="estimate")
@example(value={"n11": 10**400, "n01": 1, "n10": 1, "n00": 1}, verb="estimate")
@example(value={"n11": 3, "n01": 0, "n10": 0, "n00": 3}, verb="prevalence")
@given(value=_JSON_COUNTS, verb=st.sampled_from(["estimate", "prevalence"]))
def test_cli_exit_codes_on_any_json(value, verb):
    assert _exit_code(".json", json.dumps(value), verb) in (0, 2, 3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(text="t,r,count\n1,1\n", verb="estimate")
@example(text="t, r, count\n1,1,9\n0,1,1\n1,0,2\n0,0,8\n", verb="prevalence")
@given(text=_CSV_TEXT, verb=st.sampled_from(["estimate", "prevalence"]))
def test_cli_exit_codes_on_any_csv(text, verb):
    assert _exit_code(".csv", text, verb) in (0, 2, 3)


def test_cli_exit_code_on_a_directory(tmp_path, capsys):
    (tmp_path / "counts.json").mkdir()
    argv = ["estimate", "--input", str(tmp_path / "counts.json"), "--s1", "0.9", "--s0", "1.0"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_read_counts_accepts_integral_json_numbers(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text('{"n11": 99.0, "n01": 18, "n10": 5, "n00": 338}')
    assert read_counts(path).cells == (99, 18, 5, 338)


def test_cli_sensitivity(tmp_path, capsys):
    rc = main(
        [
            "sensitivity",
            "--dataset",
            "shah_asymptomatic",
            "--s1",
            "0.9",
            "--s0",
            "1.0",
            "--assumption",
            "wa1",
            "--s1-lo",
            "0.8",
            "--s1-hi",
            "0.9",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[0.550, 0.669]" in out


def test_cli_infer_small_grid(tmp_path, capsys):
    rc = main(
        [
            "infer",
            "--dataset",
            "eua_symptomatic",
            "--s1",
            "0.9",
            "--s0",
            "1.0",
            "--assumption",
            "wa1",
            "--theta-grid",
            "40",
            "--seed",
            "11",
            "--out",
            str(tmp_path),
            "--dump-moment-cells",
        ]
    )
    assert rc == 0
    assert (tmp_path / "confidence_set.csv").exists()
    assert (tmp_path / "confidence_set.json").exists()
    assert (tmp_path / "moment_cells.csv").exists()
    header = (tmp_path / "moment_cells.csv").read_text().splitlines()[0]
    assert header == "s1,s0,cell,j,value"
    assert (tmp_path / "fig_confidence_set.svg").exists()


def test_cli_simulate_coverage(tmp_path, capsys):
    rc = main(
        [
            "simulate-coverage",
            "--dataset",
            "eua_symptomatic",
            "--s1",
            "0.9",
            "--s0",
            "1.0",
            "--assumption",
            "wa1",
            "--n",
            "250",
            "--reps",
            "3",
            "--seed",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("coverage") == 3


def test_svg_outputs_are_well_formed_xml(tmp_path):
    import xml.etree.ElementTree as ET

    from diagbounds import PretestRange

    cfg = StudyConfig(
        counts=TABLE_DATASETS["eua_sx"],
        s_region=SRegion.singleton(0.9, 1.0),
        assumption=WA1,
        test_config=TestConfig(alpha=0.05, seed=11, theta_grid=40),
        toggles=ReportToggles(prevalence_curve=True, confidence=True),
        out_dir=tmp_path,
        label="a&b<c>",  # the CLI's label is the --input file's stem
    )
    run_analysis(cfg)
    for name in ("fig_identified_set.svg", "fig_confidence_set.svg", "fig_prevalence_width.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")
        assert any((t.text or "").startswith("a&b<c>: ") for t in root.iter("{http://www.w3.org/2000/svg}text"))


def test_cli_prevalence_prints_disclaimer(tmp_path, capsys):
    rc = main(
        [
            "prevalence",
            "--dataset",
            "eua_symptomatic",
            "--s1",
            "0.9",
            "--s0",
            "1.0",
            "--assumption",
            "wa1",
            "--q",
            "0.3",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "extrapolate" in out


_POINT = ["--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "1.0", "--assumption", "wa1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", *_POINT, "--bogus"],
        ["infer", *_POINT, "--bootstrap", "x"],
        ["simulate-coverage", *_POINT, "--reps", "2"],
    ],
    ids=["unknown-flag", "non-numeric-bootstrap", "missing-n"],
)
def test_cli_usage_errors_exit_invalid(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", *_POINT, "--s1-range", "0.8", "0.9"],
        ["infer", *_POINT, "--s0-range", "0.98", "1.0", "--theta-grid", "12", "--bootstrap", "20"],
        ["sensitivity", "--dataset", "shah_asymptomatic", "--s1", "0.9", "--s0", "1.0", "--assumption", "wa1",
         "--s1-lo", "0.8", "--s1-hi", "0.9", "--grid", "1"],
        ["simulate-coverage", "--dataset", "eua_symptomatic", "--s0", "1.0", "--n", "9", "--reps", "1"],
        ["infer", *_POINT, "--theta-grid", "12", "--bootstrap", "20", "--seed", str(2**64)],
        ["estimate", "--dataset", "eua_symptomatic", "--s1-range", "0.9", "0.8", "--s0", "1.0"],
        ["infer", *_POINT, "--theta-grid", "1", "--bootstrap", "20"],
        ["simulate-coverage", *_POINT, "--n", "200", "--reps", "0"],
        ["sensitivity", "--dataset", "shah_asymptomatic", "--s1", "0.9", "--s0-range", "0.98", "1.0",
         "--s1-lo", "0.8", "--s1-hi", "0.9"],
        ["infer", *_POINT, "--bootstrap", str(MAX_BOOTSTRAP + 1)],
        ["infer", *_POINT, "--theta-grid", str(MAX_THETA_GRID + 1)],
        ["estimate", *_POINT, "--s-grid", str(MAX_S_GRID + 1)],
        ["simulate-coverage", *_POINT, "--n", "200", "--reps", str(MAX_REPS + 1)],
        ["sensitivity", *_POINT, "--s1-lo", "0.8", "--s1-hi", "0.9", "--grid", str(MAX_SWEEP_GRID + 1)],
    ],
    ids=[
        "s1-point-and-range", "s0-point-and-range", "sweep-grid-below-2", "coverage-without-s1", "seed-2**64",
        "s1-range-reversed", "theta-grid-1", "reps-0", "sweep-over-s0-range",
        "bootstrap-over-cap", "theta-grid-over-cap", "s-grid-over-cap", "reps-over-cap", "sweep-grid-over-cap",
    ],
)
def test_cli_refusals_exit_3_and_write_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    try:
        rc = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_at_a_file_exits_3(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["estimate", *_POINT, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:")


# Each verb's files with every format requested; a file is written when its suffix is requested.
_VERB_FILES = {
    "estimate": ([], ["report.json", "estimates.csv", "identified_set.csv", "fig_identified_set.svg"]),
    "prevalence": (
        ["--q", "0.23"],
        ["report.json", "estimates.csv", "identified_set.csv", "prevalence_curve.csv",
         "fig_identified_set.svg", "fig_prevalence_width.svg"],
    ),
    "predict": (
        ["--pi-lo", "0.1", "--pi-hi", "0.3"],
        ["report.json", "estimates.csv", "identified_set.csv", "fig_identified_set.svg"],
    ),
    "sensitivity": (["--s1-lo", "0.8", "--s1-hi", "0.9"], ["sensitivity.json", "sensitivity.csv"]),
    "infer": (
        ["--theta-grid", "30", "--bootstrap", "60", "--dump-moment-cells"],
        ["report.json", "estimates.csv", "identified_set.csv", "moment_cells.csv", "confidence_set.csv",
         "confidence_set.json", "fig_identified_set.svg", "fig_confidence_set.svg"],
    ),
}


@pytest.mark.parametrize("formats", [["json"], ["csv"], ["svg"], ["csv", "svg"], ["json", "csv", "svg"]])
@pytest.mark.parametrize("verb", list(_VERB_FILES))
def test_cli_writes_the_files_whose_suffix_is_a_requested_format(verb, formats, tmp_path):
    extra, files = _VERB_FILES[verb]
    assert main([verb, *_POINT, *extra, "--out", str(tmp_path), "--format", *formats]) == 0
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == sorted(f for f in files if f.rpartition(".")[2] in formats)


def test_cli_import_adds_no_xml_or_network_module():
    """Import weight is start-up time and peak memory of every call; compare with the state before the import."""
    env = {**os.environ, "PYTHONPATH": str(Path(diagbounds.__file__).resolve().parents[1])}
    code = "import sys; before = set(sys.modules); import diagbounds.cli; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = proc.stdout.split()
    assert "diagbounds.cli" in added
    heavy = ("xml", "http", "email", "ssl", "socket", "html", "urllib.request")
    assert [m for m in added if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []


def test_run_sensitivity_refuses_a_grid_below_2():
    cfg = StudyConfig(
        counts=TABLE_DATASETS["shah_asx"], s_region=SRegion.singleton(0.9, 1.0), assumption=WA1, label="shah"
    )
    with pytest.raises(ValueError, match="at least 2 points, got 1"):
        run_sensitivity(cfg, 0.8, 0.9, grid=1)


def test_cli_usage_error_exits_3_and_help_exits_0(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(diagbounds.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "diagbounds.cli", "estimate", *_POINT, "--bogus", "--out", str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "unrecognized arguments: --bogus" in proc.stderr
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--help"])
    assert exc.value.code == 0


_NOTE = (
    "note: Derived bounds extrapolate study-population performance to the target population; "
    "use them only where the test can credibly be expected to perform similarly in both.\n"
)
_SUMMARY = (
    "apparent: sensitivity 0.846 CI [0.768, 0.906]  specificity 0.985 CI [0.966, 0.995]\n"
    "sharp projections: sensitivity [0.762, 0.800]  specificity [0.985, 1.000]\n"
    "false negative rate: [0.200, 0.238]\n"
)
_RECT_SUMMARY = (
    "apparent: sensitivity 0.846 CI [0.768, 0.906]  specificity 0.985 CI [0.966, 0.995]\n"
    "sharp projections: sensitivity [0.670, 0.849]  specificity [0.964, 1.000]\n"
    "false negative rate: [0.151, 0.330]\n"
)
_RECT3 = ["--dataset", "eua_symptomatic", "--s1-range", "0.8", "0.9", "--s0-range", "0.98", "1.0",
          "--s-grid", "3", "--assumption", "wa1"]
_INFER_SMALL = ["--theta-grid", "30", "--bootstrap", "60"]
# Per call: its argv (before ``--out``), its stdout and the digest of every file it writes.
_GOLDEN = {
    "estimate": (
        ["estimate", *_POINT],
        "[diagbounds] config 13cccaac02a776ce  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY,
        "91af83f613f372eaf19d17eec6a4d803",
    ),
    "infer": (
        ["infer", *_POINT, *_INFER_SMALL],
        "[diagbounds] config 3966f1d5fd829781  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY
        + "confidence set: retained 6 of 840 grid points; theta1 [0.7241379310344828, 0.8620689655172413]"
        "  theta0 [0.9655172413793103, 1.0]\n",
        "bce29bc3bab8f4be604e7a09ffaa2d75",
    ),
    "prevalence": (
        ["prevalence", *_POINT, "--q", "0.23"],
        "[diagbounds] config d4673db8462a94fc  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY
        + "prevalence at q=0.23: sharp [0.2875, 0.2879]  rectangular [0.2737, 0.3020]\n" + _NOTE,
        "8f0a74acff0d419d0126cec5dc0e53bd",
    ),
    "predict": (
        ["predict", *_POINT, "--pi-lo", "0.1", "--pi-hi", "0.3"],
        "[diagbounds] config 27118962379e479d  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY
        + "PPV [0.8481, 1.0000]  NPV [0.9060, 0.9783] for pre-test range [0.1, 0.3]\n" + _NOTE,
        "1093d50d076f6c3b9208934b3ebb65eb",
    ),
    "sensitivity": (
        ["sensitivity", *_POINT, "--s1-lo", "0.8", "--s1-hi", "0.9"],
        "s1=0.9: sensitivity [0.762, 0.800]  specificity [0.985, 1.000]\n"
        "s1 in [0.8,0.9]: sensitivity [0.677, 0.800]  specificity [0.984, 1.000]\n",
        "47ecd21e28d0b2ae0cbf65ab717af34f",
    ),
    "simulate-coverage": (
        ["simulate-coverage", *_POINT, "--n", "200", "--reps", "2", "--bootstrap", "40"],
        "theta=(0.7712, 0.9886, 0.9, 1): coverage 1.000 over 2 replications of n=200\n"
        "theta=(0.7808, 0.9924, 0.9, 1): coverage 1.000 over 2 replications of n=200\n"
        "theta=(0.7904, 0.9962, 0.9, 1): coverage 1.000 over 2 replications of n=200\n",
        "e3b0c44298fc1c149afbf4c8996fb924",
    ),
    "estimate-rect": (
        ["estimate", *_RECT3],
        "[diagbounds] config 12cc3193a8989604  seed 0  alpha 0.05  beta 0.005\n" + _RECT_SUMMARY,
        "7fa83f755307329616a76110790711a6",
    ),
    "infer-rect": (
        ["infer", *_RECT3, *_INFER_SMALL, "--dump-moment-cells"],
        "[diagbounds] config 6929f1956dcc2913  seed 0  alpha 0.05  beta 0.005\n" + _RECT_SUMMARY
        + "confidence set: retained 72 of 7380 grid points; theta1 [0.6206896551724138, 0.9310344827586207]"
        "  theta0 [0.9310344827586207, 1.0]\n",
        "0bb2d224d02dbffe732714c18e1f87d3",
    ),
    "prevalence-rect": (
        ["prevalence", *_RECT3, "--q", "0.23"],
        "[diagbounds] config 89bb1dd319fbfd20  seed 0  alpha 0.05  beta 0.005\n" + _RECT_SUMMARY
        + "prevalence at q=0.23: sharp [0.2709, 0.3239]  rectangular [0.2397, 0.3434]\n" + _NOTE,
        "338f601bacd2e6e02d26fecf2ee83fa2",
    ),
    "predict-rect": (
        ["predict", *_RECT3, "--pi-lo", "0.1", "--pi-hi", "0.3"],
        "[diagbounds] config ea6f5ce86eadf0b4  seed 0  alpha 0.05  beta 0.005\n" + _RECT_SUMMARY
        + "PPV [0.6768, 1.0000]  NPV [0.8720, 0.9835] for pre-test range [0.1, 0.3]\n" + _NOTE,
        "101f3b649099db8db1abdb3c7fd37e9f",
    ),
    # s1 = 0.11 is refuted: sharp_union and the comparator drop it, its validation record fails,
    # and the grid's last point is exactly 1.0.
    "estimate-refuted-point": (
        ["estimate", "--dataset", "eua_symptomatic", "--s1-range", "0.11", "1.0", "--s0", "1.0", "--s-grid", "4"],
        "[diagbounds] config 6aafbb9d42ee5421  seed 0  alpha 0.05  beta 0.005\n"
        "apparent: sensitivity 0.846 CI [0.768, 0.906]  specificity 0.985 CI [0.966, 0.995]\n"
        "sharp projections: sensitivity [0.344, 0.846]  specificity [0.971, 1.000]\n"
        "false negative rate: [0.154, 0.656]\n",
        "ade8b1c869b31337005aca6aebe12c66",
    ),
}


def _files_digest(out: Path) -> str:
    """sha256 over the (name, bytes) of every file in ``out``, with numpy's version blanked."""
    numpy = f'"numpy": "{np.__version__}"'.encode()
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        for part in (f.name.encode(), f.read_bytes().replace(numpy, b'"numpy": ""')):
            h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()[:32]


@pytest.mark.filterwarnings("ignore:dropping refuted reference point:UserWarning")
@pytest.mark.parametrize("key", list(_GOLDEN))
def test_cli_stdout_and_files_are_pinned(key, tmp_path, capsys):
    argv, stdout, digest = _GOLDEN[key]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (capsys.readouterr().out, _files_digest(tmp_path)) == (stdout, digest)


# Numeric options are drawn as pairs (valid text, hostile text).  Hostile text
# is any float (nan, inf, -0.0 and out-of-range values), any int (0,
# negatives, 2**80) or text that is no number at all.
_HOSTILE = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "-1", "1.5", str(2**80)]),
    st.integers().map(str),
    st.text(max_size=3),
)


def _real(lo: float, hi: float):
    return st.floats(lo, hi).map(repr), _HOSTILE


# The cap of each option that sets the work: a value above it exits 3 and writes nothing.
_CAPS = {
    "--bootstrap": MAX_BOOTSTRAP,
    "--theta-grid": MAX_THETA_GRID,
    "--s-grid": MAX_S_GRID,
    "--reps": MAX_REPS,
    "--grid": MAX_SWEEP_GRID,
}


def _size(flag: str, lo: int, hi: int):
    """An integer option that sets the work: its hostile draws are at most ``hi`` or above its cap."""
    big = st.integers(max_value=hi) | st.integers(min_value=_CAPS[flag] + 1)
    return flag, (st.integers(lo, hi).map(str), big.map(str) | st.floats().map(repr) | st.text(max_size=3))


def _over_cap(argv) -> bool:
    return any(flag in _CAPS and v.isdecimal() and int(v) > _CAPS[flag] for flag, v in zip(argv, argv[1:]))


_SEED = st.integers(0, 2**64 - 1).map(str), _HOSTILE
_PRESET = st.sampled_from(["5", "10", "20"]), st.sampled_from(["7", "0", "-10", "x"])
_BOOTSTRAP = [_size("--bootstrap", 1, 20), ("--seed", _SEED), ("--beta-preset", _PRESET)]
_S_GRID = _size("--s-grid", 2, 3)  # sensitivity and simulate-coverage take one reference point, no grid
_NUMERIC_OPTIONS = {
    "infer": [_S_GRID, _size("--theta-grid", 2, 12), *_BOOTSTRAP],
    "predict": [_S_GRID, ("--pi-lo", _real(0.0, 0.5)), ("--pi-hi", _real(0.5, 1.0))],
    "sensitivity": [("--s1-lo", _real(0.8, 0.9)), ("--s1-hi", _real(0.9, 1.0)), _size("--grid", 2, 4)],
    "simulate-coverage": [
        ("--n", (st.integers(2, 2000).map(str), _HOSTILE)),
        _size("--reps", 1, 2),
        *_BOOTSTRAP,
    ],
}
_REFERENCE_OPTIONS = [
    ("--s1", _real(0.4, 1.0)),
    ("--s0", _real(0.6, 1.0)),
    ("--alpha", _real(0.01, 0.5)),
]


@st.composite
def _verb_argv(draw):
    """A valid call of one verb with up to two numeric options swapped for hostile text."""
    verb = draw(st.sampled_from(sorted(_NUMERIC_OPTIONS)))
    options = _REFERENCE_OPTIONS + _NUMERIC_OPTIONS[verb]
    hostile = draw(st.sets(st.integers(0, len(options) - 1), max_size=2))
    assumption = draw(st.sampled_from(["none", "wa1", "wa0", "both"]))
    argv = [verb, "--dataset", "eua_symptomatic", "--assumption", assumption]
    for i, (flag, (valid, bad)) in enumerate(options):
        argv += [flag, draw(bad if i in hostile else valid)]
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(argv=["infer", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "x", "--s-grid", "2",
               "--theta-grid", "12", "--bootstrap", "20"])
@example(argv=["predict", "--dataset", "eua_symptomatic", "--s1", "nan", "--s0", "1.0", "--s-grid", "2",
               "--pi-lo", "0.1", "--pi-hi", "inf"])
@example(argv=["simulate-coverage", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "1.0",
               "--n", "200", "--reps", "1", "--bootstrap", "5", "--seed", str(2**80)])
@example(argv=["sensitivity", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "-0.0",
               "--s1-lo", "0.8", "--s1-hi", "0.9", "--grid", "0"])
@example(argv=["sensitivity", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "1.0",
               "--s1-lo", "0.8", "--s1-hi", "0.9", "--grid", str(MAX_SWEEP_GRID + 1)])
@example(argv=["simulate-coverage", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "1.0",
               "--n", "200", "--reps", str(MAX_REPS + 1), "--bootstrap", "5"])
@example(argv=["simulate-coverage", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "1.0",
               "--n", str(2**80), "--reps", "1", "--bootstrap", "1"])
@given(argv=_verb_argv())
def test_cli_exit_codes_on_any_numeric_options(argv):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "dropping refuted reference point", UserWarning)
        files = [] if argv[0] == "simulate-coverage" else ["--format", "json"]
        try:
            rc = main([*argv, "--out", tmp, *files])
        except SystemExit as exc:
            assert exc.code == 3
            return
        written = os.listdir(tmp)
    assert rc in (0, 2, 3)
    if _over_cap(argv):
        assert (rc, written) == (3, [])
