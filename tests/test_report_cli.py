import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import diagbounds
from diagbounds import DependenceAssumption, SRegion, TestConfig
from diagbounds.cli import _test_config, build_parser, main
from diagbounds.datasets import list_datasets, load_dataset, read_counts
from diagbounds.report import ReportBundle, ReportToggles, StudyConfig, run_analysis, run_sensitivity

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


@pytest.mark.parametrize("argv", [["estimate"], ["infer"], ["simulate-coverage", "--n", "9", "--reps", "1"]])
def test_cli_test_config_defaults_are_test_config_defaults(argv):
    args = build_parser().parse_args([argv[0], "--dataset", "eua_symptomatic", *argv[1:]])
    cfg = _test_config(args)
    assert dataclasses.replace(cfg, beta=None) == TestConfig()
    assert cfg.beta_value == TestConfig().beta_value


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
        label="eua",
    )
    run_analysis(cfg)
    for name in ("fig_identified_set.svg", "fig_confidence_set.svg", "fig_prevalence_width.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")


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
_GOLDEN_STDOUT = {
    "estimate": (
        [],
        "[diagbounds] config 13cccaac02a776ce  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY,
    ),
    "infer": (
        ["--theta-grid", "30", "--bootstrap", "60"],
        "[diagbounds] config 3966f1d5fd829781  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY
        + "confidence set: retained 6 of 840 grid points; theta1 [0.7241379310344828, 0.8620689655172413]"
        "  theta0 [0.9655172413793103, 1.0]\n",
    ),
    "prevalence": (
        ["--q", "0.23"],
        "[diagbounds] config d4673db8462a94fc  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY
        + "prevalence at q=0.23: sharp [0.2875, 0.2879]  rectangular [0.2737, 0.3020]\n" + _NOTE,
    ),
    "predict": (
        ["--pi-lo", "0.1", "--pi-hi", "0.3"],
        "[diagbounds] config 27118962379e479d  seed 0  alpha 0.05  beta 0.005\n" + _SUMMARY
        + "PPV [0.8481, 1.0000]  NPV [0.9060, 0.9783] for pre-test range [0.1, 0.3]\n" + _NOTE,
    ),
    "sensitivity": (
        ["--s1-lo", "0.8", "--s1-hi", "0.9"],
        "s1=0.9: sensitivity [0.762, 0.800]  specificity [0.985, 1.000]\n"
        "s1 in [0.8,0.9]: sensitivity [0.677, 0.800]  specificity [0.984, 1.000]\n",
    ),
    "simulate-coverage": (
        ["--n", "200", "--reps", "2", "--bootstrap", "40"],
        "theta=(0.7712, 0.9886, 0.9, 1): coverage 1.000 over 2 replications of n=200\n"
        "theta=(0.7808, 0.9924, 0.9, 1): coverage 1.000 over 2 replications of n=200\n"
        "theta=(0.7904, 0.9962, 0.9, 1): coverage 1.000 over 2 replications of n=200\n",
    ),
}


@pytest.mark.parametrize("verb", list(_GOLDEN_STDOUT))
def test_cli_stdout_is_pinned(verb, tmp_path, capsys):
    extra, expected = _GOLDEN_STDOUT[verb]
    assert main([verb, *_POINT, *extra, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == expected


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


def _size(lo: int, hi: int):
    """An integer option that sets the work: its hostile draws stay at most ``hi`` too."""
    bad = st.integers(max_value=hi).map(str) | st.floats().map(repr) | st.text(max_size=3)
    return st.integers(lo, hi).map(str), bad


_SEED = st.integers(min_value=0).map(str) | st.just(str(2**80)), _HOSTILE
_PRESET = st.sampled_from(["5", "10", "20"]), st.sampled_from(["7", "0", "-10", "x"])
_BOOTSTRAP = [("--bootstrap", _size(1, 20)), ("--seed", _SEED), ("--beta-preset", _PRESET)]
_NUMERIC_OPTIONS = {
    "infer": [("--theta-grid", _size(2, 12)), *_BOOTSTRAP],
    "predict": [("--pi-lo", _real(0.0, 0.5)), ("--pi-hi", _real(0.5, 1.0))],
    "sensitivity": [("--s1-lo", _real(0.8, 0.9)), ("--s1-hi", _real(0.9, 1.0)), ("--grid", _size(2, 4))],
    "simulate-coverage": [
        ("--n", (st.integers(2, 2000).map(str), _HOSTILE)),
        ("--reps", _size(1, 2)),
        *_BOOTSTRAP,
    ],
}
_REFERENCE_OPTIONS = [
    ("--s1", _real(0.4, 1.0)),
    ("--s0", _real(0.6, 1.0)),
    ("--s-grid", _size(2, 3)),
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
               "--s-grid", "2", "--n", "200", "--reps", "1", "--bootstrap", "5", "--seed", str(2**80)])
@example(argv=["sensitivity", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "-0.0",
               "--s-grid", "-3", "--s1-lo", "0.8", "--s1-hi", "0.9", "--grid", "0"])
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
    assert rc in (0, 2, 3)
