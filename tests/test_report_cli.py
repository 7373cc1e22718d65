import json
from pathlib import Path

import pytest

from diagbounds import DependenceAssumption, SRegion, TestConfig
from diagbounds.cli import main
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


def test_cli_refuted_exit_code(tmp_path):
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
