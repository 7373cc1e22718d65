"""The benchmark's own tests.

Tiny runs of every workload must emit exactly the metrics BENCHMARK.json
names, each with its unit, and a traced run must record the spans of every
layer the workload exercises; a corrupted reference digest must show up as
a failed call; and the command must refuse to run outside a checkout.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload: str, trace: int, *extra: str) -> dict:
    return result(
        run_bench("--workload", workload, "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra)
    )


# Spans that each workload must record when traced: a name the tracer failed
# to replace where a module looks it up would leave its layer empty.
EXERCISED = {
    "infer-grid": (
        "inference.confidence_set", "moments.moment_cell_tables", "moments.param_space_box",
        "report.run_analysis", "report.serialize", "svgfig.figures", "identification.sharp_union",
    ),
    "coverage": (
        "inference.coverage_simulation", "inference.bootstrap_cell_frequencies",
        "moments.moment_cell_tables", "moments.param_space_box",
    ),
    "estimate-sweep": (
        "cli.build_parser", "datasets.load", "exactci.clopper_pearson", "derived.prevalence_width_curve",
        "derived.predictive_value_bounds", "identification.sharp_union", "probability.validate_assumptions",
        "report.run_analysis", "report.run_sensitivity", "report.serialize", "svgfig.figures",
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    out = tiny(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in out["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        assert [name for name in EXERCISED[workload] if m[f"{name}.calls"] <= 0] == []
        # Time that no wrapped layer claims stays in the root span's self time.
        assert m["cli.main.self_s"] <= 0.2 * m["trace.traced_s"]


def test_checks_pass_at_another_seed():
    out = tiny("infer-grid", 0, "--seed", "7")
    assert out["correct"] and out["metrics"]["ok_ratio"]["value"] == 1.0


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_digest_raises_the_error_rate(tmp_path):
    copy_benchmark(tmp_path)
    refs_file = tmp_path / "bench" / "references.json"
    refs = json.loads(refs_file.read_text())
    digests = refs["tiny"]["estimate-sweep"]
    digests[sorted(digests)[0]] = "0" * 32
    refs_file.write_text(json.dumps(refs))
    # The copy's run.py reads the copy's references and runs the program of
    # the checkout it is started in.
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "estimate-sweep",
         "--seconds", "0.5", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    out = result(proc)
    assert not out["correct"] and out["failed"] >= 1
    assert out["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
