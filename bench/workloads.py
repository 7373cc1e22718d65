"""The benchmark's workloads: the CLI calls each one makes and the checks on their outputs.

Every workload is a finite cycle of CLI calls that the closed loop in
``worker.py`` repeats until its time is up.  The calls are generated from
the workload seed alone; the program only sees the generated arguments
and input files.  A call is identified by a stable ``key`` so that its
output digest can be compared with the reference recorded for the
default seed, and with its own earlier repetitions in the same run.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diagbounds import (
    CellCounts,
    DependenceAssumption,
    RefPerf,
    TestConfig,
    ThetaPoint,
    param_space_box,
    rsw2_test,
)
from diagbounds.report import ReportBundle

DEFAULT_SEED = 1
WORKLOADS = ("infer-grid", "coverage", "estimate-sweep")
DATASETS = ("eua_symptomatic", "shah_symptomatic", "shah_asymptomatic")

# "full" is what the benchmark measures; "tiny" keeps the benchmark's own
# tests fast.  theta_grid and bootstrap size the infer-grid call, reps the
# coverage calls, s_grid the set-valued rectangles, tables the number of
# seed-drawn tables in estimate-sweep.  With 14 of them, 17 tables x 12
# templates give 204 distinct calls, so that at least 10 lie above the 95th
# percentile of their latencies.
SIZES = {
    "full": {"theta_grid": 316, "bootstrap": 500, "reps": 5, "s_grid": 10, "tables": 14},
    "tiny": {"theta_grid": 30, "bootstrap": 40, "reps": 4, "s_grid": 3, "tables": 2},
}

# (dataset, assumption, s1, s0) scenarios of the coverage workload.
COVERAGE_SCENARIOS = (
    ("eua_symptomatic", "wa1", "0.9", "1.0"),
    ("shah_symptomatic", "none", "0.9", "1.0"),
    ("shah_asymptomatic", "both", "0.9", "1.0"),
)

# Retained and rejected grid points re-tested with rsw2_test per infer call.
CROSS_CHECK_POINTS = 3

_RECT = ("--s1-range", "0.8", "0.9", "--s0-range", "0.98", "1.0")
_COVERAGE_LINE = re.compile(r"coverage (\d+\.\d+) over (\d+) replications of n=(\d+)")


@dataclass(frozen=True)
class Call:
    key: str
    kind: str  # "infer", "coverage" or the analysis verb
    argv: tuple[str, ...]
    may_refute: bool = False


@dataclass(frozen=True)
class Outcome:
    """A checked call: work units done, and what went wrong, if anything."""

    units: int = 0
    refuted: bool = False
    problem: str | None = None


def make_calls(workload: str, seed: int, size: str, workdir: Path) -> list[Call]:
    """The cycle of calls a workload repeats; inputs depend only on ``seed``.

    ``estimate-sweep`` writes its seed-drawn tables under ``workdir``.
    """
    knobs = SIZES[size]
    if workload == "infer-grid":
        return [
            Call(
                "infer",
                "infer",
                (
                    "infer", "--dataset", "eua_symptomatic", "--assumption", "wa1",
                    "--s1-range", "0.8", "0.9", "--s0", "1.0", "--s-grid", "2",
                    "--theta-grid", str(knobs["theta_grid"]),
                    "--bootstrap", str(knobs["bootstrap"]),
                    "--seed", str(seed), "--format", "json", "csv", "svg",
                ),
            )
        ]
    if workload == "coverage":
        return [
            Call(
                f"{ds}:{a}",
                "coverage",
                (
                    "simulate-coverage", "--dataset", ds, "--assumption", a,
                    "--s1", s1, "--s0", s0, "--n", "500",
                    "--reps", str(knobs["reps"]), "--bootstrap", str(knobs["bootstrap"]),
                    "--seed", str(seed),
                ),
            )
            for ds, a, s1, s0 in COVERAGE_SCENARIOS
        ]
    if workload == "estimate-sweep":
        return _estimate_sweep_calls(seed, knobs, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _population_counts(rng: np.random.Generator) -> tuple[dict, str, str]:
    """A 2x2 table drawn from a population in which every assumption holds.

    The reference errs at rates 1 - s1 and 1 - s0; when it errs, the index
    test repeats the error with probability above 1/2, so both
    wrongly-agree restrictions hold in the population.  Returns the counts
    and the true (s1, s0) rounded for the command line.
    """
    prev = rng.uniform(0.15, 0.35)
    s1, s0 = rng.uniform(0.82, 0.88), rng.uniform(0.985, 0.999)
    agree1, repeat1 = rng.uniform(0.85, 0.97), rng.uniform(0.55, 0.8)
    agree0, repeat0 = rng.uniform(0.96, 0.995), rng.uniform(0.55, 0.8)
    cells = np.array(
        [
            prev * s1 * agree1 + (1 - prev) * (1 - s0) * repeat0,
            prev * s1 * (1 - agree1) + (1 - prev) * (1 - s0) * (1 - repeat0),
            prev * (1 - s1) * (1 - repeat1) + (1 - prev) * s0 * (1 - agree0),
            prev * (1 - s1) * repeat1 + (1 - prev) * s0 * agree0,
        ]
    )
    n = int(rng.integers(600, 2000))
    counts = rng.multinomial(n, cells / cells.sum())
    return dict(zip(("n11", "n01", "n10", "n00"), map(int, counts))), f"{s1:.3f}", f"{s0:.3f}"


def _estimate_sweep_calls(seed: int, knobs: dict, workdir: Path) -> list[Call]:
    rng = np.random.Generator(np.random.PCG64(seed))
    tables: list[tuple[str, tuple[str, ...], str, str, bool]] = [
        (ds, ("--dataset", ds), "0.9", "1.0", False) for ds in DATASETS
    ]
    table_dir = workdir / "tables"
    table_dir.mkdir(parents=True, exist_ok=True)
    for k in range(knobs["tables"]):
        counts, s1, s0 = _population_counts(rng)
        path = table_dir / f"gen{k}.json"
        path.write_text(json.dumps(counts))
        tables.append((f"gen{k}", ("--input", str(path)), s1, s0, True))

    rect = _RECT + ("--s-grid", str(knobs["s_grid"]))
    calls = []
    for name, source, s1, s0, generated in tables:
        point = ("--s1", s1, "--s0", s0)
        # Twelve templates per table: three quick point analyses, eight
        # medium ones and one full prevalence curve over the rectangle.  The
        # median then falls well inside the medium calls and the 95th
        # percentile well inside the curve calls, not on a boundary between
        # two kinds of call.
        pi = ("--pi-lo", "0.1", "--pi-hi", "0.3")
        sweep = ("--s1-lo", "0.8", "--s1-hi", "0.9")
        q = ("--q", "0.23")
        templates = (
            ("estimate", "estimate", point + ("--assumption", "wa1")),
            ("predict", "predict", point + ("--assumption", "none") + pi),
            ("sensitivity", "sensitivity", point + ("--assumption", "wa1") + sweep),
            ("estimate-set", "estimate", rect + ("--assumption", "none")),
            ("estimate-set-wa1", "estimate", rect + ("--assumption", "wa1")),
            ("estimate-set-both", "estimate", rect + ("--assumption", "both")),
            ("predict-set", "predict", rect + ("--assumption", "wa1") + pi),
            ("predict-set-wa0", "predict", rect + ("--assumption", "wa0") + pi),
            ("prevalence", "prevalence", point + ("--assumption", "both") + q),
            ("prevalence-wa1", "prevalence", point + ("--assumption", "wa1") + q),
            ("prevalence-none", "prevalence", point + ("--assumption", "none") + q),
            ("prevalence-set", "prevalence", rect + ("--assumption", "wa1") + q),
        )
        for tag, verb, extra in templates:
            argv = (verb,) + source + extra + ("--format", "json", "csv", "svg")
            calls.append(Call(f"{name}:{tag}", verb, argv, may_refute=generated))
    return calls


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:32]


_ANALYSIS_FILES = {
    "estimate": ("report.json", "estimates.csv", "identified_set.csv", "fig_identified_set.svg"),
    "predict": ("report.json", "estimates.csv", "identified_set.csv", "fig_identified_set.svg"),
    "prevalence": (
        "report.json", "estimates.csv", "identified_set.csv", "prevalence_curve.csv",
        "fig_identified_set.svg", "fig_prevalence_width.svg",
    ),
    "sensitivity": ("sensitivity.json", "sensitivity.csv"),
}
_INFER_FILES = (
    "report.json", "confidence_set.csv", "confidence_set.json", "estimates.csv",
    "identified_set.csv", "fig_identified_set.svg", "fig_confidence_set.svg",
)


class Checker:
    """Checks call outputs and keeps the digests seen so far.

    At the default seed every digest must equal the recorded reference.
    At any seed, a repeated call must reproduce the digest of its first
    run, and the first run of each call gets the full checks.
    """

    def __init__(self, seed: int, references: dict | None, record: bool = False) -> None:
        self.seed = seed
        self.references = references
        self.record = record
        self.seen: dict[str, str] = {}

    def check(self, call: Call, rc: int, out: Path, stdout: str) -> Outcome:
        if rc == 2 and call.may_refute:
            return Outcome(refuted=True)
        if rc != 0:
            return Outcome(problem=f"{call.key}: exit code {rc}")
        first = call.key not in self.seen
        try:
            if call.kind == "infer":
                digest, units = self._infer(out, first)
            elif call.kind == "coverage":
                digest, units = self._coverage(call, stdout)
            else:
                digest, units = self._analysis(call, out)
        except CheckError as exc:
            return Outcome(problem=f"{call.key}: {exc}")
        if first:
            self.seen[call.key] = digest
            return Outcome(units, problem=self._against_reference(call.key, digest))
        if self.seen[call.key] != digest:
            return Outcome(units, problem=f"{call.key}: output differs from its first run")
        return Outcome(units)

    def _against_reference(self, key: str, digest: str) -> str | None:
        if self.record or self.seed != DEFAULT_SEED:
            return None
        expected = (self.references or {}).get(key)
        if expected is None:
            return f"{key}: no reference digest recorded"
        if expected != digest:
            return f"{key}: digest {digest} differs from reference {expected}"
        return None

    def _infer(self, out: Path, first: bool) -> tuple[str, int]:
        _require_files(out, _INFER_FILES)
        report_text = (out / "report.json").read_text()
        cs = json.loads((out / "confidence_set.json").read_text())
        csv_rows = (out / "confidence_set.csv").read_text().splitlines()
        if len(csv_rows) - 1 != cs["n_retained"] or len(cs["points"]) != cs["n_retained"]:
            raise CheckError("confidence_set.csv and confidence_set.json disagree on the retained count")
        if json.loads(report_text)["confidence_set"]["n_tested"] != cs["n_tested"]:
            raise CheckError("report.json and confidence_set.json disagree on the tested count")
        if first:
            _cross_check_grid(json.loads(report_text), cs, random.Random(self.seed))
        digest = _digest(report_text.encode(), (out / "confidence_set.csv").read_bytes())
        return digest, cs["n_tested"]

    def _coverage(self, call: Call, stdout: str) -> tuple[str, int]:
        lines = [m for m in map(_COVERAGE_LINE.search, stdout.splitlines()) if m]
        argv = call.argv
        reps, n = int(argv[argv.index("--reps") + 1]), int(argv[argv.index("--n") + 1])
        if not 1 <= len(lines) <= 3:
            raise CheckError(f"expected 1 to 3 coverage lines, got {len(lines)}")
        for m in lines:
            cov = float(m.group(1))
            if int(m.group(2)) != reps or int(m.group(3)) != n or not 0.0 <= cov <= 1.0:
                raise CheckError(f"bad coverage line {m.group(0)!r}")
            if abs(cov * reps - round(cov * reps)) > 0.0005 * reps + 1e-9:
                raise CheckError(f"coverage {cov} is not a share of {reps} replications")
        return _digest("\n".join(m.string for m in lines).encode()), reps

    def _analysis(self, call: Call, out: Path) -> tuple[str, int]:
        files = _ANALYSIS_FILES[call.kind]
        _require_files(out, files)
        text = (out / files[0]).read_text()
        if ReportBundle.from_json(text).to_json() != text:
            raise CheckError(f"{files[0]} does not round-trip through ReportBundle.from_json")
        return _digest(text.encode()), 1


class CheckError(Exception):
    """An output failed a check."""


def _require_files(out: Path, names: tuple[str, ...]) -> None:
    missing = [name for name in names if not (out / name).is_file() or (out / name).stat().st_size == 0]
    if missing:
        raise CheckError(f"missing or empty outputs: {', '.join(missing)}")


def _cross_check_grid(report: dict, cs: dict, rng: random.Random) -> None:
    """Re-test a sample of retained and rejected grid points one at a time.

    A retained point must be accepted by ``rsw2_test`` with the same T_n
    and critical value as in the confidence set; a tested point that is
    not retained must be rejected.
    """
    config = report["config"]
    counts = CellCounts(**config["counts"])
    a = DependenceAssumption(config["assumption"])
    cfg = TestConfig(
        alpha=config["alpha"], beta=config["beta"], bootstrap=config["bootstrap"],
        seed=config["seed"], theta_grid=config["theta_grid"], s_grid=config["s_grid"],
    )
    t1_axis, t0_axis = cs["theta1_axis"], cs["theta0_axis"]
    s_points = [RefPerf(*sp) for sp in cs["s_points"]]
    retained = {tuple(p) for p in cs["points"]}

    for i in rng.sample(range(len(cs["points"])), min(CROSS_CHECK_POINTS, len(cs["points"]))):
        t1, t0, s1, s0 = cs["points"][i]
        res = rsw2_test(counts, ThetaPoint(t1, t0, RefPerf(s1, s0)), a, cfg)
        if res.reject or res.t_n != cs["t_n"][i] or res.crit != cs["crit"][i]:
            raise CheckError(
                f"retained point {cs['points'][i]} re-tests as reject={res.reject} "
                f"t_n={res.t_n!r} crit={res.crit!r}, set has t_n={cs['t_n'][i]!r} crit={cs['crit'][i]!r}"
            )

    found = 0
    for _ in range(200):
        s = rng.choice(s_points)
        (lo1, hi1), (lo0, hi0) = param_space_box(a, s)
        t1, t0 = rng.choice(t1_axis), rng.choice(t0_axis)
        if not (lo1 <= t1 <= hi1 and lo0 <= t0 <= hi0) or (t1, t0, s.s1, s.s0) in retained:
            continue
        if not rsw2_test(counts, ThetaPoint(t1, t0, s), a, cfg).reject:
            raise CheckError(f"rejected grid point ({t1}, {t0}, {s.s1}, {s.s0}) re-tests as accepted")
        found += 1
        if found == CROSS_CHECK_POINTS:
            return
    raise CheckError("could not sample rejected grid points to cross-check")
