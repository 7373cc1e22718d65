"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the full-grid inversion criterion takes a few minutes.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import diagbounds
from diagbounds import (
    CellCounts,
    DependenceAssumption,
    JointTR,
    RefPerf,
    RefutationError,
    SRegion,
    TestConfig,
    ThetaPoint,
    apparent_measures,
    confidence_set,
    coverage_simulation,
    estimate_joint,
    param_space_box,
    population_moment_stats,
    build_moment_system,
    project,
    rsw2_test,
    sharp_segment,
    sharp_union,
    variance_floor,
)
from diagbounds.cli import main
from diagbounds.derived import (
    prevalence_bounds_rect,
    prevalence_bounds_segment,
)
from diagbounds.moments import N_COMPONENTS, moment_cell_tables
from diagbounds.probability import derived_prevalence
from diagbounds.report import StudyConfig, run_sensitivity

from helpers import (
    TABLE_DATASETS,
    WA1,
    brute_force_theta_bounds,
    random_valid_instance,
    segment_distance_linf,
)

EX1_P = JointTR(0.45, 0.05, 0.05, 0.45)
EX1_S = RefPerf(0.9, 0.9)
S91 = RefPerf(0.9, 1.0)
SEED = 20240501


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_01_worked_examples_exact():
    cases = [
        (DependenceAssumption.NO_RESTRICTION, (1.0, 1.0)),
        (DependenceAssumption.WRONGLY_AGREE_Y1, (0.95, 0.95)),
        (DependenceAssumption.WRONGLY_AGREE_BOTH, (0.9, 0.9)),
    ]
    ok = True
    for a, hi in cases:
        seg = sharp_segment(EX1_P, EX1_S, a)
        ok &= max(abs(seg.lo[0] - 0.8), abs(seg.lo[1] - 0.8)) <= 1e-12
        ok &= max(abs(seg.hi[0] - hi[0]), abs(seg.hi[1] - hi[1])) <= 1e-12
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        for a, _hi in cases:
            sharp_segment(EX1_P, EX1_S, a)
    per_call = (time.perf_counter() - t0) / (reps * len(cases))
    _report(
        1,
        "worked-example segments exact to 1e-12 and under 1 ms",
        ok and per_call < 1e-3,
        f"max-err<=1e-12: {ok}, {per_call * 1e6:.0f} us/segment",
    )


TABLE2 = {
    "eua_sx": ((0.846, 0.985), (0.761, 0.800), (0.985, 1.000)),
    "shah_sx": ((0.819, 0.997), (0.737, 0.744), (0.997, 1.000)),
    "shah_asx": ((0.688, 0.994), (0.619, 0.669), (0.994, 0.997)),
}


def test_criterion_02_published_estimates_table():
    ok = True
    for name, (app, t1, t0) in TABLE2.items():
        p = estimate_joint(TABLE_DATASETS[name])
        a1, a0 = apparent_measures(p)
        seg = sharp_segment(p, S91, WA1)
        ok &= abs(a1 - app[0]) <= 1e-3 and abs(a0 - app[1]) <= 1e-3
        ok &= abs(seg.lo[0] - t1[0]) <= 1e-3 and abs(seg.hi[0] - t1[1]) <= 1e-3
        ok &= abs(seg.lo[1] - t0[0]) <= 1e-3 and abs(seg.hi[1] - t0[1]) <= 1e-3
    reps = 200
    t_start = time.perf_counter()
    for _ in range(reps):
        p = estimate_joint(TABLE_DATASETS["eua_sx"])
        apparent_measures(p)
        seg = sharp_segment(p, S91, WA1)
    per_run = (time.perf_counter() - t_start) / reps
    _report(
        2,
        "published apparent estimates and projections within 0.001, under 10 ms",
        ok and per_run < 1e-2,
        f"{per_run * 1e3:.2f} ms/dataset",
    )


TABLE3 = {
    "eua_sx": ((0.677, 0.800), (0.984, 1.000)),
    "shah_sx": ((0.655, 0.744), (0.997, 1.000)),
    "shah_asx": ((0.550, 0.669), (0.994, 0.997)),
}


def test_criterion_03_sensitivity_sweep_table():
    ok = True
    for name, (t1, t0) in TABLE3.items():
        cfg = StudyConfig(
            counts=TABLE_DATASETS[name],
            s_region=SRegion.singleton(0.9, 1.0),
            assumption=WA1,
            label=name,
        )
        bundle = run_sensitivity(cfg, 0.8, 0.9, grid=10)
        var = bundle.data["sensitivity"]["variants"][1]
        got1 = var["theta1_projection"]
        got0 = var["theta0_extremal_segments"]
        ok &= abs(got1[0] - t1[0]) <= 1e-3 and abs(got1[1] - t1[1]) <= 1e-3
        ok &= abs(got0[0] - t0[0]) <= 1e-3 and abs(got0[1] - t0[1]) <= 1e-3
    _report(3, "sensitivity sweep reproduces all six published intervals to 0.001", ok)


def test_criterion_04_false_negative_rate_headline():
    seg = sharp_segment(estimate_joint(TABLE_DATASETS["eua_sx"]), S91, WA1)
    fnr = (1.0 - seg.hi[0], 1.0 - seg.lo[0])
    ok = abs(fnr[0] - 0.200) <= 1e-3 and abs(fnr[1] - 0.239) <= 1e-3
    ratio = (fnr[0] / 0.083, fnr[1] / 0.083)
    # The published ratio endpoints are displayed to two decimals.
    ok &= ratio[0] >= 2.41 - 5e-3 and ratio[1] <= 2.88 + 5e-3
    _report(
        4,
        "false-negative-rate bounds [0.200, 0.239] and ratios in [2.41, 2.88]",
        ok,
        f"fnr=({fnr[0]:.4f}, {fnr[1]:.4f}), ratios=({ratio[0]:.3f}, {ratio[1]:.3f})",
    )


def test_criterion_05_identification_moments_equivalence():
    rng = np.random.default_rng(505)
    checked = 0
    mismatches = 0
    while checked < 50:
        p, s = random_valid_instance(rng)
        for a in DependenceAssumption:
            try:
                seg = sharp_segment(p, s, a)
            except RefutationError:
                continue
            A, B, C = moment_cell_tables(a, s)
            w = np.asarray(p.cells)
            eA, eB, eC = w @ A, w @ B, w @ C
            box = param_space_box(a, s)
            n = 200
            g1 = np.linspace(0.0, box[0][1], n)
            g0 = np.linspace(0.0, box[1][1], n)
            p1, p0 = g1[1] - g1[0], g0[1] - g0[0]
            pitch = max(p1, p0)
            py1 = derived_prevalence(p, s)
            T1, T0 = np.meshgrid(g1, g0, indexing="ij")
            E = (
                eA[None, None, :]
                + T1[:, :, None] * eB[None, None, :]
                + T0[:, :, None] * eC[None, None, :]
            )
            # E[m7] moves one-for-one with the sliding distance to the
            # feasibility line, so half a grid step on the finer axis is
            # the grid-resolution band for the equality.
            tol7 = 0.5 * min(p1 * py1, p0 * (1.0 - py1))
            inside_m = np.all(E[:, :, :6] <= 1e-10, axis=2) & (np.abs(E[:, :, 6]) <= tol7)
            dist = segment_distance_linf(seg, T1, T0)
            if np.any(inside_m & (dist > pitch * (1 + 1e-9))):
                mismatches += 1
            interior = (
                (np.abs(E[:, :, 6]) <= 0.8 * tol7)
                & (T1 >= seg.lo[0] + p1)
                & (T1 <= seg.hi[0] - p1)
                & (T0 >= seg.lo[1] + p0)
                & (T0 <= seg.hi[1] - p0)
            )
            if np.any(interior & ~inside_m):
                mismatches += 1
            checked += 1
    _report(
        5,
        "moment-sign classification matches segments within one pitch",
        mismatches == 0 and checked >= 50,
        f"{checked} instances, {mismatches} mismatches",
    )


def test_criterion_06_brute_force_sharpness():
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    while checked < 20:
        p, s = random_valid_instance(rng)
        a = list(DependenceAssumption)[rng.integers(0, 4)]
        oracle = brute_force_theta_bounds(p, s, a, npts=100001)
        try:
            seg = sharp_segment(p, s, a)
        except RefutationError:
            assert oracle is None or oracle[0][0] > oracle[0][1] - 1e-9
            continue
        assert oracle is not None
        (lo1, hi1), _ = oracle
        worst = max(worst, abs(seg.lo[0] - lo1), abs(seg.hi[0] - hi1))
        checked += 1
    _report(
        6,
        "theta1 bounds match exhaustive latent-joint search within 2e-3",
        worst <= 2e-3 and checked >= 20,
        f"{checked} instances, worst |err| {worst:.2e}",
    )


def test_criterion_07_prevalence_dominance():
    seg1 = sharp_segment(EX1_P, EX1_S, DependenceAssumption.NO_RESTRICTION)
    sharp = prevalence_bounds_segment(seg1, 0.5)
    rect = prevalence_bounds_rect(seg1, 0.5)
    ok = (
        abs(sharp.interval.lo - 0.5) <= 1e-12
        and abs(sharp.interval.hi - 0.5) <= 1e-12
        and abs(rect.interval.lo - 0.375) <= 1e-12
        and abs(rect.interval.hi - 0.625) <= 1e-12
    )
    rng = np.random.default_rng(707)
    tested = 0
    while tested < 150:
        p, s = random_valid_instance(rng)
        try:
            seg = sharp_segment(p, s, DependenceAssumption.NO_RESTRICTION)
        except RefutationError:
            continue
        q = float(rng.uniform(0.0, 1.0))
        a = prevalence_bounds_segment(seg, q)
        b = prevalence_bounds_rect(seg, q)
        ok &= a.interval.lo >= b.interval.lo - 1e-10
        ok &= a.interval.hi <= b.interval.hi + 1e-10
        tested += 1
    _report(
        7,
        "sharp prevalence bounds inside rectangular bounds on every pair",
        ok,
        f"{tested} random segment/q pairs plus the worked example",
    )


def test_criterion_08_variance_floors():
    rng = np.random.default_rng(808)
    worst = np.inf
    count = 0
    for eps in (0.01, 0.1, 0.2, 0.25):
        for _ in range(250):
            cells = rng.dirichlet(np.ones(4))
            cells = eps + cells * (1.0 - 4.0 * eps)
            p = JointTR(*cells)
            while True:
                s1 = rng.uniform(0.5, 1.0)
                s0 = rng.uniform(0.5, 1.0)
                if s1 > 1.0 - s0 + 0.05:
                    break
            s = RefPerf(s1, s0)
            a = list(DependenceAssumption)[rng.integers(0, 4)]
            box = param_space_box(a, s)
            theta = ThetaPoint(
                float(rng.uniform(0, box[0][1])), float(rng.uniform(0, box[1][1])), s
            )
            st = population_moment_stats(p, build_moment_system(theta, a))
            for j in range(1, N_COMPONENTS + 1):
                worst = min(worst, st.sds[j - 1] ** 2 - variance_floor(eps, j))
            count += 1
    _report(
        8,
        "population variances clear the closed-form floors",
        worst >= -1e-12 and count == 1000,
        f"{count} draws, worst margin {worst:.2e}",
    )


@pytest.fixture(scope="module")
def eua_full_inversion():
    cfg = TestConfig(alpha=0.05, seed=SEED, theta_grid=316, s_grid=10)
    region = SRegion.rectangle(0.8, 0.9, 1.0, 1.0, s1_points=10)
    t0 = time.perf_counter()
    cs = confidence_set(TABLE_DATASETS["eua_sx"], region, WA1, cfg)
    elapsed = time.perf_counter() - t0
    return cs, elapsed


def test_criterion_09_inference_headline(eua_full_inversion):
    cfg = TestConfig(alpha=0.05, seed=SEED)
    final_cited, interim_cited = (0.846, 0.985), (0.917, 1.0)
    ok = True
    details = []
    for name in TABLE2:
        counts = TABLE_DATASETS[name]
        for theta in (final_cited, interim_cited):
            res = rsw2_test(counts, ThetaPoint(theta[0], theta[1], S91), WA1, cfg)
            ok &= res.reject
        if name in ("eua_sx", "shah_sx"):
            own = apparent_measures(estimate_joint(counts))
            res = rsw2_test(counts, ThetaPoint(own[0], own[1], S91), WA1, cfg)
            ok &= res.reject
            details.append(f"{name} own-apparent Tn={res.t_n:.2f}>crit={res.crit:.2f}")

    # Plug-in segment neighborhoods retained, per dataset, on the 316 grid.
    grid = np.linspace(0.0, 1.0, 316)
    pitch = grid[1] - grid[0]
    for name in TABLE2:
        counts = TABLE_DATASETS[name]
        seg = sharp_segment(estimate_joint(counts), S91, WA1)
        cs1 = confidence_set(
            counts, SRegion.singleton(0.9, 1.0), WA1,
            TestConfig(alpha=0.05, seed=SEED, theta_grid=316),
        )
        pts = {(round(a, 10), round(b, 10)) for a, b, _, _ in cs1.points}
        near = 0
        missing = 0
        for t1 in grid:
            for t0 in grid[np.abs(grid - seg.theta0_at(np.clip(t1, seg.lo[0], seg.hi[0]))) <= 1.5 * pitch]:
                if segment_distance_linf(seg, t1, t0) <= pitch:
                    near += 1
                    if (round(t1, 10), round(t0, 10)) not in pts:
                        missing += 1
        ok &= near > 0 and missing == 0
        details.append(f"{name} segment neighborhood {near} pts, {missing} missing")

    cs, elapsed = eua_full_inversion
    ok &= elapsed < 300.0
    ok &= len(cs) > 0
    details.append(f"full 1e5 x 10 inversion {elapsed:.0f}s, retained {len(cs)}")
    _report(
        9,
        "cited apparent values rejected, segment neighborhoods retained, "
        "full inversion under 5 minutes",
        ok,
        "; ".join(details),
    )


def test_criterion_10_monte_carlo_coverage():
    reps, n, alpha = 200, 500, 0.05
    band = (1.0 - alpha) - 3.0 * np.sqrt(alpha * (1.0 - alpha) / reps)
    scenarios = [
        (EX1_P, EX1_S, DependenceAssumption.NO_RESTRICTION),
        (EX1_P, EX1_S, DependenceAssumption.WRONGLY_AGREE_Y1),
        (JointTR(0.30, 0.10, 0.08, 0.52), RefPerf(0.85, 0.95), DependenceAssumption.NO_RESTRICTION),
        (JointTR(0.30, 0.10, 0.08, 0.52), RefPerf(0.85, 0.95), DependenceAssumption.WRONGLY_AGREE_Y1),
    ]
    ok = True
    details = []
    for i, (p, s, a) in enumerate(scenarios):
        res = coverage_simulation(
            p, s, a, n=n, reps=reps, cfg=TestConfig(alpha=alpha, seed=SEED + i)
        )
        ok &= bool(np.all(res.coverage >= band))
        details.append(f"{a.value}: min cov {res.coverage.min():.3f}")
    _report(
        10,
        f"identified-set coverage at n={n} stays above {band:.3f}",
        ok,
        "; ".join(details),
    )


def test_criterion_11_determinism_across_processes(tmp_path):
    # The same CLI call in this process and in a fresh interpreter with a
    # different hash seed must write the same bytes.
    argv = [
        "infer", "--dataset", "eua_symptomatic", "--s1", "0.9", "--s0", "1.0",
        "--assumption", "wa1", "--theta-grid", "60", "--seed", str(SEED),
        "--format", "json", "csv",
    ]
    assert main(argv + ["--out", str(tmp_path / "here")]) == 0
    src = str(Path(diagbounds.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    subprocess.run(
        [sys.executable, "-m", "diagbounds.cli", *argv, "--out", str(tmp_path / "child")],
        env=env, check=True, capture_output=True,
    )
    outputs = [
        tuple(
            (tmp_path / sub / fname).read_bytes()
            for fname in ("report.json", "confidence_set.csv", "estimates.csv")
        )
        for sub in ("here", "child")
    ]
    ok = outputs[0] == outputs[1]
    _report(11, "reports byte-identical across processes and hash seeds", ok)
