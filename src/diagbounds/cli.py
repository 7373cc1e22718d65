"""Command-line front end.

Verbs: ``estimate`` (apparent measures, sharp sets, comparator),
``infer`` (adds the bootstrap confidence set), ``prevalence`` (screened-
population bounds and width curve), ``predict`` (predictive-value
bounds), ``sensitivity`` (reference-sensitivity sweep) and
``simulate-coverage`` (Monte-Carlo acceptance rates).

Exit codes: 0 success, 2 assumptions refuted by the data, 3 invalid
input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .datasets import list_datasets, load_dataset, read_counts
from .derived import PretestRange
from .identification import DependenceAssumption
from .inference import BETA_PRESETS, DEFAULT_BETA_PRESET, TestConfig, coverage_simulation
from .probability import CellCounts, RefutationError, SRegion, estimate_joint
from .report import (
    EXTRAPOLATION_NOTE,
    ReportToggles,
    StudyConfig,
    run_analysis,
    run_sensitivity,
)

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_INVALID = 3


def _add_common(p: argparse.ArgumentParser, inference: bool = False) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", type=Path, help="counts file (JSON or CSV)")
    src.add_argument(
        "--dataset", choices=list_datasets(), help="bundled example dataset"
    )
    p.add_argument("--s1", type=float, help="reference sensitivity (point value)")
    p.add_argument("--s0", type=float, help="reference specificity (point value)")
    p.add_argument(
        "--s1-range", nargs=2, type=float, metavar=("LO", "HI"), help="reference sensitivity interval"
    )
    p.add_argument(
        "--s0-range", nargs=2, type=float, metavar=("LO", "HI"), help="reference specificity interval"
    )
    p.add_argument(
        "--assumption",
        choices=[a.value for a in DependenceAssumption],
        default="none",
        help="dependence restriction between the tests",
    )
    p.add_argument("--s-grid", type=int, default=TestConfig.s_grid, help="grid points per reference axis")
    p.add_argument("--alpha", type=float, default=TestConfig.alpha, help="significance level")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument(
        "--format",
        choices=["json", "csv", "svg"],
        nargs="+",
        default=["json", "csv", "svg"],
        help="artifact families to write",
    )
    if inference:
        p.add_argument(
            "--beta-preset",
            type=int,
            choices=BETA_PRESETS,
            default=DEFAULT_BETA_PRESET,
            help="first-stage level beta = alpha / PRESET",
        )
        p.add_argument("--bootstrap", type=int, default=TestConfig.bootstrap, metavar="B")
        p.add_argument("--seed", type=int, default=TestConfig.seed)
        p.add_argument("--theta-grid", type=int, default=TestConfig.theta_grid, help="grid points per theta axis")
        p.add_argument(
            "--dump-moment-cells",
            action="store_true",
            help="write the per-cell moment values at segment midpoints",
        )


def _counts(args) -> CellCounts:
    if args.dataset:
        return load_dataset(args.dataset)
    return read_counts(args.input)


def _s_region(args) -> SRegion:
    s1s = args.s1_range if args.s1_range else ([args.s1, args.s1] if args.s1 is not None else None)
    s0s = args.s0_range if args.s0_range else ([args.s0, args.s0] if args.s0 is not None else None)
    if s1s is None or s0s is None:
        raise ValueError("reference performance required: --s1/--s0 or --s1-range/--s0-range")
    return SRegion.rectangle(
        s1s[0], s1s[1], s0s[0], s0s[1], s1_points=args.s_grid, s0_points=args.s_grid
    )


def _test_config(args) -> TestConfig:
    if "beta_preset" not in args:  # a verb without the inference options
        return TestConfig(alpha=args.alpha, s_grid=args.s_grid)
    return TestConfig.with_beta_preset(
        args.alpha, args.beta_preset, bootstrap=args.bootstrap, seed=args.seed,
        theta_grid=args.theta_grid, s_grid=args.s_grid,
    )


def _study_config(args, toggles: ReportToggles, **extra) -> StudyConfig:
    return StudyConfig(
        counts=_counts(args),
        s_region=_s_region(args),
        assumption=DependenceAssumption.from_label(args.assumption),
        test_config=_test_config(args),
        toggles=toggles,
        out_dir=args.out,
        formats=tuple(args.format),
        dump_moment_cells=getattr(args, "dump_moment_cells", False),
        label=args.dataset or (args.input.stem if args.input else "study"),
        **extra,
    )


def _print_summary(bundle) -> None:
    data = bundle.data
    prov = data["provenance"]
    print(
        f"[diagbounds] config {prov['config_hash']}  seed {prov['seed']}  "
        f"alpha {prov['alpha']}  beta {prov['beta']}"
    )
    if "apparent" in data:
        ap = data["apparent"]
        print(
            f"apparent: sensitivity {ap['theta1']:.3f} "
            f"CI [{ap['ci_theta1'][0]:.3f}, {ap['ci_theta1'][1]:.3f}]  "
            f"specificity {ap['theta0']:.3f} "
            f"CI [{ap['ci_theta0'][0]:.3f}, {ap['ci_theta0'][1]:.3f}]"
        )
    if "projections" in data:
        p1, p0 = data["projections"]["theta1"], data["projections"]["theta0"]
        print(f"sharp projections: sensitivity [{p1[0]:.3f}, {p1[1]:.3f}]  specificity [{p0[0]:.3f}, {p0[1]:.3f}]")
        fnr = data["false_negative_rate"]
        print(f"false negative rate: [{fnr[0]:.3f}, {fnr[1]:.3f}]")
    if "confidence_set" in data:
        cs = data["confidence_set"]
        print(
            f"confidence set: retained {cs['n_retained']} of {cs['n_tested']} grid points; "
            f"theta1 {cs['theta1_projection']}  theta0 {cs['theta0_projection']}"
        )


def cmd_estimate(args) -> int:
    cfg = _study_config(args, ReportToggles())
    bundle = run_analysis(cfg)
    _print_summary(bundle)
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _study_config(args, ReportToggles(confidence=True))
    bundle = run_analysis(cfg)
    _print_summary(bundle)
    return EXIT_OK


def cmd_prevalence(args) -> int:
    cfg = _study_config(
        args,
        ReportToggles(prevalence_curve=True),
        screen_q=args.q,
    )
    bundle = run_analysis(cfg)
    _print_summary(bundle)
    if "prevalence_at_q" in bundle.data:
        rec = bundle.data["prevalence_at_q"]
        tag = " (vacuous)" if rec["sharp_vacuous"] else ""
        print(
            f"prevalence at q={rec['q']:g}: sharp [{rec['sharp'][0]:.4f}, {rec['sharp'][1]:.4f}]{tag}  "
            f"rectangular [{rec['rect'][0]:.4f}, {rec['rect'][1]:.4f}]"
        )
    print(f"note: {EXTRAPOLATION_NOTE}")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = _study_config(
        args,
        ReportToggles(predictive_values=True),
        pretest=PretestRange(args.pi_lo, args.pi_hi),
    )
    bundle = run_analysis(cfg)
    _print_summary(bundle)
    pv = bundle.data["predictive_values"]
    print(
        f"PPV [{pv['ppv'][0]:.4f}, {pv['ppv'][1]:.4f}]  "
        f"NPV [{pv['npv'][0]:.4f}, {pv['npv'][1]:.4f}] for pre-test range {pv['pi']}"
    )
    print(f"note: {EXTRAPOLATION_NOTE}")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    cfg = _study_config(args, ReportToggles())
    bundle = run_sensitivity(cfg, args.s1_lo, args.s1_hi, grid=args.grid)
    for var in bundle.data["sensitivity"]["variants"]:
        t1 = var["theta1_projection"]
        t0 = var["theta0_extremal_segments"]
        print(
            f"{var['label']}: sensitivity [{t1[0]:.3f}, {t1[1]:.3f}]  "
            f"specificity [{t0[0]:.3f}, {t0[1]:.3f}]"
        )
    return EXIT_OK


def cmd_simulate_coverage(args) -> int:
    counts = _counts(args)
    region = _s_region(args)
    if len(region) != 1:
        raise ValueError("coverage simulation needs a single (s1, s0) point")
    a = DependenceAssumption.from_label(args.assumption)
    cfg = _test_config(args)
    result = coverage_simulation(
        true_p=estimate_joint(counts),
        s_true=region.points[0],
        a=a,
        n=args.n,
        reps=args.reps,
        cfg=cfg,
    )
    for tp, cov in zip(result.theta_points, result.coverage):
        print(
            f"theta=({tp.theta1:.4f}, {tp.theta0:.4f}, {tp.s.s1:g}, {tp.s.s0:g}): "
            f"coverage {cov:.3f} over {result.reps} replications of n={result.n}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagbounds",
        description=(
            "Bounds and uniformly valid confidence sets for diagnostic test "
            "sensitivity/specificity measured against an imperfect reference."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="apparent measures, sharp sets and comparator")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("infer", help="estimate plus bootstrap confidence set")
    _add_common(p, inference=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("prevalence", help="screened-population prevalence bounds")
    _add_common(p)
    p.add_argument("--q", type=float, default=None, help="screened positive rate")
    p.set_defaults(func=cmd_prevalence)

    p = sub.add_parser("predict", help="predictive-value bounds")
    _add_common(p)
    p.add_argument("--pi-lo", type=float, required=True, help="pre-test probability lower end")
    p.add_argument("--pi-hi", type=float, required=True, help="pre-test probability upper end")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sensitivity", help="sweep the assumed reference sensitivity")
    _add_common(p)
    p.add_argument("--s1-lo", type=float, required=True)
    p.add_argument("--s1-hi", type=float, required=True)
    p.add_argument("--grid", type=int, default=None, help="sweep grid points")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("simulate-coverage", help="Monte-Carlo acceptance of identified-set points")
    _add_common(p, inference=True)
    p.add_argument("--n", type=int, required=True, help="sample size per replication")
    p.add_argument("--reps", type=int, required=True, help="number of replications")
    p.set_defaults(func=cmd_simulate_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefutationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
