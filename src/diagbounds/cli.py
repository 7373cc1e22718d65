"""Command-line front end.

Verbs: ``estimate`` (apparent measures, sharp sets, comparator),
``infer`` (adds the bootstrap confidence set), ``prevalence`` (screened-
population bounds and width curve), ``predict`` (predictive-value
bounds), ``sensitivity`` (reference-sensitivity sweep) and
``simulate-coverage`` (Monte-Carlo acceptance rates).  The first four
share one handler, ``cmd_report``, and differ only in their options and
the report sections they add (``StudyConfig``).  Every report holds the
apparent measures with exact CIs, the sharp identified set and the
marginals-only comparator.  ``infer`` adds the confidence set and
``prevalence`` the prevalence-width curve, through the parser defaults
``confidence`` and ``prevalence_curve``; ``predict`` adds the predictive
values, which its ``--pi-lo``/``--pi-hi`` range asks for.
``sensitivity``'s report holds the core sections and the sweep, and
writes no figure.  ``config.toggles`` in ``report.json`` records the
sections.  A verb takes only the options it reads; ``simulate-coverage``
tests one reference point, writes no file and keeps ``--out`` alone of
the output options.
``sensitivity`` takes a point per reference axis and sweeps s1 over its
own grid.  The other verbs take a point or an interval per reference
axis, not both.

``_VERBS`` is the one table of verbs.  ``main`` builds only the verb
named first on the command line, which is most of a call's fixed cost
saved; ``--help``, a missing or an unknown verb get every verb.  Either
way parsing, help and error messages are the same.

Exit codes: 0 success, 2 assumptions refuted by the data, 3 invalid
input, an unusable ``--out`` or a usage error (``--help`` exits 0).
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
    FORMATS,
    StudyConfig,
    run_analysis,
    run_sensitivity,
)

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_INVALID = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting ``EXIT_INVALID``: its own 2 means refuted here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", type=Path, help="counts file (JSON or CSV)")
    src.add_argument(
        "--dataset", choices=list_datasets(), help="bundled example dataset"
    )
    p.add_argument(
        "--assumption",
        choices=[a.value for a in DependenceAssumption],
        default="none",
        help="dependence restriction between the tests",
    )
    p.add_argument("--alpha", type=float, default=TestConfig.alpha, help="significance level")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _add_report(p: argparse.ArgumentParser, ranges: bool = True) -> None:
    """The verbs that write files: per reference axis a point or, with ``ranges``, an interval on
    ``--s-grid`` points (not both); the formats."""
    for axis, name in (("s1", "sensitivity"), ("s0", "specificity")):
        one = p.add_mutually_exclusive_group()
        one.add_argument(f"--{axis}", type=float, help=f"reference {name} (point value)")
        if ranges:
            one.add_argument(
                f"--{axis}-range", nargs=2, type=float, metavar=("LO", "HI"), help=f"reference {name} interval"
            )
    if ranges:
        p.add_argument("--s-grid", type=int, default=TestConfig.s_grid, help="grid points per reference axis")
    p.add_argument("--format", choices=FORMATS, nargs="+", default=FORMATS, help="artifact families to write")


def _add_bootstrap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--beta-preset",
        type=int,
        choices=BETA_PRESETS,
        default=DEFAULT_BETA_PRESET,
        help="first-stage level beta = alpha / PRESET",
    )
    p.add_argument("--bootstrap", type=int, default=TestConfig.bootstrap, metavar="B")
    p.add_argument("--seed", type=int, default=TestConfig.seed)


def _counts(args) -> CellCounts:
    if args.dataset:
        return load_dataset(args.dataset)
    return read_counts(args.input)


def _s_region(args) -> SRegion:
    s1s = getattr(args, "s1_range", None) or ([args.s1, args.s1] if args.s1 is not None else None)
    s0s = getattr(args, "s0_range", None) or ([args.s0, args.s0] if args.s0 is not None else None)
    if s1s is None or s0s is None:
        raise ValueError("reference performance required: --s1/--s0 or --s1-range/--s0-range")
    k = getattr(args, "s_grid", TestConfig.s_grid)
    return SRegion.rectangle(s1s[0], s1s[1], s0s[0], s0s[1], s1_points=k, s0_points=k)


def _test_config(args) -> TestConfig:
    s_grid = getattr(args, "s_grid", TestConfig.s_grid)
    if "beta_preset" not in args:  # a verb that does not bootstrap
        return TestConfig(alpha=args.alpha, s_grid=s_grid)
    return TestConfig(
        alpha=args.alpha, beta=args.alpha / args.beta_preset, bootstrap=args.bootstrap, seed=args.seed,
        theta_grid=getattr(args, "theta_grid", TestConfig.theta_grid), s_grid=s_grid,
    )


def _study_config(args) -> StudyConfig:
    # Built first, so a bad pre-test range is the error reported even when the counts are bad too.
    pretest = PretestRange(args.pi_lo, args.pi_hi) if "pi_lo" in args else None
    test_config = _test_config(args)  # checks --s-grid before the region's s_grid**2 points are built
    return StudyConfig(
        counts=_counts(args),
        s_region=_s_region(args),
        assumption=DependenceAssumption(args.assumption),
        test_config=test_config,
        prevalence_curve=getattr(args, "prevalence_curve", False),
        confidence=getattr(args, "confidence", False),
        out_dir=args.out,
        formats=tuple(args.format),
        screen_q=getattr(args, "q", None),
        pretest=pretest,
        dump_moment_cells=getattr(args, "dump_moment_cells", False),
        label=args.dataset or args.input.stem,
    )


def cmd_report(args) -> int:
    """``estimate``, ``infer``, ``prevalence`` and ``predict``: run the study and summarize it."""
    data = run_analysis(_study_config(args)).data
    prov = data["provenance"]
    print(
        f"[diagbounds] config {prov['config_hash']}  seed {prov['seed']}  "
        f"alpha {prov['alpha']}  beta {prov['beta']}"
    )
    ap = data["apparent"]
    print(
        f"apparent: sensitivity {ap['theta1']:.3f} "
        f"CI [{ap['ci_theta1'][0]:.3f}, {ap['ci_theta1'][1]:.3f}]  "
        f"specificity {ap['theta0']:.3f} "
        f"CI [{ap['ci_theta0'][0]:.3f}, {ap['ci_theta0'][1]:.3f}]"
    )
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
    if "prevalence_at_q" in data:
        rec = data["prevalence_at_q"]
        tag = " (vacuous)" if rec["sharp_vacuous"] else ""
        print(
            f"prevalence at q={rec['q']:g}: sharp [{rec['sharp'][0]:.4f}, {rec['sharp'][1]:.4f}]{tag}  "
            f"rectangular [{rec['rect'][0]:.4f}, {rec['rect'][1]:.4f}]"
        )
    if "predictive_values" in data:
        pv = data["predictive_values"]
        print(
            f"PPV [{pv['ppv'][0]:.4f}, {pv['ppv'][1]:.4f}]  "
            f"NPV [{pv['npv'][0]:.4f}, {pv['npv'][1]:.4f}] for pre-test range {pv['pi']}"
        )
    if "prevalence_curve" in data or "predictive_values" in data:
        print(f"note: {EXTRAPOLATION_NOTE}")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    bundle = run_sensitivity(_study_config(args), args.s1_lo, args.s1_hi, grid=args.grid)
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
    s_true = SRegion.singleton(args.s1, args.s0).points[0]  # a region's checks on its one point
    a = DependenceAssumption(args.assumption)
    cfg = _test_config(args)
    result = coverage_simulation(
        true_p=estimate_joint(counts),
        s_true=s_true,
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


def _add_infer(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-grid", type=int, default=TestConfig.theta_grid, help="grid points per theta axis")
    p.add_argument(
        "--dump-moment-cells",
        action="store_true",
        help="write the per-cell moment values at segment midpoints",
    )


def _add_prevalence(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, default=None, help="screened positive rate")


def _add_predict(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pi-lo", type=float, required=True, help="pre-test probability lower end")
    p.add_argument("--pi-hi", type=float, required=True, help="pre-test probability upper end")


def _add_sensitivity(p: argparse.ArgumentParser) -> None:
    _add_report(p, ranges=False)
    p.add_argument("--s1-lo", type=float, required=True)
    p.add_argument("--s1-hi", type=float, required=True)
    p.add_argument("--grid", type=int, default=None, help="sweep grid points")


def _add_coverage(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s1", type=float, required=True, help="reference sensitivity (point value)")
    p.add_argument("--s0", type=float, required=True, help="reference specificity (point value)")
    p.add_argument("--n", type=int, required=True, help="sample size per replication")
    p.add_argument("--reps", type=int, required=True, help="number of replications")


# name: (help, handler, option groups after _add_common, defaults), in the order --help lists them.
_VERBS = {
    "estimate": ("apparent measures, sharp sets and comparator", cmd_report, (_add_report,), {}),
    "infer": ("estimate plus bootstrap confidence set", cmd_report, (_add_report, _add_bootstrap, _add_infer),
              {"confidence": True}),
    "prevalence": ("screened-population prevalence bounds", cmd_report, (_add_report, _add_prevalence),
                   {"prevalence_curve": True}),
    "predict": ("predictive-value bounds", cmd_report, (_add_report, _add_predict), {}),
    "sensitivity": ("sweep the assumed reference sensitivity", cmd_sensitivity, (_add_sensitivity,), {}),
    "simulate-coverage": ("Monte-Carlo acceptance of identified-set points", cmd_simulate_coverage,
                          (_add_bootstrap, _add_coverage), {}),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of ``verb`` alone: its parse, help and errors are the same."""
    parser = _Parser(
        prog="diagbounds",
        description=(
            "Bounds and uniformly valid confidence sets for diagnostic test "
            "sensitivity/specificity measured against an imperfect reference."
        ),
    )
    # One verb's parser still names every verb in its usage line, which an unrecognized argument prints.
    every = None if verb is None else "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in _VERBS if verb is None else (verb,):
        help, func, groups, defaults = _VERBS[name]
        p = sub.add_parser(name, help=help)
        for add_group in (_add_common, *groups):
            add_group(p)
        p.set_defaults(func=func, **defaults)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known verb first builds only its own parser; anything else (--help, no verb) needs them all.
    args = build_parser(argv[0] if argv and argv[0] in _VERBS else None).parse_args(argv)
    try:
        return args.func(args)
    except RefutationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (ValueError, KeyError, OSError, OverflowError) as exc:  # OverflowError: an int numpy cannot hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
