"""Study orchestration: estimation, inference, derived bounds, reporting.

``run_analysis`` executes the configured pipeline on one 2x2 dataset and
writes a JSON report plus CSV tables and SVG figures; ``run_sensitivity``
sweeps the assumed reference sensitivity over an interval and tabulates
how the projections move.  Reports are deterministic: every number is
traceable to a library call, randomness is pinned by the seed, and the
provenance block carries a hash of the configuration that produced it.

Both write through ``_write``: each lists the files its report has as
(name, text maker) pairs, and ``_write`` writes a file when its suffix is
one of the requested ``FORMATS``, making its text only then.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .derived import (
    PretestRange,
    predictive_value_bounds,
    prevalence_bounds_rect_union,
    prevalence_bounds_union,
    prevalence_width_curve,
)
from .exactci import clopper_pearson
from .identification import (
    DependenceAssumption,
    IdentifiedSet,
    frechet_comparator,
    project,
    sharp_union,
)
from .inference import _QUANTILE_METHOD, TestConfig, confidence_set
from .moments import ThetaPoint, build_moment_system
from .probability import (
    CellCounts,
    RefutationError,
    SRegion,
    apparent_measures,
    default_cell_floor,
    estimate_joint,
    validate_assumptions,
)
from .svgfig import identified_set_figure, width_curve_figure

__all__ = ["FORMATS", "ReportToggles", "StudyConfig", "ReportBundle", "run_analysis", "run_sensitivity"]

# The artifact families ``--format`` chooses from; a file's suffix names its family.
FORMATS = ("json", "csv", "svg")

EXTRAPOLATION_NOTE = (
    "Derived bounds extrapolate study-population performance to the target "
    "population; use them only where the test can credibly be expected to "
    "perform similarly in both."
)


@dataclass(frozen=True)
class ReportToggles:
    apparent: bool = True
    sharp: bool = True
    frechet: bool = True
    prevalence_curve: bool = False
    predictive_values: bool = False
    confidence: bool = False
    sensitivity: bool = False
    figures: bool = True


@dataclass(frozen=True)
class StudyConfig:
    counts: CellCounts
    s_region: SRegion
    assumption: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
    test_config: TestConfig = field(default_factory=TestConfig)
    toggles: ReportToggles = field(default_factory=ReportToggles)
    out_dir: Path | None = None
    formats: tuple[str, ...] = FORMATS
    screen_q: float | None = None
    pretest: PretestRange | None = None
    dump_moment_cells: bool = False
    label: str = "study"

    def config_dict(self) -> dict:
        tc = self.test_config
        return {
            "label": self.label,
            "counts": asdict(self.counts),
            "s_points": [[s.s1, s.s0] for s in self.s_region.points],
            "assumption": self.assumption.value,
            "alpha": tc.alpha,
            "beta": tc.beta_value,
            "bootstrap": tc.bootstrap,
            "seed": tc.seed,
            "theta_grid": tc.theta_grid,
            "s_grid": tc.s_grid,
            "screen_q": self.screen_q,
            "pretest": None if self.pretest is None else [self.pretest.pi_lo, self.pretest.pi_hi],
            "toggles": asdict(self.toggles),
        }


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _json_text(obj) -> str:
    """The one JSON layout of every written file: sorted keys, indent 1, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _interval_pair(iv) -> list[float]:
    return [iv.lo, iv.hi]


@dataclass(frozen=True)
class ReportBundle:
    """Deterministic report content with stable serialization.

    Two bundles with the same data produce byte-identical JSON and tables;
    re-ingesting the JSON reproduces the bundle exactly.
    """

    data: dict

    def to_json(self) -> str:
        return _json_text(self.data)

    @classmethod
    def from_json(cls, text: str) -> "ReportBundle":
        return cls(data=json.loads(text))

    @property
    def config_hash(self) -> str:
        return self.data["provenance"]["config_hash"]

    def estimates_table(self) -> str:
        """CSV of apparent estimates, sharp projections and the comparator."""
        rows = ["parameter,method,estimate_or_lo,hi"]
        for par in ("theta1", "theta0"):
            ap = self.data.get("apparent")
            if ap is not None:
                rows.append(f"{par},apparent,{ap[par]:.6f},")
                lo, hi = ap[f"ci_{par}"]
                rows.append(f"{par},apparent_exact_ci,{lo:.6f},{hi:.6f}")
            proj = self.data.get("projections")
            if proj is not None:
                lo, hi = proj[par]
                rows.append(f"{par},projection,{lo:.6f},{hi:.6f}")
            fre = self.data.get("frechet")
            if fre is not None:
                lo, hi = fre[par]
                rows.append(f"{par},marginal_frechet,{lo:.6f},{hi:.6f}")
        return "\n".join(rows) + "\n"

    def prevalence_curve_table(self) -> str:
        rows = ["q,sharp_lo,sharp_hi,sharp_width,rect_lo,rect_hi,rect_width,sharp_vacuous,rect_vacuous"]
        for rec in self.data.get("prevalence_curve", []):
            rows.append(
                f"{rec['q']:.6f},{rec['sharp'][0]:.9f},{rec['sharp'][1]:.9f},"
                f"{rec['sharp'][1] - rec['sharp'][0]:.9f},"
                f"{rec['rect'][0]:.9f},{rec['rect'][1]:.9f},"
                f"{rec['rect'][1] - rec['rect'][0]:.9f},"
                f"{int(rec['sharp_vacuous'])},{int(rec['rect_vacuous'])}"
            )
        return "\n".join(rows) + "\n"

    def sensitivity_table(self) -> str:
        rows = ["variant,theta1_lo,theta1_hi,theta0_lo,theta0_hi"]
        for var in self.data.get("sensitivity", {}).get("variants", []):
            t1 = var["theta1_projection"]
            t0 = var["theta0_extremal_segments"]
            rows.append(
                f"{var['label']},{t1[0]:.6f},{t1[1]:.6f},{t0[0]:.6f},{t0[1]:.6f}"
            )
        return "\n".join(rows) + "\n"


def _validation_records(counts: CellCounts, s_region: SRegion) -> list[dict]:
    p = estimate_joint(counts)
    eps = default_cell_floor(counts.n)
    out = []
    for s in s_region.points:
        rep = validate_assumptions(p, s, eps=eps)
        out.append(
            {
                "s1": s.s1,
                "s0": s.s0,
                "passed": rep.passed,
                "index_rate_in_range": rep.index_rate_in_range,
                "reference_rate_in_range": rep.reference_rate_in_range,
                "boundary_tie": rep.boundary_tie,
                "cell_floor_ok": rep.cell_floor_ok,
                "violated": list(rep.violated_assumptions()),
            }
        )
    return out


def _extremal_theta0(identified: IdentifiedSet) -> list[float]:
    """theta0 range of the segments attaining the extreme theta1 values."""
    seg_lo = min(identified.segments, key=lambda g: g.lo[0])
    seg_hi = max(identified.segments, key=lambda g: g.hi[0])
    return [seg_lo.lo[1], seg_hi.hi[1]]


def run_analysis(cfg: StudyConfig) -> ReportBundle:
    """Execute the configured pipeline and assemble (and write) the report."""
    counts = cfg.counts
    p = estimate_joint(counts)
    config = cfg.config_dict()
    data: dict = {
        "provenance": {
            "package": "diagbounds",
            "version": __version__,
            "numpy": np.__version__,
            "config_hash": _config_hash(config),
            "seed": cfg.test_config.seed,
            "alpha": cfg.test_config.alpha,
            "beta": cfg.test_config.beta_value,
            "quantile_method": _QUANTILE_METHOD,
        },
        "config": config,
        "n": counts.n,
        "validation": _validation_records(counts, cfg.s_region),
        "notes": [EXTRAPOLATION_NOTE],
    }

    if cfg.toggles.apparent:
        t1t, t0t = apparent_measures(p)
        ci1 = clopper_pearson(counts.n11, counts.n11 + counts.n01, cfg.test_config.alpha)
        ci0 = clopper_pearson(counts.n00, counts.n00 + counts.n10, cfg.test_config.alpha)
        data["apparent"] = {
            "theta1": t1t,
            "theta0": t0t,
            "ci_theta1": _interval_pair(ci1),
            "ci_theta0": _interval_pair(ci0),
        }

    identified = None
    if cfg.toggles.sharp:
        identified = sharp_union(p, cfg.s_region, cfg.assumption)
        proj1, proj0 = project(identified, 1), project(identified, 0)
        data["identified_set"] = identified.to_dict()
        data["projections"] = {
            "theta1": _interval_pair(proj1),
            "theta0": _interval_pair(proj0),
        }
        data["false_negative_rate"] = [1.0 - proj1.hi, 1.0 - proj1.lo]
        data["false_positive_rate"] = [1.0 - proj0.hi, 1.0 - proj0.lo]

    if cfg.toggles.frechet:
        f1, f0 = [], []
        for s in cfg.s_region.points:
            try:
                f1.append(frechet_comparator(p, s, 1))
                f0.append(frechet_comparator(p, s, 0))
            except RefutationError:
                continue
        if f1:
            data["frechet"] = {
                "theta1": [min(i.lo for i in f1), max(i.hi for i in f1)],
                "theta0": [min(i.lo for i in f0), max(i.hi for i in f0)],
            }

    if cfg.toggles.prevalence_curve and identified is not None:
        curve = prevalence_width_curve(identified)
        data["prevalence_curve"] = [
            {
                "q": q,
                "sharp": _interval_pair(sb.interval),
                "rect": _interval_pair(rb.interval),
                "sharp_vacuous": sb.vacuous,
                "rect_vacuous": rb.vacuous,
            }
            for q, sb, rb in curve
        ]
        if cfg.screen_q is not None:
            sb = prevalence_bounds_union(identified, cfg.screen_q)
            rb = prevalence_bounds_rect_union(identified, cfg.screen_q)
            data["prevalence_at_q"] = {
                "q": cfg.screen_q,
                "sharp": _interval_pair(sb.interval),
                "sharp_vacuous": sb.vacuous,
                "rect": _interval_pair(rb.interval),
                "rect_vacuous": rb.vacuous,
            }

    if cfg.toggles.predictive_values and identified is not None and cfg.pretest is not None:
        ppv, npv = predictive_value_bounds(identified, cfg.pretest)
        data["predictive_values"] = {
            "pi": [cfg.pretest.pi_lo, cfg.pretest.pi_hi],
            "ppv": _interval_pair(ppv),
            "npv": _interval_pair(npv),
        }

    cs = None
    if cfg.toggles.confidence:
        cs = confidence_set(counts, cfg.s_region, cfg.assumption, cfg.test_config)
        proj = cs.projections
        data["confidence_set"] = {
            "n_tested": cs.n_tested,
            "n_retained": len(cs),
            "theta1_projection": None if proj is None else _interval_pair(proj[0]),
            "theta0_projection": None if proj is None else _interval_pair(proj[1]),
        }

    bundle = ReportBundle(data=data)
    if cfg.out_dir is not None:
        _write(cfg.out_dir, cfg.formats, _analysis_files(cfg, bundle, identified, cs))
    return bundle


def run_sensitivity(
    cfg: StudyConfig,
    s1_lo: float,
    s1_hi: float,
    grid: int | None = None,
) -> ReportBundle:
    """Sweep the assumed reference sensitivity over [s1_lo, s1_hi].

    Emits the baseline run at s1 = s1_hi alongside the interval variant,
    whose ``grid`` points (at least 2; by default the test config's
    ``s_grid``) span the interval.  For each variant the report carries
    the exact theta1 projection, the exact theta0 projection, and the
    theta0 range of the segments attaining the extreme theta1 values (the
    conventional way these sweeps are tabulated).
    """
    if len({s.s0 for s in cfg.s_region.points}) != 1:
        raise ValueError("sensitivity sweep requires a common reference specificity")
    s0 = cfg.s_region.points[0].s0
    k = grid if grid is not None else cfg.test_config.s_grid
    if k < 2:
        raise ValueError(f"the sweep grid needs at least 2 points, got {k}")
    p = estimate_joint(cfg.counts)

    variants = []
    for label, region in (
        (f"s1={s1_hi:g}", SRegion.singleton(s1_hi, s0)),
        (f"s1 in [{s1_lo:g},{s1_hi:g}]", SRegion.rectangle(s1_lo, s1_hi, s0, s0, s1_points=k)),
    ):
        ident = sharp_union(p, region, cfg.assumption)
        variants.append(
            {
                "label": label,
                "s_points": [[s.s1, s.s0] for s in region.points],
                "theta1_projection": _interval_pair(project(ident, 1)),
                "theta0_projection": _interval_pair(project(ident, 0)),
                "theta0_extremal_segments": _extremal_theta0(ident),
            }
        )

    base = run_analysis(
        StudyConfig(
            counts=cfg.counts,
            s_region=cfg.s_region,
            assumption=cfg.assumption,
            test_config=cfg.test_config,
            toggles=ReportToggles(figures=False),
            out_dir=None,
            label=cfg.label,
        )
    )
    data = dict(base.data)
    t1t, t0t = apparent_measures(p)
    data["sensitivity"] = {
        "s0": s0,
        "s1_range": [s1_lo, s1_hi],
        "grid": k,
        "apparent": {"theta1": t1t, "theta0": t0t},
        "variants": variants,
    }
    data["config"] = {
        **data["config"],
        "sensitivity_sweep": {"s1_lo": s1_lo, "s1_hi": s1_hi, "grid": k},
    }
    data["provenance"] = {
        **data["provenance"],
        "config_hash": _config_hash(data["config"]),
    }
    bundle = ReportBundle(data=data)
    if cfg.out_dir is not None:
        files = [("sensitivity.json", bundle.to_json), ("sensitivity.csv", bundle.sensitivity_table)]
        _write(cfg.out_dir, cfg.formats, files)
    return bundle


def _write(out_dir, formats, files) -> None:
    """Make ``out_dir``; write each (name, text maker) whose suffix is in ``formats``, making only its text."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        if name.rpartition(".")[2] in formats:
            (out / name).write_text(text())


def _analysis_files(cfg, bundle, identified, cs) -> list:
    """The (name, text maker) pairs ``run_analysis`` hands to ``_write``."""
    data = bundle.data
    files = [("report.json", bundle.to_json), ("estimates.csv", bundle.estimates_table)]
    if identified is not None:
        files.append(("identified_set.csv", lambda: "\n".join(identified.to_csv_rows()) + "\n"))
        if cfg.dump_moment_cells:
            files.append(("moment_cells.csv", lambda: _moment_cells_csv(cfg, identified)))
    if "prevalence_curve" in data:
        files.append(("prevalence_curve.csv", bundle.prevalence_curve_table))
    if cs is not None:
        files += [
            ("confidence_set.csv", lambda: "\n".join(cs.to_csv_rows()) + "\n"),
            ("confidence_set.json", lambda: _json_text(cs.to_dict())),
        ]
    if not cfg.toggles.figures or identified is None:
        return files
    ap, fr = data.get("apparent"), data.get("frechet")
    marks = {} if ap is None else {
        "apparent": (ap["theta1"], ap["theta0"]),
        "apparent_box": (*ap["ci_theta1"], *ap["ci_theta0"]),
    }
    boxes = None if fr is None else [(*fr["theta1"], *fr["theta0"])]
    files.append(("fig_identified_set.svg", lambda: identified_set_figure(
        identified.segments, comparator_boxes=boxes, title=f"{cfg.label}: estimated set", **marks
    )))
    if cs is not None and len(cs):
        files.append(("fig_confidence_set.svg", lambda: identified_set_figure(
            identified.segments, scatter=cs.points[:, :2], title=f"{cfg.label}: confidence set", **marks
        )))
    if "prevalence_curve" in data:
        recs = data["prevalence_curve"]
        files.append(("fig_prevalence_width.svg", lambda: width_curve_figure(
            [r["q"] for r in recs],
            [r["sharp"][1] - r["sharp"][0] for r in recs],
            [r["rect"][1] - r["rect"][0] for r in recs],
            title=f"{cfg.label}: prevalence bound width",
        )))
    return files


def _moment_cells_csv(cfg: StudyConfig, identified: IdentifiedSet) -> str:
    """Debug dump of the moment cell values at each segment midpoint."""
    rows = ["s1,s0,cell,j,value"]
    cells = ("t1r1", "t0r1", "t1r0", "t0r0")
    for seg in identified.segments:
        mid = seg.point_at(0.5)
        system = build_moment_system(ThetaPoint(mid[0], mid[1], seg.s), cfg.assumption)
        for ci, cname in enumerate(cells):
            for j in range(system.k):
                rows.append(
                    f"{seg.s.s1:.10g},{seg.s.s0:.10g},{cname},{j + 1},"
                    f"{system.cell_values[ci, j]:.12g}"
                )
    return "\n".join(rows) + "\n"
