"""Study orchestration: estimation, inference, derived bounds, reporting.

``run_analysis`` executes the configured pipeline on one 2x2 dataset and
writes a JSON report plus CSV tables and SVG figures; ``run_sensitivity``
sweeps the assumed reference sensitivity over an interval and tabulates
how the projections move.  Reports are deterministic: every number is
traceable to a library call, randomness is pinned by the seed, and the
provenance block carries a hash of the configuration that produced it.

Both write through ``_write``: each lists the files its report has as
(name, text maker) pairs, and ``_write`` writes a file when its suffix is
one of the requested ``FORMATS``, making its text only then.  Every JSON
file is ``json.dumps(obj, sort_keys=True, indent=1)``'s text, written by
``_json_text`` directly rather than by ``json``'s pure-Python indenting
encoder.  At any depth a list of floats, or of equal-length float rows,
is written in one pass from ``repr``, which is what makes
``confidence_set.json`` fast to write.  A matrix of ``_DISTINCT_ROWS``
rows or more spells each distinct value once
(``probability._distinct_texts``, which tells values apart by their
bits, so 0.0 and -0.0 keep their own texts) and fills the rows' template
with those texts; ``ConfidenceSet.to_csv_rows`` and the scatter figure
spell their coordinates the same way.  ``confidence_set.json`` is
written from the set's arrays (``_confidence_set_json``): its points,
whose coordinates take a few hundred values, fill the template straight
from the array, and its one theta axis is spelt once for both axis keys.  A list of records (dicts that
share one set of ``str`` keys, such as a report's segments, validation
records and prevalence curve) is written from one row template: each key
becomes a column, a column of floats, bools, ints, strings or Nones is
spelt in one pass, a column of equal-length lists of them is split into
one column per position, and one ``%`` fills every row.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .derived import (
    PretestRange,
    predictive_value_bounds,
    prevalence_width_curve,
)
from .exactci import clopper_pearson
from .identification import (
    DependenceAssumption,
    IdentifiedSet,
    frechet_columns,
    sharp_union,
)
from .inference import _QUANTILE_METHOD, TestConfig, check_grid_size, confidence_set
from .moments import ThetaPoint, build_moment_system
from .probability import (
    CellCounts,
    ReferenceColumns,
    SRegion,
    _column,
    _distinct_texts,
    _violated,
    apparent_measures,
    default_cell_floor,
    estimate_joint,
    reference_columns,
)
from .svgfig import identified_set_figure, width_curve_figure

__all__ = ["FORMATS", "StudyConfig", "ReportBundle", "run_analysis", "run_sensitivity"]

# The artifact families ``--format`` chooses from; a file's suffix names its family.
FORMATS = ("json", "csv", "svg")

EXTRAPOLATION_NOTE = (
    "Derived bounds extrapolate study-population performance to the target "
    "population; use them only where the test can credibly be expected to "
    "perform similarly in both."
)


@dataclass(frozen=True)
class StudyConfig:
    """One study and the sections of its report.

    Every report holds the apparent measures with exact CIs, the sharp
    identified set with its projections and the marginals-only comparator
    (when a reference point is usable), and with ``out_dir`` writes their
    tables and figures.  ``prevalence_curve`` adds the prevalence-width
    curve (and its record at ``screen_q``, when given), a ``pretest`` range
    the predictive values, and ``confidence`` the bootstrap confidence set.
    ``config_dict()["toggles"]``, written as ``config.toggles`` in
    ``report.json``, records these sections; ``run_sensitivity``'s report
    records ``figures`` false, since it writes none.
    """

    counts: CellCounts
    s_region: SRegion
    assumption: DependenceAssumption = DependenceAssumption.NO_RESTRICTION
    test_config: TestConfig = field(default_factory=TestConfig)
    prevalence_curve: bool = False
    confidence: bool = False
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
            "toggles": {  # the report's sections, under the keys every release has written
                "apparent": True, "sharp": True, "frechet": True, "prevalence_curve": self.prevalence_curve,
                "predictive_values": self.pretest is not None, "confidence": self.confidence,
                "sensitivity": False, "figures": True,
            },
        }


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _json_text(obj) -> str:
    """The one JSON layout of every written file: ``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``.

    Written here directly rather than by ``json``'s pure-Python indenting
    encoder, value by value in the order and spelling ``json`` uses; what
    ``json`` refuses raises ``TypeError``.
    """
    return _text(obj, "\n") + "\n"


def _text(v, nl: str) -> str:
    """``v`` as ``json.dumps(sort_keys=True, indent=1)`` writes it where a new line starts with ``nl``.

    The checks follow ``json``'s order, so subclasses (a ``bool`` is an
    ``int``, an ``np.float64`` a ``float``) are spelt as ``json`` spells them.
    """
    if type(v) is _Spelt:
        return v
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or v is True or v is False:
        return _CONSTANT_WORDS[v]
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float_text(v)
    inner = nl + " "
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return (
            _floats_block(v, nl)
            or _records_block(v, nl)
            or "[" + inner + ("," + inner).join([_text(x, inner) for x in v]) + nl + "]"
        )
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [f"{_key_text(k)}: {_text(v[k], inner)}" for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


_float_repr = float.__repr__
_FLOAT_WORDS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_CONSTANT_WORDS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    """A float's JSON text."""
    return _FLOAT_WORDS.get(r := _float_repr(x), r)


def _key_text(k) -> str:
    """A dict key as ``json`` writes it: a string, or a scalar's JSON text quoted."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):  # a bool is an int
        return encode_basestring_ascii(_text(k, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _floats_block(v: list | tuple, nl: str) -> str | None:
    """A non-empty list of floats, or of equal-length non-empty float rows, written in one pass; else None.

    The list is joined from ``repr``; the rows fill one ``%s`` template,
    which writes a float as its ``repr``.  A finite ``repr`` holds no
    ``inf`` or ``nan``, so the two replaces touch only the non-finite ones.
    A matrix of ``_DISTINCT_ROWS`` rows or more fills the template with
    the JSON text of each distinct value, spelt once.
    """
    inner = nl + " "
    kinds = set(map(type, v))
    if kinds == {float}:
        text = "[" + inner + ("," + inner).join(map(_float_repr, v)) + nl + "]"
    elif kinds == {list} and len(set(map(len, v))) == 1 and v[0]:
        floats = tuple(chain.from_iterable(v))
        if set(map(type, floats)) != {float}:
            return None
        template = _rows_template(len(v), len(v[0]), nl)
        if len(v) >= _DISTINCT_ROWS:
            return template % tuple(_distinct_texts(np.array(floats), _float_text))
        text = template % floats
    else:
        return None
    return text.replace("inf", "Infinity").replace("nan", "NaN")


# Matrices of fewer rows are written from the values themselves: spelling
# each distinct value once costs more below it.  On n x 2 matrices drawn
# from a 316-point axis the two ways cost the same near 110 rows, and the
# distinct values took 0.81 and 0.33 times as long at 200 and 1,323 rows; on
# values that never repeat they took 1.15-1.2 times as long at every size
# (timeit, 2-core VM).
_DISTINCT_ROWS = 128


def _rows_template(rows: int, cols: int, nl: str) -> str:
    """The text of a ``rows`` x ``cols`` matrix with a ``%s`` for each value."""
    inner = nl + " "
    row = "[" + inner + " " + ("," + inner + " ").join(["%s"] * cols) + inner + "]"
    return "[" + inner + ("," + inner).join([row] * rows) + nl + "]"


class _Spelt(str):
    """A value's JSON text, spelt ahead for the depth it is placed at; ``_text`` writes it as it stands."""


def _array_text(a: np.ndarray, nl: str) -> str:
    """A float array's text, as ``_text`` writes the list it holds.

    A non-empty matrix, such as a confidence set's points, fills its rows'
    template with the JSON text of each distinct value, spelt once, and
    makes no list.
    """
    if a.ndim != 2 or a.size == 0:
        return _text(a.tolist(), nl)
    return _rows_template(*a.shape, nl) % tuple(_distinct_texts(a.ravel(), _float_text))


def _confidence_set_json(cs) -> str:
    """``_json_text(cs.to_dict())``, each array written from itself and spelt once.

    The one theta axis under both axis keys is one array, so one text.
    """
    record = cs.to_dict(lists=False)
    spelt: dict[int, _Spelt] = {}
    for key, value in record.items():
        if isinstance(value, np.ndarray):
            if id(value) not in spelt:
                spelt[id(value)] = _Spelt(_array_text(value, "\n "))  # a top-level value's depth
            record[key] = spelt[id(value)]
    return _json_text(record)


# Fewer records than this are written one by one: the template and its
# column checks cost about as much as two records of eight floats written
# value by value.
_TEMPLATE_ROWS = 3


def _records_block(v: list | tuple, nl: str) -> str | None:
    """``_TEMPLATE_ROWS`` or more dicts with one set of ``str`` keys, written from one row template; else None.

    Every row has the same keys, so the template is built once, its keys'
    ``%`` doubled, and filled with the column texts of ``_json_column`` in one
    ``%``.  A column ``_json_column`` cannot spell is written value by value.
    """
    first = v[0]
    if len(v) < _TEMPLATE_ROWS or type(first) is not dict or not first or set(map(type, v)) != {dict}:
        return None
    keys = first.keys()
    if any(type(k) is not str for k in keys) or any(d.keys() != keys for d in v):
        return None
    inner = nl + " "
    deep = inner + " "
    parts, columns = [], []
    for key in sorted(keys):
        column = [d[key] for d in v]
        part = "%s"
        if (texts := _json_column(column)) is not None:
            columns.append(texts)
        elif (
            set(map(type, column)) == {list}
            and len(set(map(len, column))) == 1
            and None not in (positions := [_json_column(c) for c in zip(*column)])
        ):  # lists of one length: a column per position
            cells = ("," + deep + " ").join(["%s"] * len(positions))
            part = "[" + deep + " " + cells + deep + "]" if positions else "[]"
            columns += positions
        else:
            columns.append([_text(x, deep) for x in column])
        parts.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + part)
    row = "{" + deep + ("," + deep).join(parts) + inner + "}"
    return ("[" + inner + ("," + inner).join([row] * len(v)) + nl + "]") % tuple(chain.from_iterable(zip(*columns)))


def _json_column(values: list) -> list | None:
    """Objects whose ``%s`` is each value's JSON text, when every value is a float, or a bool, an int, a str, a None.

    A float's ``%s`` is its ``repr``, as is an int's; the others are
    spelt here.  An infinity or a NaN makes a column's sum non-finite, so
    a column with a finite sum needs no ``json`` words for them; any other
    float column is spelt value by value.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    if kind is float:
        if math.isfinite(sum(values)):
            return values
        return list(map(_float_text, values))
    if kind is int:
        return values
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is bool or kind is type(None):
        return [_CONSTANT_WORDS[x] for x in values]
    return None


def _interval_pair(iv) -> list[float]:
    return [iv.lo, iv.hi]


def _prevalence_records(curve) -> list[dict]:
    """The rates of a ``prevalence_width_curve`` as the report writes them, one record per rate."""
    vacuous = {"sharp_vacuous": curve.sharp_vacuous, "rect_vacuous": curve.rect_vacuous}
    rows = zip(curve.q.tolist(), curve.sharp.tolist(), curve.rect.tolist())
    return [{"q": q, "sharp": sharp, "rect": rect, **vacuous} for q, sharp, rect in rows]


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
        ap, proj, fre = self.data["apparent"], self.data["projections"], self.data.get("frechet")
        for par in ("theta1", "theta0"):
            rows.append(f"{par},apparent,{ap[par]:.6f},")
            lo, hi = ap[f"ci_{par}"]
            rows.append(f"{par},apparent_exact_ci,{lo:.6f},{hi:.6f}")
            lo, hi = proj[par]
            rows.append(f"{par},projection,{lo:.6f},{hi:.6f}")
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


def _validation_records(ref: ReferenceColumns, cell_floor_ok: bool) -> list[dict]:
    """One record per reference point, read from the columns of the validation rule."""
    flags = zip(ref.points, *map(_column, (ref.informative, ref.index_ok, ref.reference_ok, ref.boundary)))
    return [
        {
            "s1": s.s1,
            "s0": s.s0,
            "passed": index_ok,
            "index_rate_in_range": index_ok,
            "reference_rate_in_range": reference_ok,
            "boundary_tie": boundary,
            "cell_floor_ok": cell_floor_ok,
            "violated": _violated(informative, index_ok, reference_ok),
        }
        for s, informative, index_ok, reference_ok, boundary in flags
    ]


def _frechet_box(ref: ReferenceColumns) -> dict | None:
    """The hull of the marginals-only boxes of the usable points, None when there are none."""
    usable = _column(ref.usable)
    if not any(usable):
        return None
    lo1, hi1, lo0, hi0 = ([x for x, ok in zip(_column(c), usable) if ok] for c in frechet_columns(ref))
    return {"theta1": [min(lo1), max(hi1)], "theta0": [min(lo0), max(hi0)]}


def _extremal_theta0(identified: IdentifiedSet) -> list[float]:
    """theta0 range of the segments attaining the extreme theta1 values (the first of ties)."""
    lo, hi = identified.segments[:, 0], identified.segments[:, 1]
    return [lo[lo[:, 0].argmin(), 1].item(), hi[hi[:, 0].argmax(), 1].item()]


def run_analysis(cfg: StudyConfig) -> ReportBundle:
    """Execute the configured pipeline and assemble (and write) the report."""
    if cfg.confidence:
        check_grid_size(cfg.test_config, len(cfg.s_region))
    counts = cfg.counts
    p = estimate_joint(counts)
    ref = reference_columns(p, cfg.s_region.points)
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
        "validation": _validation_records(ref, p.satisfies_cell_floor(default_cell_floor(counts.n))),
        "notes": [EXTRAPOLATION_NOTE],
    }

    t1t, t0t = apparent_measures(p)
    ci1 = clopper_pearson(counts.n11, counts.n11 + counts.n01, cfg.test_config.alpha)
    ci0 = clopper_pearson(counts.n00, counts.n00 + counts.n10, cfg.test_config.alpha)
    data["apparent"] = {
        "theta1": t1t,
        "theta0": t0t,
        "ci_theta1": _interval_pair(ci1),
        "ci_theta0": _interval_pair(ci0),
    }

    identified = sharp_union(p, cfg.s_region, cfg.assumption)
    proj1, proj0 = identified.projections
    data["identified_set"] = identified.to_dict()
    data["projections"] = {
        "theta1": _interval_pair(proj1),
        "theta0": _interval_pair(proj0),
    }
    data["false_negative_rate"] = [1.0 - proj1.hi, 1.0 - proj1.lo]
    data["false_positive_rate"] = [1.0 - proj0.hi, 1.0 - proj0.lo]

    if (box := _frechet_box(ref)) is not None:
        data["frechet"] = box

    if cfg.prevalence_curve:
        data["prevalence_curve"] = _prevalence_records(prevalence_width_curve(identified))
        if cfg.screen_q is not None:
            data["prevalence_at_q"] = _prevalence_records(prevalence_width_curve(identified, [cfg.screen_q]))[0]

    if cfg.pretest is not None:
        ppv, npv = predictive_value_bounds(identified, cfg.pretest)
        data["predictive_values"] = {
            "pi": [cfg.pretest.pi_lo, cfg.pretest.pi_hi],
            "ppv": _interval_pair(ppv),
            "npv": _interval_pair(npv),
        }

    cs = None
    if cfg.confidence:
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


# Largest sweep grid run_sensitivity accepts (README, "Caps").
MAX_SWEEP_GRID = 100_000


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
    if k > MAX_SWEEP_GRID:
        raise ValueError(f"the sweep grid must have at most {MAX_SWEEP_GRID} points, got {k}")
    p = estimate_joint(cfg.counts)

    variants = []
    for label, region in (
        (f"s1={s1_hi:g}", SRegion.singleton(s1_hi, s0)),
        (f"s1 in [{s1_lo:g},{s1_hi:g}]", SRegion.rectangle(s1_lo, s1_hi, s0, s0, s1_points=k)),
    ):
        ident = sharp_union(p, region, cfg.assumption)
        proj1, proj0 = ident.projections
        variants.append(
            {
                "label": label,
                "s_points": [[s.s1, s.s0] for s in region.points],
                "theta1_projection": _interval_pair(proj1),
                "theta0_projection": _interval_pair(proj0),
                "theta0_extremal_segments": _extremal_theta0(ident),
            }
        )

    base = run_analysis(
        replace(cfg, prevalence_curve=False, confidence=False, out_dir=None, screen_q=None, pretest=None)
    )
    data = dict(base.data)
    ap = data["apparent"]
    data["sensitivity"] = {
        "s0": s0,
        "s1_range": [s1_lo, s1_hi],
        "grid": k,
        "apparent": {"theta1": ap["theta1"], "theta0": ap["theta0"]},
        "variants": variants,
    }
    data["config"] = {
        **data["config"],
        "toggles": {**data["config"]["toggles"], "figures": False},
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
    files = [("report.json", bundle.to_json), ("estimates.csv", bundle.estimates_table),
             ("identified_set.csv", lambda: "\n".join(identified.to_csv_rows()) + "\n")]
    if cfg.dump_moment_cells:
        files.append(("moment_cells.csv", lambda: _moment_cells_csv(cfg, identified)))
    if "prevalence_curve" in data:
        files.append(("prevalence_curve.csv", bundle.prevalence_curve_table))
    if cs is not None:
        files += [
            ("confidence_set.csv", lambda: "\n".join(cs.to_csv_rows()) + "\n"),
            ("confidence_set.json", lambda: _confidence_set_json(cs)),
        ]
    ap, fr = data["apparent"], data.get("frechet")
    marks = {
        "apparent": (ap["theta1"], ap["theta0"]),
        "apparent_box": (*ap["ci_theta1"], *ap["ci_theta0"]),
    }
    box = None if fr is None else (*fr["theta1"], *fr["theta0"])
    files.append(("fig_identified_set.svg", lambda: identified_set_figure(
        identified.segments, comparator_box=box, title=f"{cfg.label}: estimated set", **marks
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
    for s, (t1, t0) in zip(identified.s_points, identified.point_at(0.5).tolist()):
        system = build_moment_system(ThetaPoint(t1, t0, s), cfg.assumption)
        for cname, row in zip(cells, system.cell_values):
            for j, value in enumerate(row, 1):
                rows.append(f"{s.s1:.10g},{s.s0:.10g},{cname},{j},{value:.12g}")
    return "\n".join(rows) + "\n"
