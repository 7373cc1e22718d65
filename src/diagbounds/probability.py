"""Observable probability objects for a two-test binary study.

A performance study records, for each participant, the pair of binary
results (t, r) of the index test ``t`` and the reference test ``r``.  This
module holds the raw 2x2 counts, the plug-in joint distribution of (t, r),
the assumed operating characteristics of the reference test, and the
quantities that can be derived from them once reference performance is
fixed: the implied prevalence and the joint distribution of (r, y) where
``y`` is the latent health status.

The validation and prevalence rules are written once: ``reference_columns``
evaluates them at every point of a region at once, as numpy arrays, and
``validate_assumptions``, ``derived_prevalence`` and ``derived_joint_ry``
read its columns at a single point.  A single point is evaluated in
Python floats by the same code (``_where`` picks a branch where it would
select elementwise), because numpy's cost per call would exceed the
whole rule's arithmetic there.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "CellCounts",
    "JointTR",
    "RefPerf",
    "SRegion",
    "DerivedRY",
    "ValidationReport",
    "RefutationError",
    "estimate_joint",
    "validate_assumptions",
    "derived_prevalence",
    "derived_joint_ry",
    "apparent_measures",
]

# Tolerance for algebraic identities on probabilities (sum-to-one etc.).
PROB_TOL = 1e-12

# Derived prevalence closer than this to 0 or 1 is treated as degenerate.
PREVALENCE_GUARD = 1e-9


class RefutationError(ValueError):
    """Raised when an operation requires assumptions the data refute."""


@dataclass(frozen=True)
class CellCounts:
    """Raw study counts of outcomes (t, r) = (1,1), (0,1), (1,0), (0,0)."""

    n11: int
    n01: int
    n10: int
    n00: int

    def __post_init__(self) -> None:
        for name in ("n11", "n01", "n10", "n00"):
            v = getattr(self, name)
            if not isinstance(v, (int,)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
        if self.n > 2**53:
            raise ValueError(f"total count {self.n} exceeds 2**53, beyond exact float arithmetic")

    @property
    def n(self) -> int:
        return self.n11 + self.n01 + self.n10 + self.n00

    @property
    def cells(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n01, self.n10, self.n00)


@dataclass(frozen=True)
class JointTR:
    """Joint distribution P(t, r) over the four binary outcomes."""

    p11: float
    p01: float
    p10: float
    p00: float

    def __post_init__(self) -> None:
        for name in ("p11", "p01", "p10", "p00"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if abs(sum(self.cells) - 1.0) > PROB_TOL:
            raise ValueError(f"cell probabilities must sum to 1, got {sum(self.cells)!r}")

    @property
    def cells(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p01, self.p10, self.p00)

    @property
    def p_t1(self) -> float:
        """Marginal positive rate of the index test."""
        return self.p11 + self.p10

    @property
    def p_r1(self) -> float:
        """Marginal positive rate of the reference test."""
        return self.p11 + self.p01

    @property
    def min_cell(self) -> float:
        return min(self.cells)

    def satisfies_cell_floor(self, eps: float) -> bool:
        """Family-membership check: every cell carries mass at least ``eps``."""
        if eps <= 0:
            raise ValueError(f"cell floor must be positive, got {eps}")
        return self.min_cell >= eps


@dataclass(frozen=True, order=True)
class RefPerf:
    """Reference-test sensitivity s1 and specificity s0.

    A usable reference must satisfy s1 > 1 - s0 (it carries diagnostic
    value).  Construction only checks the [0, 1] ranges so that refuted
    configurations can still be *reported*; operations that need the
    inequality enforce it.  Points order by (s1, s0).
    """

    s1: float
    s0: float

    def __post_init__(self) -> None:
        for name in ("s1", "s0"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def is_informative(self) -> bool:
        return self.s1 > 1.0 - self.s0

    def require_informative(self) -> None:
        if not self.is_informative:
            raise RefutationError(
                f"reference performance (s1={self.s1}, s0={self.s0}) violates "
                "s1 > 1 - s0: the reference test carries no diagnostic value"
            )


@dataclass(frozen=True)
class SRegion:
    """Compact set of admissible reference operating characteristics.

    Either an explicit finite list of points, or an axis-aligned rectangle
    [s1_lo, s1_hi] x [s0_lo, s0_hi] discretized on a uniform grid
    (defaults to 10 points per non-degenerate axis).
    """

    points: tuple[RefPerf, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("SRegion must contain at least one (s1, s0) point")
        for p in self.points:
            if not p.is_informative:
                raise ValueError(
                    f"every point of an SRegion must satisfy s1 > 1 - s0; "
                    f"(s1={p.s1}, s0={p.s0}) does not"
                )

    @classmethod
    def singleton(cls, s1: float, s0: float) -> "SRegion":
        return cls(points=(RefPerf(s1, s0),))

    @classmethod
    def rectangle(
        cls,
        s1_lo: float,
        s1_hi: float,
        s0_lo: float,
        s0_hi: float,
        s1_points: int = 10,
        s0_points: int = 10,
    ) -> "SRegion":
        if s1_lo > s1_hi or s0_lo > s0_hi:
            raise ValueError("rectangle bounds must be ordered")
        if s1_points < 1 or s0_points < 1:
            raise ValueError("grid resolution must be at least 1 per axis")
        s1s = _axis_grid(s1_lo, s1_hi, s1_points)
        s0s = _axis_grid(s0_lo, s0_hi, s0_points)
        return cls(points=tuple(RefPerf(a, b) for a in s1s for b in s0s))

    def __len__(self) -> int:
        return len(self.points)


def _axis_grid(lo: float, hi: float, k: int) -> list[float]:
    """``k`` evenly spaced points from ``lo`` to exactly ``hi``, laid out as ``np.linspace`` lays them."""
    if hi == lo or k == 1:
        return [lo]
    step = (hi - lo) / (k - 1)
    if step == 0.0:  # underflow: np.linspace scales the span instead of the step
        return [lo + (i / (k - 1)) * (hi - lo) for i in range(k - 1)] + [hi]
    return [lo + i * step for i in range(k - 1)] + [hi]


@dataclass(frozen=True)
class DerivedRY:
    """Implied prevalence and joint distribution of (r, y) for fixed (s1, s0)."""

    prevalence: float
    p_r1_y1: float
    p_r0_y1: float
    p_r1_y0: float
    p_r0_y0: float

    def __post_init__(self) -> None:
        total = self.p_r1_y1 + self.p_r0_y1 + self.p_r1_y0 + self.p_r0_y0
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"(r, y) table must sum to 1, got {total!r}")

    @property
    def p_y1(self) -> float:
        return self.prevalence

    @property
    def p_y0(self) -> float:
        return 1.0 - self.prevalence

    @property
    def p_r1(self) -> float:
        return self.p_r1_y1 + self.p_r1_y0


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the maintained assumptions against P(t, r).

    ``passed`` reflects the published refutation check: the reference has
    diagnostic value and P(t=1) falls strictly inside (1 - s0, s1).  The
    analogous condition on P(r=1) is what makes the implied prevalence land
    in (0, 1); it is reported separately so a failure can be attributed.
    """

    passed: bool
    reference_informative: bool
    index_rate_in_range: bool
    reference_rate_in_range: bool
    p_t1: float
    p_r1: float
    interval: tuple[float, float]
    boundary_tie: bool
    cell_floor_ok: bool | None = None

    def violated_assumptions(self) -> tuple[str, ...]:
        return tuple(_violated(self.reference_informative, self.index_rate_in_range, self.reference_rate_in_range))


# What a failed check refutes, in the order validation reports it.
_VIOLATIONS = (
    "reference performance (s1 > 1 - s0)",
    "reference performance / bounded prevalence: P(t=1) outside (1 - s0, s1)",
    "bounded prevalence: P(r=1) outside (1 - s0, s1)",
)


def _violated(informative: bool, index_ok: bool, reference_ok: bool) -> list[str]:
    return [text for text, ok in zip(_VIOLATIONS, (informative, index_ok, reference_ok)) if not ok]


def estimate_joint(counts: CellCounts) -> JointTR:
    """Plug-in estimate of P(t, r): cell frequencies of the raw counts."""
    n = counts.n
    if n < 1:
        raise ValueError("cannot estimate a distribution from zero observations")
    return JointTR(counts.n11 / n, counts.n01 / n, counts.n10 / n, counts.n00 / n)


def _where(cond, a, b):
    """``np.where(cond, a, b)`` over a region's arrays; ``a if cond else b`` at a single point."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _column(x) -> list:
    """A column of a rule's results as a list over its points: an array's values, or the single point's."""
    return x.tolist() if isinstance(x, np.ndarray) else [x]


def _at(x, k: int):
    """Point ``k`` of a column of a rule's results, as a Python scalar."""
    return x[k].item() if isinstance(x, np.ndarray) else x


# Shorter columns are spelt value by value: np.unique costs more than it
# saves.  On columns drawn from a 316-point axis the two ways cost the same
# near 256 values, and a one-value column took 7.4 us against 0.5 us (timeit,
# 2-core VM).
_DISTINCT_MIN = 256


def _distinct_texts(column: np.ndarray, spell) -> list[str]:
    """``spell(x)`` for each float x of the 1-d ``column``, calling it once per distinct value.

    Values are told apart by their 64 bits, so 0.0 and -0.0 are spelt
    apart, and so is each NaN.  The writers of grid points use it: a
    coordinate column takes few distinct values.  A column of fewer than
    ``_DISTINCT_MIN`` values is spelt value by value.
    """
    column = np.asarray(column, dtype=np.float64)
    if column.size < _DISTINCT_MIN:
        return list(map(spell, column.tolist()))
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array([spell(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


class ReferenceColumns(NamedTuple):
    """The validation and prevalence rules at every point of a region, one column per quantity.

    A column is an array over ``points``, or a Python scalar when there is
    one point.  ``index_ok`` is the published check (it implies
    ``informative``); ``usable`` adds a non-degenerate implied prevalence,
    which is what every bound needs.  ``py1``/``py0`` are P(y=1)/P(y=0)
    and ``r1y1`` ... ``r0y0`` the (r, y) table; at a point that is not
    usable they follow from P(y=1) = 0.5, so that no later rule divides by
    zero there.
    """

    p: JointTR
    points: Sequence[RefPerf]
    informative: np.ndarray | bool
    index_ok: np.ndarray | bool
    reference_ok: np.ndarray | bool
    boundary: np.ndarray | bool
    prevalence: np.ndarray | float
    usable: np.ndarray | bool
    py1: np.ndarray | float
    py0: np.ndarray | float
    r1y1: np.ndarray | float
    r0y1: np.ndarray | float
    r1y0: np.ndarray | float
    r0y0: np.ndarray | float

    def refutation(self, k: int) -> str | None:
        """Why point ``k`` has no usable (r, y) table, or None when it has one."""
        if _at(self.usable, k):
            return None
        s = self.points[k]
        if not _at(self.index_ok, k):
            violated = _violated(_at(self.informative, k), False, _at(self.reference_ok, k))
            return "assumptions refuted by the data: " + "; ".join(violated)
        return (
            f"implied prevalence {_at(self.prevalence, k)!r} is degenerate: bounded prevalence "
            "is refuted for these reference characteristics "
            f"(P(r=1)={self.p.p_r1!r} outside ({1.0 - s.s0}, {s.s1}))"
        )


def reference_columns(p: JointTR, points: Sequence[RefPerf]) -> ReferenceColumns:
    """Check the refutable implications and derive P(r, y) at every point of ``points`` at once.

    A valid reference (s1 > 1 - s0) together with a prevalence interior to
    (0, 1) forces both observable positive rates into the open interval
    (1 - s0, s1).  Landing outside refutes at least one assumption.  The
    implied prevalence solves P(r=1) = s1 P(y=1) + (1 - s0) P(y=0); one
    closer than ``PREVALENCE_GUARD`` to 0 or 1 is degenerate, because
    later bounds divide by it.  Every operation is elementwise IEEE
    arithmetic, so each column holds the bits one point alone gives.
    """
    if len(points) == 1:
        s1, s0 = float(points[0].s1), float(points[0].s0)
    else:
        s1, s0 = np.array([[q.s1 for q in points], [q.s0 for q in points]], dtype=float)
    pt1, pr1 = p.p_t1, p.p_r1
    lo = 1.0 - s0
    informative = s1 > lo
    index_ok = informative & (lo < pt1) & (pt1 < s1)
    reference_ok = informative & (lo < pr1) & (pr1 < s1)
    boundary = (abs(pt1 - lo) <= PROB_TOL) | (abs(pt1 - s1) <= PROB_TOL)
    # s1 + s0 - 1 is zero for an uninformative reference, and can round to zero for one that passes
    # validation (s1 = 0.33333333333333337, s0 = 0.6666666666666667): the prevalence is then NaN, degenerate.
    den = s1 + s0 - 1.0
    prev = (pr1 + s0 - 1.0) / _where(den == 0.0, math.nan, den)
    usable = index_ok & (PREVALENCE_GUARD < prev) & (prev < 1.0 - PREVALENCE_GUARD)
    py1, py0 = _where(usable, prev, 0.5), _where(usable, 1.0 - prev, 0.5)
    return ReferenceColumns(
        p, points, informative, index_ok, reference_ok, boundary, prev, usable,
        py1, py0, s1 * py1, (1.0 - s1) * py1, lo * py0, s0 * py0,
    )


def validate_assumptions(
    p: JointTR, s: RefPerf, eps: float | None = None
) -> ValidationReport:
    """Check the refutable implications of the maintained assumptions at one point.

    Refutation is a report outcome, not an exception, so callers can name
    the failed assumption (see ``reference_columns`` for the rule).
    """
    c = reference_columns(p, (s,))
    return ValidationReport(
        passed=c.index_ok,
        reference_informative=c.informative,
        index_rate_in_range=c.index_ok,
        reference_rate_in_range=c.reference_ok,
        p_t1=p.p_t1,
        p_r1=p.p_r1,
        interval=(1.0 - s.s0, s.s1),
        boundary_tie=c.boundary,
        cell_floor_ok=None if eps is None else p.satisfies_cell_floor(eps),
    )


def default_cell_floor(n: int) -> float:
    """Default family-membership floor for n observations: half the weight of one."""
    return 1.0 / (2.0 * n)


def _usable_point(p: JointTR, s: RefPerf) -> ReferenceColumns:
    """The rule's columns at ``s`` alone; ``RefutationError`` when its (r, y) table is not usable."""
    c = reference_columns(p, (s,))
    reason = c.refutation(0)
    if reason is not None:
        raise RefutationError(reason)
    return c


def derived_prevalence(p: JointTR, s: RefPerf) -> float:
    """Prevalence implied by P(r=1) and the reference characteristics.

    Requires the maintained assumptions to survive validation and guards
    against a degenerate (near 0 or 1) result, which later bounds divide
    by; either failure raises ``RefutationError``.
    """
    return _usable_point(p, s).prevalence


def derived_joint_ry(p: JointTR, s: RefPerf) -> DerivedRY:
    """Joint distribution of (r, y) implied by P(t, r) and (s1, s0)."""
    c = _usable_point(p, s)
    return DerivedRY(prevalence=c.prevalence, p_r1_y1=c.r1y1, p_r0_y1=c.r0y1, p_r1_y0=c.r1y0, p_r0_y0=c.r0y0)


def apparent_measures(p: JointTR) -> tuple[float, float]:
    """Agreement rates with the reference: P(t=1 | r=1) and P(t=0 | r=0).

    These are the quantities conventional studies report.  They coincide
    with sensitivity and specificity only under a perfect reference.
    """
    pr1 = p.p_r1
    if not (0.0 < pr1 < 1.0):
        raise ValueError(
            f"apparent measures undefined: P(r=1)={pr1} is degenerate"
        )
    theta1_tilde = p.p11 / pr1
    theta0_tilde = p.p00 / (1.0 - pr1)
    return (theta1_tilde, theta0_tilde)
