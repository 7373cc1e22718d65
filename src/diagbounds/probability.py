"""Observable probability objects for a two-test binary study.

A performance study records, for each participant, the pair of binary
results (t, r) of the index test ``t`` and the reference test ``r``.  This
module holds the raw 2x2 counts, the plug-in joint distribution of (t, r),
the assumed operating characteristics of the reference test, and the
quantities that can be derived from them once reference performance is
fixed: the implied prevalence and the joint distribution of (r, y) where
``y`` is the latent health status.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    def from_points(cls, pts) -> "SRegion":
        return cls(points=tuple(RefPerf(*p) if not isinstance(p, RefPerf) else p for p in pts))

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
        out = []
        if not self.reference_informative:
            out.append("reference performance (s1 > 1 - s0)")
        if not self.index_rate_in_range:
            out.append("reference performance / bounded prevalence: P(t=1) outside (1 - s0, s1)")
        if not self.reference_rate_in_range:
            out.append("bounded prevalence: P(r=1) outside (1 - s0, s1)")
        return tuple(out)


def estimate_joint(counts: CellCounts) -> JointTR:
    """Plug-in estimate of P(t, r): cell frequencies of the raw counts."""
    n = counts.n
    if n < 1:
        raise ValueError("cannot estimate a distribution from zero observations")
    return JointTR(counts.n11 / n, counts.n01 / n, counts.n10 / n, counts.n00 / n)


def validate_assumptions(
    p: JointTR, s: RefPerf, eps: float | None = None
) -> ValidationReport:
    """Check the refutable implications of the maintained assumptions.

    A valid reference (s1 > 1 - s0) together with a prevalence interior to
    (0, 1) forces both observable positive rates into the open interval
    (1 - s0, s1).  Landing outside refutes at least one assumption.
    Refutation is a report outcome, not an exception, so callers can name
    the failed assumption.
    """
    lo, hi = 1.0 - s.s0, s.s1
    informative = s.is_informative
    t_ok = informative and (lo < p.p_t1 < hi)
    r_ok = informative and (lo < p.p_r1 < hi)
    boundary = min(abs(p.p_t1 - lo), abs(p.p_t1 - hi)) <= PROB_TOL
    floor_ok = None
    if eps is not None:
        floor_ok = p.satisfies_cell_floor(eps)
    return ValidationReport(
        passed=informative and t_ok,
        reference_informative=informative,
        index_rate_in_range=t_ok,
        reference_rate_in_range=r_ok,
        p_t1=p.p_t1,
        p_r1=p.p_r1,
        interval=(lo, hi),
        boundary_tie=boundary,
        cell_floor_ok=floor_ok,
    )


def default_cell_floor(n: int) -> float:
    """Default family-membership floor for n observations: half the weight of one."""
    return 1.0 / (2.0 * n)


def _require_valid(p: JointTR, s: RefPerf) -> None:
    report = validate_assumptions(p, s)
    if not report.passed:
        raise RefutationError(
            "assumptions refuted by the data: " + "; ".join(report.violated_assumptions())
        )


def derived_prevalence(p: JointTR, s: RefPerf) -> float:
    """Prevalence implied by P(r=1) and the reference characteristics.

    Solves P(r=1) = s1 P(y=1) + (1 - s0) P(y=0) for P(y=1).  Requires the
    maintained assumptions to survive validation and guards against a
    degenerate (near 0 or 1) result, which later bounds divide by.
    """
    _require_valid(p, s)
    prev = (p.p_r1 + s.s0 - 1.0) / (s.s1 + s.s0 - 1.0)
    if not (PREVALENCE_GUARD < prev < 1.0 - PREVALENCE_GUARD):
        raise RefutationError(
            f"implied prevalence {prev!r} is degenerate: bounded prevalence "
            "is refuted for these reference characteristics "
            f"(P(r=1)={p.p_r1!r} outside ({1.0 - s.s0}, {s.s1}))"
        )
    return prev


def derived_joint_ry(p: JointTR, s: RefPerf) -> DerivedRY:
    """Joint distribution of (r, y) implied by P(t, r) and (s1, s0)."""
    prev = derived_prevalence(p, s)
    return DerivedRY(
        prevalence=prev,
        p_r1_y1=s.s1 * prev,
        p_r0_y1=(1.0 - s.s1) * prev,
        p_r1_y0=(1.0 - s.s0) * (1.0 - prev),
        p_r0_y0=s.s0 * (1.0 - prev),
    )


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
