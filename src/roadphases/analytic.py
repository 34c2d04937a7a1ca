"""Closed-form flow analysis for the one-junction figure-eight network.

All quantities are functions of the car density d, the non-priority share
r = n / (n + m - 1) and the cell weight rho = 1 / (n + m - 1).  The additive
eigenvalue lambda of the counter dynamics solves, for a capacity-1 junction,

    0 = max( min(d - (1+rho) L,  1/4 - L,  r - d - (2r-1+rho) L),  -L )

and the same identity without the 1/4 term for a capacity-2 junction.  The
eigenvalue approximates the average flow; where several eigenvalues exist
the realized flow picks zero.  Everything here is exact rational arithmetic;
floats appear only on output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class PhaseLabel(enum.Enum):
    """The four traffic regimes of a closed network."""

    FREE = "free"
    SATURATION = "saturation"
    RECESSION = "recession"
    FREEZE = "freeze"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PhaseBoundaries:
    """Exact densities separating the traffic phases of a figure-eight."""

    d1: Fraction
    d2: Fraction
    r: Fraction
    rho: Fraction


@dataclass(frozen=True)
class EigenResult:
    """Nonnegative solutions of the eigenvalue identity at one density."""

    candidates: tuple[float, ...]
    selected: float
    case: str  # interval label A..F

    @property
    def multiplicity(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class RoadDiagramPoint:
    """Per-road densities and flow at one global density (r > 1/2)."""

    d_m: Fraction  # priority-road density
    d_n: Fraction  # non-priority-road density
    f: Fraction
    phase: PhaseLabel


def phase_boundaries(n: int, m: int) -> PhaseBoundaries:
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    rho = Fraction(1, n + m - 1)
    r = Fraction(n, n + m - 1)
    d1 = (1 + rho) / 4
    d2 = (2 * r + 1 - rho) / 4
    return PhaseBoundaries(d1=d1, d2=d2, r=r, rho=rho)


def remark_case(d: Fraction, b: PhaseBoundaries) -> str:
    """Interval label A..F giving which eigenvalue expressions can occur."""
    if d < min(b.d1, b.r):
        return "A"
    if d < b.d1:
        return "B"
    if d < min(b.d2, b.r):
        return "C"
    if max(b.d1, b.r) <= d < b.d2:
        return "D"
    if b.d2 <= d < max(b.d2, b.r):
        return "E"
    return "F"


def _identity_residual(lam: Fraction, d: Fraction, b: PhaseBoundaries,
                       capacity: int) -> Fraction:
    terms = [d - (1 + b.rho) * lam,
             b.r - d - (2 * b.r - 1 + b.rho) * lam]
    if capacity == 1:
        terms.insert(1, Fraction(1, 4) - lam)
    return max(min(terms), -lam)


def _density(d, capacity: int = 1) -> Fraction:
    """``d`` as a Fraction in [0, 1], at a junction of capacity 1 or 2."""
    if capacity not in (1, 2):
        raise ValueError("capacity must be 1 or 2")
    d = Fraction(d)
    if not 0 <= d <= 1:
        raise ValueError("density must lie in [0, 1]")
    return d


def eigen_candidates(d, n: int, m: int, capacity: int = 1) -> EigenResult:
    """All nonnegative eigenvalues at density d, exact fixed-point check.

    The candidate pool comes from the linear pieces of the identity; each is
    kept only if it satisfies the identity exactly.  ``selected`` is the
    flow-relevant value: the sole candidate when unique, else zero.
    """
    d = _density(d, capacity)
    b = phase_boundaries(n, m)
    pool = {Fraction(0), d / (1 + b.rho)}
    if capacity == 1:
        pool.add(Fraction(1, 4))
    denom = 2 * b.r - 1 + b.rho
    if denom != 0:
        pool.add((b.r - d) / denom)
    valid = sorted(lam for lam in pool
                   if lam >= 0 and _identity_residual(lam, d, b, capacity) == 0)
    if not valid:  # cannot happen (lambda = 0 solves whenever others fail)
        raise ArithmeticError("no nonnegative eigenvalue found")
    selected = valid[0] if len(valid) == 1 else Fraction(0)
    return EigenResult(candidates=tuple(float(v) for v in valid),
                       selected=float(selected),
                       case=remark_case(d, b))


def flow_approx(d, r, capacity: int = 1) -> float:
    """Approximate average flow at density d for non-priority share r.

    Capacity 1:  max(min(d, 1/4, (r-d)/(2r-1)), 0), with the r <= 1/2
    convention that the last term drops for d < r and forces 0 for d >= r.
    Capacity 2:  the same without the 1/4 cap.
    """
    d = _density(d, capacity)
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must lie strictly between 0 and 1")
    terms = [d]
    if capacity == 1:
        terms.append(Fraction(1, 4))
    if 2 * r - 1 > 0:
        terms.append((r - d) / (2 * r - 1))
    elif d >= r:
        return 0.0
    return float(max(min(terms), 0))


def classify_phase_analytic(d, n: int, m: int) -> PhaseLabel:
    """Phase at density d in [0, 1]; freeze wins whenever d >= r."""
    d = _density(d)
    b = phase_boundaries(n, m)
    if d >= b.r:
        return PhaseLabel.FREEZE
    if d < b.d1:
        return PhaseLabel.FREE
    if d < b.d2:
        return PhaseLabel.SATURATION
    return PhaseLabel.RECESSION


def road_diagrams(d, r) -> RoadDiagramPoint:
    """Split a global density into per-road densities and flow (r > 1/2).

    Uses the large-network phase boundaries 1/4, (2r+1)/4 and r; the output
    satisfies d = r*d_n + (1-r)*d_m exactly.
    """
    d = _density(d)
    r = Fraction(r)
    if r <= Fraction(1, 2):
        raise ValueError("per-road split needs r > 1/2")
    quarter = Fraction(1, 4)
    if d >= r:
        d_n = Fraction(1)
        d_m = (d - r) / (1 - r)
        return RoadDiagramPoint(d_m, d_n, Fraction(0), PhaseLabel.FREEZE)
    if d < quarter:
        return RoadDiagramPoint(d, d, d, PhaseLabel.FREE)
    if d < (2 * r + 1) / 4:
        d_m = quarter
        d_n = d / r - (1 - r) / (4 * r)
        return RoadDiagramPoint(d_m, d_n, quarter, PhaseLabel.SATURATION)
    f = (r - d) / (2 * r - 1)
    d_m = f
    d_n = (d - (1 - r) * d_m) / r
    return RoadDiagramPoint(d_m, d_n, f, PhaseLabel.RECESSION)
