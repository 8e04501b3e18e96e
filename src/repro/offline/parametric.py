"""Parametric sensitivity: how the optimum moves with the cost ratio.

The homogeneous model has one effective knob — ``λ/μ`` — and the optimal
*value* is piecewise linear in ``λ`` at fixed ``μ`` (each fixed schedule's
cost is affine in ``λ``; the optimum is their lower envelope, i.e. a
concave piecewise-linear function whose slope is the transfer count of
the active schedule).  This module sweeps ``λ``, tracks where the optimal
*structure* changes (the envelope's breakpoints, located to tolerance by
bisection on the transfer count), and reports each regime's schedule
signature.

Uses: pricing what-ifs ("would the plan change if egress doubled?") and
regression tests on envelope concavity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.instance import ProblemInstance
from ..core.transforms import with_cost
from ..core.types import CostModel
from ..kernels.batch import solve_offline_batch
from .dp import solve_offline
from .result import OfflineResult

__all__ = ["SensitivityPoint", "lambda_sensitivity", "lambda_breakpoints"]


@dataclass(frozen=True)
class SensitivityPoint:
    """The optimum at one ``λ`` value.

    Attributes
    ----------
    lam:
        Transfer cost.
    optimal_cost:
        ``C(n)`` at that ``λ``.
    transfers:
        Number of transfers in the optimal schedule — the local slope
        ``dC/dλ`` of the cost envelope.
    copy_time:
        Total held copy-time of the optimal schedule.
    """

    lam: float
    optimal_cost: float
    transfers: int
    copy_time: float


def _with_lam(instance: ProblemInstance, lam: float) -> ProblemInstance:
    return with_cost(
        instance, CostModel(mu=instance.cost.mu, lam=lam, beta=instance.cost.beta)
    )


def _solve_at(instance: ProblemInstance, lam: float) -> SensitivityPoint:
    return _point(lam, solve_offline(_with_lam(instance, lam)))


def _point(lam: float, res: OfflineResult) -> SensitivityPoint:
    sched = res.schedule().canonical()
    return SensitivityPoint(
        lam=lam,
        optimal_cost=res.optimal_cost,
        transfers=len(sched.transfers),
        copy_time=sum(iv.duration for iv in sched.intervals),
    )


def lambda_sensitivity(
    instance: ProblemInstance, lam_grid: Sequence[float]
) -> List[SensitivityPoint]:
    """Evaluate the optimum at each ``λ`` in ``lam_grid`` (sorted)."""
    grid = sorted(float(x) for x in lam_grid)
    if not grid:
        raise ValueError("need at least one lambda value")
    if grid[0] <= 0:
        raise ValueError("lambda values must be positive")
    # The whole grid in one batched DP call.
    batch = solve_offline_batch(
        [(str(k), _with_lam(instance, lam)) for k, lam in enumerate(grid)]
    )
    return [_point(lam, res) for lam, res in zip(grid, batch.values())]


def lambda_breakpoints(
    instance: ProblemInstance,
    lam_lo: float,
    lam_hi: float,
    tol: float = 1e-4,
    max_segments: int = 64,
) -> List[float]:
    """Locate the ``λ`` values where the optimal transfer count changes.

    Bisects on the transfer count (the envelope slope) between ``lam_lo``
    and ``lam_hi``; returns breakpoints to absolute tolerance ``tol``.
    Segments beyond ``max_segments`` raise — a safety net, since the
    envelope has at most ``n`` distinct slopes.
    """
    if not 0 < lam_lo < lam_hi:
        raise ValueError("need 0 < lam_lo < lam_hi")

    def slope(lam: float) -> int:
        return _solve_at(instance, lam).transfers

    breakpoints: List[float] = []
    segments = [(lam_lo, slope(lam_lo), lam_hi, slope(lam_hi))]
    while segments:
        lo, s_lo, hi, s_hi = segments.pop()
        if s_lo == s_hi:
            continue
        if hi - lo <= tol:
            breakpoints.append(0.5 * (lo + hi))
            continue
        if len(breakpoints) + len(segments) > max_segments:
            raise RuntimeError(
                f"more than {max_segments} envelope segments; widen tol"
            )
        mid = 0.5 * (lo + hi)
        s_mid = slope(mid)
        segments.append((lo, s_lo, mid, s_mid))
        segments.append((mid, s_mid, hi, s_hi))
    return sorted(breakpoints)
