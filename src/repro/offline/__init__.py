"""Off-line optimal algorithms (paper Section IV) and validation oracles.

* :func:`solve_offline` — the paper's ``O(mn)`` fast DP (Contribution 1),
  a batch of one over :func:`repro.kernels.batch.solve_offline_batch`.
* :func:`solve_offline_bisect` — the recurrences line by line with
  binary-search pivots, ``O(nm log n)``: the reference oracle.
* :func:`solve_offline_naive` — direct ``O(n²)`` sweep (correctness oracle
  and scaling baseline).
* :func:`solve_exact` — exponential subset-state oracle, also covering the
  heterogeneous-cost extension.
* :func:`reconstruct_schedule` — optimal schedule via backtracking.
"""

from .beam import BeamResult, solve_beam
from .bounds import BoundReport, bound_report, marginal_bounds, running_bound
from .dp import optimal_cost, solve_offline
from .exact import ExactResult, solve_exact
from .naive import solve_offline_bisect, solve_offline_naive
from .parametric import SensitivityPoint, lambda_breakpoints, lambda_sensitivity
from .reconstruct import reconstruct_schedule
from .result import FROM_C, FROM_D, OfflineResult
from .streaming import StreamingSolver

__all__ = [
    "FROM_C",
    "FROM_D",
    "StreamingSolver",
    "BeamResult",
    "BoundReport",
    "ExactResult",
    "OfflineResult",
    "SensitivityPoint",
    "bound_report",
    "marginal_bounds",
    "lambda_breakpoints",
    "lambda_sensitivity",
    "optimal_cost",
    "reconstruct_schedule",
    "running_bound",
    "solve_beam",
    "solve_exact",
    "solve_offline",
    "solve_offline_bisect",
    "solve_offline_naive",
]
