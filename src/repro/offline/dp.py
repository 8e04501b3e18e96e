"""The fast optimal off-line algorithm — ``O(mn)`` time and space.

Implements the paper's Section IV recurrences:

.. math::

    C(i) &= \\min\\{ D(i),\\ C(i-1) + \\mu\\,\\delta t_{i-1,i} + \\lambda \\} \\\\
    D(i) &= \\min\\Big\\{ C(p(i)) + \\mu\\sigma_i + B_{i-1} - B_{p(i)},\\
            \\min_{\\kappa \\in \\pi(i)} D(\\kappa) + \\mu\\sigma_i
            + B_{i-1} - B_\\kappa \\Big\\}

with ``C(0) = 0`` and ``D(i) = +inf`` for the first request on each server
(its dummy predecessor sits at ``-inf``).  The cover index set ``π(i)``
(Definition 8) holds at most one candidate per server — the request whose
server interval spans ``t_{p(i)}``.

A single instance is solved as a batch of one by the batched sweep of
:mod:`repro.kernels.batch` (compiled C when a system compiler exists,
its Python twin otherwise), which keeps the cover-set minima in per-server
running accumulators instead of enumerating ``π(i)`` per request.  The
line-by-line form of the recurrences is
:func:`repro.offline.naive.solve_offline_bisect`, the reference oracle the
differential tests compare against.

Ties between the cache branch ``D(i)`` and the transfer branch are broken
toward the cache branch; this guarantees reconstruction never emits a
self-transfer (when ``s_i = s_{i-1}`` the cache branch is strictly cheaper
by ``λ``, so the transfer branch can only win when the servers differ).
Ties among pivot candidates go to the candidate on the smallest server id.
"""

from __future__ import annotations

from ..core.instance import ProblemInstance
from ..kernels.batch import solve_offline_batch
from .result import OfflineResult

__all__ = ["solve_offline", "optimal_cost"]


def solve_offline(instance: ProblemInstance) -> OfflineResult:
    """Solve ``instance`` optimally with the ``O(mn)`` dynamic program.

    Returns
    -------
    OfflineResult
        Cost vectors ``C``/``D`` plus backtracking metadata;
        ``result.schedule()`` materialises the optimal schedule.  The
        arrays are read-only views into the batch sweep's outputs.
    """
    return solve_offline_batch([("", instance)])[""]


def optimal_cost(instance: ProblemInstance) -> float:
    """Convenience wrapper: the optimal total service cost ``C(n)``."""
    return solve_offline(instance).optimal_cost
