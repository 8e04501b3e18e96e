"""Per-epoch competitive accounting.

Theorem 3's statement is *per epoch*: within each run of ``E`` transfers
SC pays at most three times what the optimum would pay for the same
stretch (starting from the epoch's hand-over state).  This module slices
an instance along the epoch boundaries an SC run actually produced and
evaluates the bound segment by segment — turning the proof's structure
into a measurable table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.instance import ProblemInstance
from ..core.transforms import split_at
from ..kernels.batch import solve_offline_batch
from ..online.speculative import SpeculativeCaching

__all__ = ["EpochRow", "epoch_report"]


@dataclass(frozen=True)
class EpochRow:
    """One epoch's accounting.

    Attributes
    ----------
    index:
        Epoch number (0-based).
    first_request, last_request:
        Request-index range (1-based, inclusive) the epoch served.
    sc_cost:
        SC's cost attributed to the epoch's time span.
    opt_cost:
        Optimal cost of serving the epoch's requests from the hand-over
        state (previous epoch's final request server).
    """

    index: int
    first_request: int
    last_request: int
    sc_cost: float
    opt_cost: float

    @property
    def ratio(self) -> float:
        """Per-epoch empirical ratio."""
        return self.sc_cost / self.opt_cost if self.opt_cost > 0 else float("inf")


def epoch_report(
    instance: ProblemInstance, epoch_size: int, max_epochs: Optional[int] = None
) -> List[EpochRow]:
    """Evaluate the per-epoch Theorem-3 accounting on ``instance``.

    Runs SC with ``epoch_size`` transfers per epoch, splits the request
    sequence at the realised epoch boundaries, and solves each segment
    optimally from its hand-over state.  The sum of per-epoch optima can
    exceed the global optimum (hand-over states are SC's, not OPT's), so
    per-epoch ratios are *conservative* — they still must sit under 3.
    """
    if epoch_size < 1:
        raise ValueError(f"epoch_size must be >= 1, got {epoch_size}")
    run = SpeculativeCaching(epoch_size=epoch_size).run(instance)

    # Epoch boundaries = request indices whose service completed an epoch.
    boundaries: List[int] = []
    transfers_seen = 0
    tr_times = sorted(t for (t, _s, _d) in run.transfers)
    idx = 0
    for i in range(1, instance.n + 1):
        t_i = float(instance.t[i])
        while idx < len(tr_times) and tr_times[idx] <= t_i:
            idx += 1
            transfers_seen += 1
            if transfers_seen % epoch_size == 0:
                boundaries.append(i)
    if not boundaries or boundaries[-1] != instance.n:
        boundaries.append(instance.n)

    spans = []
    remaining = instance
    consumed = 0
    for e, boundary in enumerate(boundaries):
        if max_epochs is not None and e >= max_epochs:
            break
        count = boundary - consumed
        head, tail = split_at(remaining, count)
        t_lo = float(head.t[0])
        t_hi = float(head.t[-1]) if head.n else t_lo
        sc_cost = _cost_in_span(run, instance.cost, t_lo, t_hi)
        spans.append((e, consumed + 1, boundary, sc_cost, head))
        remaining = tail
        consumed = boundary
    # Every epoch's optimum in one batched DP call.
    opts = solve_offline_batch([(str(span[0]), span[4]) for span in spans])
    return [
        EpochRow(
            index=e,
            first_request=first,
            last_request=last,
            sc_cost=sc_cost,
            opt_cost=res.optimal_cost,
        )
        for (e, first, last, sc_cost, _), res in zip(spans, opts.values())
    ]


def _cost_in_span(run, cost, t_lo: float, t_hi: float) -> float:
    """SC cost attributed to ``[t_lo, t_hi]`` (rent clipped, transfers by
    instant; boundary transfers belong to the epoch they complete)."""
    caching = sum(
        max(0.0, min(iv.end, t_hi) - max(iv.start, t_lo))
        for iv in run.schedule.canonical().intervals
    )
    transfers = sum(1 for (t, _s, _d) in run.transfers if t_lo < t <= t_hi)
    return cost.mu * caching + cost.lam * transfers
