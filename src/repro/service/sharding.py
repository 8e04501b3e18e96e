"""Item sharding for the process-parallel multi-item service layer.

Under the homogeneous cost model the multi-item problem decomposes
exactly into independent per-item instances (see :mod:`repro.service.multi`),
so the service layer is embarrassingly parallel: partition the items into
shards, ship each shard to a worker process, and merge.  This module owns
the partitioning and the module-level shard workers
(:func:`repro.analysis.parallel.parallel_map` requires picklable,
module-level callables — closures die at the pool boundary).

Two strategies are provided:

* ``"size"`` (default) — longest-processing-time greedy: items sorted by
  request count descending go to the currently lightest shard.  The DP is
  ``O(mn)`` per item, so request count is a faithful proxy for work and
  this keeps shard makespans balanced even under Zipf-skewed volumes.
* ``"hash"`` — stable content hash of the item name (``zlib.crc32``, *not*
  the salted builtin ``hash``) modulo the shard count.  Placement of an
  item never depends on which other items are present, which matters when
  shards map to long-lived worker state across requests.

Both strategies are deterministic functions of the item names and sizes;
empty shards are dropped.  Sharding never affects results: the callers in
:mod:`repro.service.multi` merge shard outputs back into the original
item order, so parallel runs are bit-identical to serial ones regardless
of strategy or shard count.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.instance import ProblemInstance
from ..kernels.batch import BatchLayout, solve_layout
from ..kernels.online import run_online_layout, vector_policy_config
from ..offline.result import OfflineResult
from ..online.base import OnlineAlgorithm
from ..sim.recorder import OnlineRunResult

__all__ = ["plan_shards", "SHARD_STRATEGIES"]

#: Supported values for ``strategy=`` across the service layer.
SHARD_STRATEGIES = ("size", "hash")


def plan_shards(
    items: Dict[str, ProblemInstance],
    shards: int,
    strategy: str = "size",
) -> List[List[str]]:
    """Partition item names into at most ``shards`` non-empty bins.

    Parameters
    ----------
    items:
        Item name → instance (the ``items`` dict of a
        :class:`~repro.service.multi.MultiItemInstance`).
    shards:
        Target shard count (``>= 1``); fewer may be returned when there
        are fewer items than shards, or when hashing leaves bins empty.
    strategy:
        ``"size"`` (LPT greedy on request counts) or ``"hash"``
        (``crc32(name) % shards``).

    Returns
    -------
    list of list of str
        Deterministic partition of the item names; within each shard the
        names keep the input dict's order.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r}; choose from {SHARD_STRATEGIES}"
        )
    names = list(items)
    shards = min(shards, len(names))
    bins: List[List[str]] = [[] for _ in range(shards)]
    if strategy == "hash":
        for name in names:
            bins[zlib.crc32(name.encode("utf-8")) % shards].append(name)
    else:  # size: LPT greedy, ties broken by input order then bin index
        order = sorted(range(len(names)), key=lambda i: (-items[names[i]].n, i))
        # Heap keyed (load, bin index): each placement is O(log shards)
        # instead of the former loads.index(min(loads)) linear scan —
        # O(items log shards) total, not O(items × shards).  The heap
        # pops the lexicographic minimum, which is exactly the scan's
        # answer (lightest bin, lowest index among ties), so plans are
        # byte-identical to the old loop (golden-pinned in
        # tests/service/test_sharding.py).
        heap = [(0, b) for b in range(shards)]
        for i in order:
            load, b = heapq.heappop(heap)
            bins[b].append(names[i])
            heapq.heappush(heap, (load + items[names[i]].n, b))
        input_rank = {name: i for i, name in enumerate(names)}
        for b in bins:
            b.sort(key=input_rank.__getitem__)
    return [b for b in bins if b]


# ---------------------------------------------------------------------------
# The *pickle transport*: shard descriptors and workers (module-level so
# they survive pickling into a process pool).  This is one of two
# transports the service layer offers — the other is the zero-copy
# shared-memory fabric of :mod:`repro.service.fabric`, which ships the
# same raw columns through a SharedMemory arena instead of the pool pipe
# and is the default (``transport="shm"``).  Here, shards travel as
# *packed* descriptors — the raw request arrays plus construction
# parameters, never the pre-scanned instance.  The pre-scan is
# deterministic, so redoing it in the worker shrinks the outbound pickle
# and moves that work into the parallel section while keeping results
# bit-identical.  Both transports pre-scan the same raw columns, so
# results agree bit-for-bit with each other and with serial runs.
# ---------------------------------------------------------------------------


def _pack_item(name: str, inst: ProblemInstance) -> Tuple:
    """Flatten an item to a small picklable descriptor."""
    return (
        name,
        inst.t[1:],
        inst.srv[1:],
        inst.num_servers,
        inst.cost,
        inst.origin,
        float(inst.t[0]),
    )


def _unpack_item(desc: Tuple) -> Tuple[str, ProblemInstance]:
    """Rebuild the instance a descriptor encodes (bit-identical pre-scan)."""
    name, t, srv, m, cost, origin, start = desc
    inst = ProblemInstance.from_arrays(
        t, srv, num_servers=m, cost=cost, origin=origin, start_time=start
    )
    return name, inst


def _layout_from_descs(descs: Sequence[Tuple]) -> BatchLayout:
    """Pack a shard's descriptors straight from their raw columns."""
    return BatchLayout.from_columns(
        [
            (name, t, srv, m, cost.mu, cost.lam, origin, start)
            for name, t, srv, m, cost, origin, start in descs
        ]
    )


def _solve_shard(descs: Sequence[Tuple]) -> List[Tuple[str, OfflineResult]]:
    """Solve every item in one shard with the fast DP (pickle transport).

    The whole shard is ONE call to the batched instance-major sweep,
    packed straight from the descriptors' raw columns
    (:meth:`repro.kernels.batch.BatchLayout.from_columns`) — no per-item
    instance rebuild, no per-item Python loop.

    Instances never cross back over the pool boundary — the parent holds
    the equivalent object and re-attaches it on merge, so only the DP's
    cost/choice vectors pay the return pickle; batch results are born
    instance-free.  They are read-only views into the batch's stacked
    arrays, so shard-mates can never corrupt each other in place.  (The
    shm transport goes further: workers write the vectors into a
    preallocated shared result region and return only ``(name,
    solver)`` acks — see :func:`repro.service.fabric._worker_solve_shard`.)
    """
    layout = _layout_from_descs(descs)
    return list(zip(layout.names, solve_layout(layout)))


def _run_shard(
    policy_factory: Callable[[], OnlineAlgorithm],
    descs: Sequence[Tuple],
    kernel: str = "auto",
) -> List[Tuple[str, OnlineRunResult]]:
    """Serve every item in one shard with a fresh policy per item.

    When the policy is vector-kernel eligible (plain
    ``SpeculativeCaching``) and ``kernel`` allows it, the whole shard is
    packed into one :class:`BatchLayout` and served with ONE batched
    online-kernel call — bit-identical to the per-item loop, including
    output order (``from_columns`` preserves item order).
    """
    probe = policy_factory()
    config = vector_policy_config(probe) if kernel != "event" else None
    if config is not None:
        if not descs:
            return []
        window_factor, epoch_size, algo_name = config
        layout = _layout_from_descs(descs)
        runs = run_online_layout(
            layout, window_factor, epoch_size, algorithm_name=algo_name
        )
        return [(name, run.to_result()) for name, run in zip(layout.names, runs)]
    if kernel == "vector":
        raise ValueError(
            f"kernel='vector' requires a plain SpeculativeCaching policy, "
            f"got {type(probe).__name__}; use kernel='event' or 'auto'"
        )
    out: List[Tuple[str, OnlineRunResult]] = []
    for desc in descs:
        name, inst = _unpack_item(desc)
        out.append((name, policy_factory().run(inst, kernel=kernel)))
    return out
