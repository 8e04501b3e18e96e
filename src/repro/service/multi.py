"""Multi-item data service layer.

The paper analyses a single shared item; a real data service hosts many.
Under the homogeneous cost model items do not interact (no capacity
bound couples them), so the service-level problem decomposes exactly:
the optimal multi-item schedule is the union of per-item optima, and any
per-item online policy runs independently per item.  This module provides
that service layer — the setting of the paper's reference [4] (Wang,
Veeravalli, Tham: multiple shared data items in clouds) restricted to
the homogeneous regime where decomposition is exact:

* :class:`MultiItemInstance` — per-item request sequences over one
  cluster, buildable from a mixed service log;
* :func:`solve_offline_multi` — per-item fast DP plus aggregation,
  optionally sharded across a process pool;
* :class:`MultiItemOnlineService` — run an online policy factory per
  item over the merged event stream, optionally sharded likewise;
* :func:`multi_item_workload` — Zipf-over-items × per-item Poisson
  synthesis.

Because decomposition is exact, the parallel paths are *guaranteed*
bit-identical to the serial ones: items are partitioned into picklable
shard descriptors (:mod:`repro.service.sharding`), each worker runs the
very same per-item solver or policy, and the merge step re-keys results
in the original item order.  Same dicts, same costs, same counters —
``processes`` is purely a throughput knob.

A capacity-coupled variant (items competing for bounded cache space) is
deliberately out of scope: it breaks the decomposition theorem and is
exactly what the paper's "next generation" framing argues away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..analysis.parallel import _check_picklable_callable, parallel_map
from ..core.instance import ProblemInstance
from ..core.types import CostModel, InvalidInstanceError
from ..kernels.batch import solve_offline_batch
from ..offline.result import OfflineResult
from ..online.base import OnlineAlgorithm
from ..sim.recorder import OnlineRunResult
from ..workloads.synthetic import RngLike, _rng, zipf_weights
from ..workloads.traces import TraceRecord
from .sharding import _pack_item, _run_shard, _solve_shard, plan_shards

__all__ = [
    "MultiItemInstance",
    "MultiItemOfflineResult",
    "MultiItemOnlineService",
    "solve_offline_multi",
    "multi_item_workload",
]


class MultiItemInstance:
    """Per-item request sequences sharing one cluster and cost model.

    Parameters
    ----------
    items:
        Mapping from item name to its :class:`ProblemInstance`.  All
        instances must agree on fleet size and cost model (they may have
        different origins — each item starts wherever it was uploaded).
    """

    def __init__(self, items: Dict[str, ProblemInstance]):
        if not items:
            raise InvalidInstanceError("need at least one item")
        sizes = {inst.num_servers for inst in items.values()}
        costs = {inst.cost for inst in items.values()}
        if len(sizes) != 1:
            raise InvalidInstanceError(f"items disagree on fleet size: {sizes}")
        if len(costs) != 1:
            raise InvalidInstanceError("items disagree on cost model")
        self.items = dict(items)
        self.num_servers = sizes.pop()
        self.cost = costs.pop()

    @classmethod
    def from_records(
        cls,
        records: Iterable[TraceRecord],
        num_servers: Optional[int] = None,
        cost: Optional[CostModel] = None,
        origin: int = 0,
    ) -> "MultiItemInstance":
        """Split a mixed service log by item and mine each sequence."""
        from ..workloads.traces import mine_instance

        by_item: Dict[str, List[TraceRecord]] = {}
        for r in records:
            by_item.setdefault(r.item or "item-0", []).append(r)
        if num_servers is None:
            num_servers = max(r.server for rs in by_item.values() for r in rs) + 1
        items = {
            name: mine_instance(
                rs, num_servers=num_servers, cost=cost, origin=origin
            )
            for name, rs in by_item.items()
        }
        return cls(items)

    @classmethod
    def from_columnar(
        cls,
        trace,
        num_servers: Optional[int] = None,
        cost: Optional[CostModel] = None,
        origin: int = 0,
    ) -> "MultiItemInstance":
        """Build the service straight from a columnar trace (zero rows).

        ``trace`` is a :class:`~repro.workloads.columnar.ColumnarTrace`
        or a path to one.  Per-item sequences are carved out of the
        mapped columns with whole-array masks — no intermediate
        :class:`~repro.workloads.traces.TraceRecord` objects — and each
        is mined with the same construction as :meth:`from_records`, so
        the result is bit-identical to the CSV path on the same log.
        Items keep first-appearance order, matching ``from_records``'s
        insertion order.
        """
        from ..workloads.columnar import ColumnarTrace, _mine_selected

        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace.open(trace)
        if trace.rows == 0:
            raise InvalidInstanceError("need at least one item")
        if num_servers is None:
            num_servers = int(trace.servers.max()) + 1
        # One stable argsort groups the rows by raw item id while keeping
        # original row order inside each group — O(rows log rows) total,
        # versus one full-column scan per item.
        ids = np.asarray(trace.item_ids)
        order = np.argsort(ids, kind="stable")
        bounds = np.flatnonzero(np.diff(ids[order])) + 1
        segments = np.split(order, bounds)
        # Group raw ids under their display names ("" defaults to
        # "item-0", exactly like from_records), in first-appearance row
        # order so the dict key order matches the CSV path.
        groups: Dict[str, List[np.ndarray]] = {}
        for seg in sorted(segments, key=lambda s: int(s[0])):
            name = trace.item_table[int(ids[seg[0]])] or "item-0"
            groups.setdefault(name, []).append(seg)
        times, servers = trace.times, trace.servers
        items: Dict[str, ProblemInstance] = {}
        for name, segs in groups.items():
            idx = segs[0] if len(segs) == 1 else np.sort(np.concatenate(segs))
            items[name] = _mine_selected(
                times[idx],
                servers[idx],
                num_servers=num_servers,
                cost=cost,
                origin=origin,
                min_gap=1e-9,
            )
        return cls(items)

    @property
    def num_items(self) -> int:
        """Number of hosted items."""
        return len(self.items)

    @property
    def total_requests(self) -> int:
        """Requests across all items."""
        return sum(inst.n for inst in self.items.values())

    def __repr__(self) -> str:
        return (
            f"MultiItemInstance(items={self.num_items}, "
            f"requests={self.total_requests}, m={self.num_servers})"
        )


@dataclass
class MultiItemOfflineResult:
    """Aggregate of per-item optimal solutions.

    Attributes
    ----------
    per_item:
        Item name → :class:`OfflineResult`.
    """

    per_item: Dict[str, OfflineResult]

    @property
    def total_cost(self) -> float:
        """Service-level optimal cost (sum of per-item optima)."""
        return sum(r.optimal_cost for r in self.per_item.values())

    @property
    def total_lower_bound(self) -> float:
        """Sum of per-item running bounds."""
        return sum(r.lower_bound for r in self.per_item.values())

    def cost_breakdown(self) -> Dict[str, float]:
        """Item name → optimal cost, sorted by cost descending."""
        return dict(
            sorted(
                ((k, r.optimal_cost) for k, r in self.per_item.items()),
                key=lambda kv: -kv[1],
            )
        )


def _shard_tasks(
    service: MultiItemInstance, shards: int, strategy: str
) -> List[tuple]:
    """Picklable shard descriptors: one ``(descs,)`` argument tuple per shard."""
    plan = plan_shards(service.items, shards, strategy=strategy)
    return [
        ([_pack_item(name, service.items[name]) for name in shard],)
        for shard in plan
    ]


def _merge_shard_results(
    service: MultiItemInstance, shard_results: Iterable[List[tuple]]
) -> Dict[str, object]:
    """Re-key shard outputs into the service's original item order.

    This is what makes parallel runs bit-identical to serial ones: the
    merged dict iterates in ``service.items`` order no matter how the
    shards were cut or which worker finished first.
    """
    merged = {name: res for chunk in shard_results for name, res in chunk}
    missing = set(service.items) - set(merged)
    if missing:  # pragma: no cover - would indicate a sharding bug
        raise RuntimeError(f"shard merge lost items: {sorted(missing)}")
    return {name: merged[name] for name in service.items}


#: Valid ``transport=`` values for the parallel service paths.
TRANSPORTS = ("shm", "pickle")


def solve_offline_multi(
    service: MultiItemInstance,
    processes: Optional[int] = None,
    shards: Optional[int] = None,
    shard_strategy: str = "size",
    transport: str = "shm",
    pool: Optional["ServicePool"] = None,
) -> MultiItemOfflineResult:
    """Optimal service-level schedule: per-item fast DP, exact by
    decomposition (no capacity coupling in the homogeneous model).

    The whole service (serially) or each shard (in workers) is solved
    with ONE call to the batched instance-major sweep
    (:mod:`repro.kernels.batch`).

    Parameters
    ----------
    service:
        The hosted items.
    processes:
        Pool size; ``None`` or ``1`` solves serially in-process.
    shards:
        Shard count for ``processes > 1`` (default: one shard per
        process).  More shards than processes gives the pool slack to
        balance uneven items.
    shard_strategy:
        ``"size"`` (default) or ``"hash"``; see
        :func:`repro.service.sharding.plan_shards`.
    transport:
        ``"shm"`` (default) ships shards through the zero-copy
        shared-memory fabric (:mod:`repro.service.fabric`);
        ``"pickle"`` uses the per-call pickled descriptors of
        :mod:`repro.service.sharding`.  Purely a throughput knob.
    pool:
        A persistent :class:`~repro.service.fabric.ServicePool` to
        reuse across calls (implies the shm transport; its worker
        count wins over ``processes``).  Without one, ``processes > 1``
        spins up an ephemeral pool for this call and tears it down —
        segments unlinked — before returning, error or not.

    Whatever the knobs, the result is bit-identical to the serial solve:
    same ``per_item`` key order, same cost vectors, same totals.
    """
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if transport not in TRANSPORTS:
        raise ValueError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if pool is not None:
        return pool.solve(service, shards=shards, shard_strategy=shard_strategy)
    if processes is None or processes == 1:
        return MultiItemOfflineResult(
            per_item=solve_offline_batch(service.items)
        )
    if transport == "shm":
        from .fabric import ServicePool

        with ServicePool(processes) as ephemeral:
            return ephemeral.solve(
                service,
                shards=shards,
                shard_strategy=shard_strategy,
            )
    tasks = _shard_tasks(service, shards or processes, shard_strategy)
    results = parallel_map(_solve_shard, tasks, processes=processes)
    per_item = _merge_shard_results(service, results)
    for name, res in per_item.items():
        res.instance = service.items[name]  # stripped by _solve_shard
    return MultiItemOfflineResult(per_item=per_item)


@dataclass
class MultiItemOnlineService:
    """Run an online policy independently per hosted item.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.online.base.OnlineAlgorithm` per item.
    """

    policy_factory: Callable[[], OnlineAlgorithm]
    runs: Dict[str, OnlineRunResult] = field(default_factory=dict)

    def run(
        self,
        service: MultiItemInstance,
        processes: Optional[int] = None,
        shards: Optional[int] = None,
        shard_strategy: str = "size",
        transport: str = "shm",
        pool: Optional["ServicePool"] = None,
        kernel: str = "auto",
    ) -> "MultiItemOnlineService":
        """Serve every item's stream; returns self for chaining.

        With ``processes > 1`` the items are sharded across a process
        pool (``shards`` bins, default one per process; ``shard_strategy``
        as in :func:`repro.service.sharding.plan_shards`).  The policy
        factory must then be picklable — a module-level callable such as
        the policy class itself, not a lambda; this is checked *before*
        the pool spawns.  ``transport``/``pool`` select how request
        sequences reach the workers, exactly as in
        :func:`solve_offline_multi` — shared-memory fabric by default,
        ``"pickle"`` for the per-call descriptor path.  Each item still
        gets a fresh policy from the factory, so ``runs`` is
        bit-identical to a serial run: same key order, same costs, same
        counters.

        ``kernel`` selects the online execution path (``"auto"`` /
        ``"event"`` / ``"vector"``): with an eligible policy (plain
        ``SpeculativeCaching``), ``"auto"`` serves the whole item batch
        — or each worker its whole shard — with ONE batched
        online-kernel call instead of a per-item hook replay, still
        bit-identical to the serial per-item loop.
        """
        from ..kernels.online import (
            ONLINE_KERNELS,
            run_online_batch,
            vector_policy_config,
        )

        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {transport!r}"
            )
        if kernel not in ONLINE_KERNELS:
            raise ValueError(
                f"unknown online kernel {kernel!r}; valid: {ONLINE_KERNELS}"
            )
        if pool is not None:
            self.runs = pool.serve(
                service,
                self.policy_factory,
                shards=shards,
                shard_strategy=shard_strategy,
                kernel=kernel,
            )
            return self
        if processes is None or processes == 1:
            config = (
                vector_policy_config(self.policy_factory())
                if kernel != "event"
                else None
            )
            if config is not None:
                window_factor, epoch_size, algo_name = config
                self.runs = run_online_batch(
                    service.items,
                    window_factor=window_factor,
                    epoch_size=epoch_size,
                    algorithm_name=algo_name,
                )
            elif kernel == "vector":
                raise ValueError(
                    "kernel='vector' requires a plain SpeculativeCaching "
                    "policy; use kernel='event' or 'auto'"
                )
            else:
                self.runs = {
                    name: self.policy_factory().run(inst, kernel=kernel)
                    for name, inst in service.items.items()
                }
            return self
        if transport == "shm":
            from .fabric import ServicePool

            with ServicePool(processes) as ephemeral:
                self.runs = ephemeral.serve(
                    service,
                    self.policy_factory,
                    shards=shards,
                    shard_strategy=shard_strategy,
                    kernel=kernel,
                )
            return self
        _check_picklable_callable(self.policy_factory)
        tasks = [
            (self.policy_factory,) + task + (kernel,)
            for task in _shard_tasks(service, shards or processes, shard_strategy)
        ]
        results = parallel_map(_run_shard, tasks, processes=processes)
        self.runs = _merge_shard_results(service, results)
        return self

    @property
    def total_cost(self) -> float:
        """Aggregate online cost."""
        if not self.runs:
            raise RuntimeError("call run() first")
        return sum(r.cost for r in self.runs.values())

    def counters(self) -> Dict[str, int]:
        """Summed counters across items."""
        out: Dict[str, int] = {}
        for run in self.runs.values():
            for k, v in run.counters.items():
                out[k] = out.get(k, 0) + v
        return out


def _apportion_counts(weights: np.ndarray, n_total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``n_total`` requests.

    Invariants (the workload generator documents and tests both):
    ``counts.sum() == n_total`` exactly, and ``counts.min() >= 1``
    (callers guarantee ``n_total >= len(weights)``).  Naive
    ``round(weights * n_total)`` breaks the first invariant — rounding
    errors accumulate and the workload over- or under-shoots its budget.

    Floors are distributed first; the leftover goes to the largest
    fractional remainders (ties to the lower index, so the split is
    deterministic).  Items floored to zero are then funded by the
    largest bin, which by pigeonhole holds at least two requests.
    """
    quotas = np.asarray(weights, dtype=float) * n_total
    counts = np.floor(quotas).astype(int)
    remainders = quotas - counts
    deficit = int(n_total - counts.sum())
    if deficit > 0:
        order = np.lexsort((np.arange(len(counts)), -remainders))
        counts[order[:deficit]] += 1
    for idx in np.where(counts == 0)[0]:
        counts[int(np.argmax(counts))] -= 1
        counts[idx] += 1
    return counts


def multi_item_workload(
    num_items: int,
    n_total: int,
    m: int,
    item_zipf: float = 1.0,
    rate: float = 1.0,
    server_zipf: float = 0.8,
    cost: Optional[CostModel] = None,
    rng: RngLike = None,
) -> MultiItemInstance:
    """Synthesise a multi-item service workload.

    Items get request volume by a Zipf law (``item_zipf``); each item's
    own stream is Poisson in time with Zipf-skewed server popularity
    (independent permutations per item so hot servers differ across
    items, as they do in real services).

    Sizing invariant: the result has ``total_requests == n_total``
    *exactly*, with every item receiving at least one request.  Volumes
    are apportioned by the largest-remainder method (deterministic given
    the Zipf weights), so downstream benchmarks can treat ``n_total`` as
    a hard budget rather than a target the rounding may overshoot.
    """
    if num_items < 1 or n_total < num_items:
        raise InvalidInstanceError(
            f"need >= 1 item and n_total >= num_items, got "
            f"{num_items}/{n_total}"
        )
    g = _rng(rng)
    cost = cost if cost is not None else CostModel()
    weights = zipf_weights(num_items, item_zipf)
    counts = _apportion_counts(weights, n_total)
    items: Dict[str, ProblemInstance] = {}
    base_pop = zipf_weights(m, server_zipf)
    for k in range(num_items):
        perm = g.permutation(m)
        pop = base_pop[perm]
        gaps = g.exponential(1.0 / rate, size=int(counts[k]))
        times = np.cumsum(np.maximum(gaps, 1e-12))
        servers = g.choice(m, size=int(counts[k]), p=pop)
        items[f"item-{k}"] = ProblemInstance.from_arrays(
            times,
            servers,
            num_servers=m,
            cost=cost,
            origin=int(g.integers(0, m)),
        )
    return MultiItemInstance(items)
