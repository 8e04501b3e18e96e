"""``ratio-sweep``: the TTL(γ) competitive-ratio sweep over short instances.

One op is ``ttl_gamma_sweep`` over a block of seeded short
``poisson_zipf_instance``s with γ ∈ {0.5, 1, 2}.  The SC/TTL(γ) kernel
(``kernels.online``) takes nearly all of it and the batch DP for OPT a
small share: many tiny items, the opposite shape of ``trace-opt``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from common import (
    HostClock,
    Tracer,
    batch_sweep_bytes,
    median,
    peak_rss_mb,
    repeat_for,
    self_time_table,
    summarize,
)

GAMMAS = (0.5, 1.0, 2.0)
#: SC epochs of m transfers; Theorem 3 holds for any epoch size, and the
#: resets exercise the kernel's epoch path.
EPOCH_SIZE = 8
#: Block shape: instances per op, requests per instance, fleet size.
SIZES = {"instances": 1000, "n": 64, "m": 8}
#: Instances re-run through the per-event oracle to check the γ=1 costs.
ORACLE_SUBSET = 16
OP = "competitive.ttl_gamma_sweep"


def build_block(seed: int, instances: int, n: int, m: int) -> list:
    from repro.workloads.synthetic import poisson_zipf_instance

    children = np.random.SeedSequence(seed).spawn(instances)
    return [
        poisson_zipf_instance(n, m, rng=np.random.default_rng(child))
        for child in children
    ]


def check_rows(rows: List[dict], block: list, seed: int, subset: int = ORACLE_SUBSET) -> Dict[str, bool]:
    """Output checks of one sweep result against the paper's guarantees."""
    from repro.analysis.competitive import ttl_gamma_sweep

    by_gamma = {row["gamma"]: row["ratios"] for row in rows}
    picks = sorted(
        np.random.default_rng(seed).choice(len(block), size=min(subset, len(block)), replace=False)
    )
    oracle = ttl_gamma_sweep(
        [block[i] for i in picks], [1.0], EPOCH_SIZE, kernel="event"
    )[0]["ratios"]
    return {
        "gammas_complete": sorted(by_gamma) == sorted(GAMMAS)
        and all(len(r) == len(block) for r in by_gamma.values()),
        "ratios_at_least_1": all(r >= 1.0 - 1e-9 for r in sum(by_gamma.values(), [])),
        "sc_worst_at_most_3": max(by_gamma.get(1.0, [np.inf])) <= 3.0,
        "gamma1_matches_event_kernel": oracle == [by_gamma[1.0][i] for i in picks],
    }


def _traced_sweep(tracer: Tracer, block: list) -> List[dict]:
    from repro.analysis import competitive
    from repro.kernels.batch import BatchLayout

    with tracer.patched(BatchLayout, "from_instances", "batch.pack"), \
            tracer.patched(competitive, "solve_layout", "batch.sweep"), \
            tracer.patched(competitive, "sweep_layout", "online.sweep"), \
            tracer.span(OP):
        return competitive.ttl_gamma_sweep(block, GAMMAS, EPOCH_SIZE)


def run(seed: int, seconds: float, trace: bool, work, sizes: Optional[dict] = None) -> dict:
    from repro.analysis.competitive import ttl_gamma_sweep
    from repro.core.instance import ProblemInstance
    from repro.kernels.batch import BatchLayout
    from repro.kernels.online import sweep_layout

    sizes = dict(SIZES, **(sizes or {}))
    clock = HostClock()

    def timed_build() -> list:
        with clock.measure() as m:
            block = build_block(seed, sizes["instances"], sizes["n"], sizes["m"])
        clock.add("setup_s", m["wall"], m["scale"])
        return block

    block = timed_build()
    events = sum(inst.n for inst in block)

    rows = ttl_gamma_sweep(block, GAMMAS, EPOCH_SIZE)  # warm-up
    attempted = failed = 0
    op_s, traced_s = [], []
    tracer = Tracer()
    for k in repeat_for(seconds):
        traced_op = trace and k % 2 == 1
        attempted += 1
        try:
            tracer.op = k
            with clock.measure() as m:
                if traced_op:
                    rows = _traced_sweep(tracer, block)
                else:
                    rows = ttl_gamma_sweep(block, GAMMAS, EPOCH_SIZE)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            failed += 1
            continue
        if traced_op:
            traced_s.append(m["wall"] * m["scale"])
        else:
            op_s.append(m["wall"] * m["scale"])
            clock.add("p50_ms", m["wall"] * 1e3, m["scale"])
            clock.add("cpu_us_per_event", m["cpu"] / events * 1e6, m["scale"])
        # Set-up is sampled all through the run, so its median does not
        # hang on the host's state in the first second.
        timed_build()

    checks = check_rows(rows, block, seed)
    metrics = dict(clock.metrics(), peak_rss_mb=peak_rss_mb())
    report = [
        f"block: {len(block)} instances, {events} requests, m={sizes['m']}, "
        f"gammas={list(GAMMAS)}, epoch {EPOCH_SIZE}; {len(op_s)} untraced ops",
        f"instances_per_s (host-scaled): {len(block) / median(op_s):.1f}",
        f"worst ratio per gamma: "
        + ", ".join(f"{row['gamma']}: {row['worst']:.4f}" for row in rows),
    ]
    if trace:
        with tracer.patched(ProblemInstance, "from_arrays", "instance.prescan"):
            tracer.op = -1
            with tracer.span("setup.build_block"):
                build_block(seed, sizes["instances"], sizes["n"], sizes["m"])
        prescan, _ = summarize(tracer.breakdown("setup.build_block"))
        layout = BatchLayout.from_instances([(str(i), inst) for i, inst in enumerate(block)])
        grid = sweep_layout(layout, GAMMAS, EPOCH_SIZE)
        med, tot = summarize(tracer.breakdown(OP))
        metrics.update({
            "instance.prescan_ms": prescan["instance.prescan"] * 1e3,
            "online.sweep_ms": med["online.sweep"] * 1e3,
            "online.events_per_s": events * len(GAMMAS) / med["online.sweep"],
            "batch.pack_ms": med["batch.pack"] * 1e3,
            "batch.sweep_ms": med["batch.sweep"] * 1e3,
            "competitive.overhead_ms": med[OP] * 1e3,
            "online.transfers": sum(r.num_transfers for row in grid for r in row),
            "online.epochs": sum(r.counters["epochs"] for row in grid for r in row),
            "batch.items": layout.num_items,
            "batch.requests": int(layout.nreq.sum()),
            "batch.bytes_moved": batch_sweep_bytes(layout),
            "trace.overhead_pct": (median(traced_s) / median(op_s) - 1.0) * 100.0,
        })
        report.append(f"per-layer self time over {len(traced_s)} traced ops:")
        report += self_time_table(
            [(name, tot[name] * 1e3) for name in ("online.sweep", "batch.sweep", "batch.pack")]
            + [(f"{OP} (unaccounted)", tot[OP] * 1e3)],
            tot[""] * 1e3, "ms",
        )
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "metrics": metrics, "report": report, "tracer": tracer if trace else None}
