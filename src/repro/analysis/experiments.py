"""Named-experiment registry: regenerate paper tables from the CLI.

Each entry maps an experiment id from DESIGN.md's index to a compact
function returning the regenerated table as text.  The pytest benchmark
suite remains the authoritative, assertion-carrying harness; this
registry exists so ``repro-cache experiment <id>`` can reproduce any
table without a test runner — the "show me the numbers" path for a
downstream user.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..kernels.batch import solve_offline_batch
from ..offline.dp import solve_offline
from ..online.double_transfer import double_transfer
from ..online.reductions import verify_theorem3
from ..online.speculative import SpeculativeCaching
from .competitive import adversarial_gap_sweep, ratio_statistics
from .tables import format_table

__all__ = ["EXPERIMENTS", "run_experiment", "list_experiments"]


def _exp_fig6() -> str:
    from ..paperdata import fig6_instance

    inst = fig6_instance()
    res = solve_offline(inst)
    rows = [
        {
            "i": i,
            "t_i": float(inst.t[i]),
            "s_i": f"s^{int(inst.srv[i]) + 1}",
            "b_i": float(inst.b[i]),
            "B_i": float(inst.B[i]),
            "C(i)": float(res.C[i]),
            "D(i)": float(res.D[i]),
        }
        for i in range(inst.n + 1)
    ]
    return format_table(
        rows, precision=4, title="Fig 6 running example (paper: C(7)=8.9)"
    )


def _exp_fig2() -> str:
    from ..paperdata import fig2_instance

    inst = fig2_instance()
    sched = solve_offline(inst).schedule()
    rows = [
        {
            "caching": sched.caching_cost(inst.cost),
            "transfer": sched.transfer_cost(inst.cost),
            "total": sched.total_cost(inst.cost),
            "paper": "3.2 + 4.0 = 7.2",
        }
    ]
    return format_table(rows, precision=4, title="Fig 2 decomposition")


def _exp_fig7() -> str:
    from ..paperdata import fig7_instance
    from ..schedule.diagram import render_schedule

    inst = fig7_instance()
    run = SpeculativeCaching(epoch_size=5).run(inst)
    table = format_table(
        [dict(run.counters, cost=run.cost)],
        precision=4,
        title="Fig 7 SC epoch (5 transfers)",
    )
    return table + "\n" + render_schedule(run.schedule, inst)


def _exp_dt_chain() -> str:
    from ..workloads.synthetic import poisson_zipf_instance

    rows = []
    for seed in range(5):
        inst = poisson_zipf_instance(60, 5, rate=1.2, rng=seed)
        rep = verify_theorem3(inst)
        rows.append(
            {
                "seed": seed,
                "Π(SC)": rep.sc_cost,
                "Π(OPT)": rep.opt_cost,
                "ratio": rep.ratio,
                "Π(DT')": rep.dt_reduced,
                "3n'λ": rep.lemma7_bound,
                "Π(OPT')": rep.opt_reduced,
                "n'λ": rep.lemma8_bound,
                "holds": rep.holds(),
            }
        )
    return format_table(rows, precision=5, title="Theorem 3 chain (Figs 8-10)")


def _exp_table1() -> str:
    from ..classic.paging import LRU, BeladyMIN, simulate_paging
    from ..workloads.synthetic import poisson_zipf_instance

    inst = poisson_zipf_instance(400, 8, rate=1.5, zipf_s=1.1, rng=42)
    res = solve_offline(inst)
    pages = inst.srv[1:].tolist()
    belady = simulate_paging(pages, 3, BeladyMIN())
    lru = simulate_paging(pages, 3, LRU())
    sc = SpeculativeCaching().run(inst)
    rows = [
        {
            "regime": "classic (capacity k=3)",
            "off-line optimum": f"Belady hit ratio {belady.hit_ratio:.3f}",
            "online": f"LRU hit ratio {lru.hit_ratio:.3f}",
        },
        {
            "regime": "cloud (cost-driven)",
            "off-line optimum": f"O(mn) DP cost {res.optimal_cost:.4g}",
            "online": f"SC cost {sc.cost:.4g} "
            f"(ratio {sc.cost / res.optimal_cost:.3f})",
        },
    ]
    return format_table(rows, title="Table I contrast, regenerated")


def _exp_ratio() -> str:
    from ..workloads.synthetic import mmpp_instance, poisson_zipf_instance

    rows = []
    for name, insts in (
        (
            "poisson-zipf",
            [poisson_zipf_instance(120, 6, rate=1.2, rng=s) for s in range(8)],
        ),
        ("bursty-mmpp", [mmpp_instance(120, 6, rng=s) for s in range(8)]),
    ):
        stats = ratio_statistics(insts)
        rows.append(
            {
                "workload": name,
                "mean": stats.mean,
                "p95": stats.p95,
                "worst": stats.worst,
                "bound": 3.0,
            }
        )
    return format_table(rows, precision=4, title="C2: empirical SC/OPT ratios")


def _exp_adversary() -> str:
    rows = adversarial_gap_sweep(m=4, rounds=20)
    return format_table(
        rows, precision=4, title="C2: cyclic adversary gap sweep (m=4)"
    )


def _exp_ladder() -> str:
    from ..online.horizon import RecedingHorizonPlanner
    from ..online.predictive import (
        MarkovPredictor,
        OracleNextRequest,
        PredictiveCaching,
    )
    from ..workloads.synthetic import poisson_zipf_instance

    insts = [poisson_zipf_instance(100, 5, rate=1.0, rng=s) for s in range(6)]
    batch = solve_offline_batch([(str(k), i) for k, i in enumerate(insts)])
    opts = [res.optimal_cost for res in batch.values()]
    rows = []
    for name, factory in (
        ("SC", lambda: SpeculativeCaching()),
        ("markov", lambda: PredictiveCaching(MarkovPredictor())),
        ("lookahead k=5", lambda: PredictiveCaching(OracleNextRequest(horizon=5))),
        ("oracle", lambda: PredictiveCaching(OracleNextRequest())),
        ("MPC k=5", lambda: RecedingHorizonPlanner(horizon=5)),
    ):
        ratios = [factory().run(i).cost / o for i, o in zip(insts, opts)]
        rows.append({"policy": name, "mean ratio": float(np.mean(ratios))})
    rows.append({"policy": "OPT", "mean ratio": 1.0})
    return format_table(rows, precision=4, title="E2: information ladder")


def _exp_multi_item() -> str:
    from ..service.multi import (
        MultiItemOnlineService,
        multi_item_workload,
        solve_offline_multi,
    )

    svc = multi_item_workload(8, 400, 8, rng=8)
    off = solve_offline_multi(svc)
    online = MultiItemOnlineService(lambda: SpeculativeCaching()).run(svc)
    rows = [
        {
            "items": svc.num_items,
            "requests": svc.total_requests,
            "opt cost": off.total_cost,
            "SC cost": online.total_cost,
            "SC/OPT": online.total_cost / off.total_cost,
        }
    ]
    return format_table(rows, precision=4, title="E3: multi-item service")


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "fig2": _exp_fig2,
    "fig6": _exp_fig6,
    "fig7": _exp_fig7,
    "dt-chain": _exp_dt_chain,
    "table1": _exp_table1,
    "ratio": _exp_ratio,
    "adversary": _exp_adversary,
    "ladder": _exp_ladder,
    "multi-item": _exp_multi_item,
}


def list_experiments() -> List[str]:
    """Registered experiment ids, sorted."""
    return sorted(EXPERIMENTS)


def run_experiment(name: str) -> str:
    """Regenerate one experiment's table; raises ``KeyError`` on unknown id."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {list_experiments()}"
        )
    return EXPERIMENTS[name]()
