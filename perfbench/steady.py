"""Steadiness check: two sets of runs of the same code, compared per metric.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed 1]

Each set runs every chosen workload ``--runs`` times with consecutive
seeds (the second set continues where the first stopped).  For every
end-to-end metric it prints both sets' medians and quartiles, each set's
quartile spread as a share of its median, and the gap of the second
median from the first, against the metric's bound from
``BENCHMARK.json``, then every run's values.  A metric passes when both
spreads (except for ``setup_s``) and the gap in the worse direction are
within the bound.
Exits 1 if any metric fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

from common import ROOT, load_spec


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(metric: dict, first: List[float], second: List[float]) -> Dict[str, object]:
    q1, med1, q3 = quartiles(first)
    q1b, med2, q3b = quartiles(second)
    spread1, spread2 = (q3 - q1) / med1, (q3b - q1b) / med2
    worse = (med2 - med1) / med1 if metric["better"] == "lower" else (med1 - med2) / med1
    bound = metric["bound"]
    ok = worse <= bound and (metric["name"] == "setup_s" or max(spread1, spread2) <= bound)
    return {"q1": q1, "med1": med1, "q3": q3, "q1b": q1b, "med2": med2, "q3b": q3b,
            "spread1": spread1, "spread2": spread2, "worse": worse, "bound": bound, "ok": ok}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    all_ok = True
    for workload in args.workload or names:
        sets = []
        for s in range(2):
            base = args.seed + s * args.runs
            sets.append([run_once(spec, workload, base + k) for k in range(args.runs)])
        print(f"{workload}: {args.runs} runs per set, seeds from {args.seed}")
        print(f"  {'metric':<18}{'q1':>10}{'median1':>10}{'q3':>10}{'q1b':>10}{'median2':>10}"
              f"{'q3b':>10}{'spread1':>9}{'spread2':>9}{'gap':>8}{'bound':>7}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare(metric, [r[name] for r in sets[0]], [r[name] for r in sets[1]])
            all_ok &= row["ok"]
            print(f"  {name:<18}" + "".join(
                f"{row[k]:>10.4g}" for k in ("q1", "med1", "q3", "q1b", "med2", "q3b"))
                + f"{row['spread1']:>8.1%} {row['spread2']:>8.1%}{row['worse']:>+8.1%}"
                f"{row['bound']:>7.2f}  {'ok' if row['ok'] else 'FAIL'}")
        print("  values: " + json.dumps(sets))
        sys.stdout.flush()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
