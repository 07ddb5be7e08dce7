"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``bench/run.py --jsonl FILE`` appends.  Run the
two sides alternately (parent, change, parent, ...) with the same
``--seconds`` so that the i-th records of a workload form a pair.  Only
untraced records count.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the share of
pairs the change won (ties count for neither side) and a verdict:

* ``regression`` -- the change's median is worse than the parent's by more
  than the metric's bound, or the share of failed simulations rose;
* ``win`` -- the change won at least 9 of 10 pairs and its median is better
  by more than the parent's interquartile spread;
* ``unresolved`` -- either side's interquartile spread, as a share of its
  median, is wider than the bound;
* ``same`` -- otherwise.

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced run results per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """(verdict, win share) for one metric; ``better`` is lower or higher."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    if sign * (cm - pm) / pm > bound:
        return "regression", share
    if share >= WIN_SHARE and sign * (pm - cm) > p3 - p1:
        return "win", share
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound:
        return "unresolved", share
    return "same", share


def failed_share(results: list[dict]) -> float:
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]],
            end_to_end: list[dict]) -> list[dict]:
    """One row per workload x metric, plus one failed-share row per workload."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for metric in end_to_end:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v, share = verdict(pv, cv, metric["bound"], metric["better"])
            rows.append({"workload": workload, "metric": name, "verdict": v,
                         "win_share": share, "parent": quartiles(pv),
                         "change": quartiles(cv)})
        pf, cf = failed_share(p_runs), failed_share(c_runs)
        rows.append({"workload": workload, "metric": "failed_frac",
                     "verdict": "regression" if cf > pf else "same",
                     "win_share": float("nan"), "parent": (pf, pf, pf),
                     "change": (cf, cf, cf)})
    return rows


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    rows = compare(load(args.parent), load(args.change), end_to_end)
    print(f"{'workload':<20} {'metric':<13} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>5}  verdict")
    for r in rows:
        side = ["{1:.5g} [{0:.5g}, {2:.5g}]".format(*r[k]) for k in ("parent", "change")]
        print(f"{r['workload']:<20} {r['metric']:<13} {side[0]:<34} {side[1]:<34} "
              f"{r['win_share']:>5.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
