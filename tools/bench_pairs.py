#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised against the claim rule.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD FIRST_SEED PAIRS

PARENT and CHANGE are the roots of two source checkouts.  Pair i runs
``perfbench/run.py --workload WORKLOAD --seed FIRST_SEED+i --trace 0`` from
each, one after the other, the parent first in even pairs and the change
first in odd ones.  Every run lasts ``run_seconds`` of the parent's
``BENCHMARK.json`` (the change must state the same).  Each pair's values are
printed as it ends.  Then, for each end-to-end metric of ``BENCHMARK.json``:
the median and quartiles of each side, the pairs the change won (ties count
for neither), and whether the claim rule holds: the change wins at least
nine tenths of the pairs, and its median is better than the parent's by
more than the parent's interquartile range.  A failed run (a nonzero exit,
a result that is not correct, or no result line) is reported, and its pair
is left out.  Standard library only; this writes nothing itself, and
``run.py`` writes only its result files under each checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The two sides of one metric over complete pairs (``parent[i]`` pairs ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = sign * (p_median - c_median)
    return {"pairs": len(parent), "wins": wins,
            "parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
            "relative": (c_median - p_median) / p_median if p_median else float("nan"),
            "holds": wins >= 0.9 * len(parent) and gain > p_q3 - p_q1}


def _run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """(result, note) of one ``run.py`` call from ``root``; the result is None when it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or result is None or not result.get("correct"):
        tail = (proc.stderr.strip().splitlines() or lines or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    return result, ""


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, first, pairs = argv[2], int(argv[3]), int(argv[4])
    spec = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"] \
            != spec["run_seconds"]:
        print("error: the checkouts state different run_seconds", file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {"parent": {name: [] for name in metrics}, "change": {name: [] for name in metrics}}
    failed = 0
    for i in range(pairs):
        seed = first + i
        order = [("parent", parent), ("change", change)]
        results = {}
        for side, root in order if i % 2 == 0 else order[::-1]:
            results[side], note = _run(root, workload, seed, spec["run_seconds"])
            if results[side] is None:
                failed += 1
                print(f"FAILED {side} run, {workload} seed {seed}: {note}", flush=True)
        if None in results.values():
            continue
        for side, result in results.items():
            for name in metrics:
                values[side][name].append(result["metrics"][name]["value"])
        first_side = "parent" if i % 2 == 0 else "change"
        print(f"pair {i} seed {seed} ({first_side} first): " + "; ".join(
            f"{name} {values['parent'][name][-1]:.6g} -> {values['change'][name][-1]:.6g}"
            for name in metrics), flush=True)
    complete = len(values["parent"][next(iter(metrics))])
    print(f"{workload}: {complete} complete pairs of {pairs}, {failed} failed runs")
    if not complete:
        return 1
    for name, metric in metrics.items():
        s = summarize(values["parent"][name], values["change"][name], metric["better"])
        print(f"{name} ({metric['unit']}, {metric['better']} is better):")
        for side in ("parent", "change"):
            q1, median, q3 = s[side]
            print(f"  {side:6s} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
        print(f"  change {s['relative']:+.1%} in the median, better in {s['wins']} of "
              f"{s['pairs']} pairs; claim rule {'holds' if s['holds'] else 'does not hold'}")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
