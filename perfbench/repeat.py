#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each metric's spread.

    python3 perfbench/repeat.py --workload chain-depth10 --seeds 0-9 [--seconds 30]
        [--trace 0|1] [--out summary.json]

Each run is a separate ``run.py`` process, as the benchmark is meant to be
run.  For every metric the summary gives the median over the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the distance between
them as a share of the median.  Use it to check the benchmark is steady and
to quote before/after numbers for a change: run it on both commits with the
same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    values: dict = {}
    units: dict = {}
    failed_runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failed_runs.append({"seed": seed, "exit": proc.returncode, "stderr": proc.stderr[-2000:]})
            print(f"seed {seed}: FAILED (exit {proc.returncode})", flush=True)
            continue
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]

    summary = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
    for name, s in summary.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']}, "
              f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
             "trace": args.trace, "failed_runs": failed_runs, "metrics": summary},
            indent=1, sort_keys=True), encoding="utf-8")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
