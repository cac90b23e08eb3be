#!/usr/bin/env python3
"""Build and audit every weight ratio a seed can draw, against the gate.

    python3 perfbench/check_grid.py [--workload entire-n1024|chain-depth10]

The entire and chain workloads draw their ratio from a finite grid
(``workloads.ENTIRE_RATIOS``, ``workloads.CHAIN_RATIOS``) so that the stored
verdicts hold for every seed.  This runs one gated cycle per grid value and
prints each verdict; the exit code is 0 only when all of them pass.  Run it
after a change that may move a verdict (zeros kept, chain depth).  Both grids
take about two minutes together on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys

import run as bench
import workloads as wls

GRIDS = {"entire-n1024": wls.ENTIRE_RATIOS, "chain-depth10": wls.CHAIN_RATIOS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GRIDS), action="append")
    args = parser.parse_args(argv)
    root = bench.HERE.parent
    main_fn = bench.load_cli(root)
    workdir = root / bench.WORK_DIR / "check-grid"
    failures = 0
    try:
        for name in args.workload or sorted(GRIDS):
            wl = wls.WORKLOADS[name]
            for ratio in GRIDS[name]:
                cfg = wls.make_config(wl, 0)
                cfg["operator"]["weights"]["params"]["ratio"] = ratio
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                cfg_path = workdir / f"{name}.json"
                cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
                try:
                    bench.run_cycle(wl, cfg, cfg_path, workdir / "out", main_fn)
                    verdict = "pass"
                except Exception as exc:  # report every failing value, not only the first
                    failures += 1
                    verdict = f"FAILED {type(exc).__name__}: {exc}"
                print(f"{name} ratio={ratio}: {verdict}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only while another run uses it
            workdir.parent.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
