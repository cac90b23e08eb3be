#!/usr/bin/env python3
"""One sha256 over everything the benchmark workloads make the CLI write and print.

    python3 tools/output_digest.py

Run from the root of a source checkout.  For every workload of
``perfbench/workloads.py``, seeds 0..5, full and smoke size, it
runs the workload's command through ``aihs.cli.main`` in this process, with
one BLAS thread, then ``aihs verify`` on each certificate it wrote.  One line
per run gives the exit codes and that run's digest; the last line is ``ALL``
and the sha256 over every run: the written file names and bytes, the
standard output and error of each call (temporary paths masked) and the exit
codes.  Two checkouts that print the same ``ALL`` line wrote and printed the
same bytes on every run, so a change that should alter no output can be
checked by running this at the parent commit and after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
import warnings
from pathlib import Path

# one BLAS thread, set before numpy loads, as the benchmark runs
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wls  # noqa: E402
from aihs.cli import main  # noqa: E402


def _call(argv: list[str], tmp: str) -> tuple[int, bytes]:
    """(exit code, stdout and stderr with ``tmp`` masked) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    logging.getLogger().handlers.clear()  # the CLI's log handler then writes to ``err``
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # each run shows its own warnings
        code = main(argv)
    text = f"--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"
    return code, text.replace(tmp, "<tmp>").encode()


def run_digest(wl: wls.Workload, seed: int, smoke: bool) -> tuple[str, str]:
    """(summary line, sha256) of one produce call and the audit of what it wrote."""
    cfg = wls.make_config(wl, seed, smoke=smoke)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, outdir = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, text = _call([wl.command, "--config", str(cfg_path), "--out", str(outdir)], tmp)
        h.update(f"exit {code}\n".encode() + text)
        codes = [code]
        for path in sorted(outdir.iterdir()) if outdir.is_dir() else []:
            h.update(f"file {path.name}\n".encode() + path.read_bytes())
        for cert in wls.certificates(wls.artifact_paths(wl, cfg, outdir)):
            code, text = _call(["verify", str(cert)], tmp)
            h.update(f"verify {cert.name} exit {code}\n".encode() + text)
            codes.append(code)
    size = "smoke" if smoke else "full"
    line = f"{wl.name} seed={seed} {size} exits={','.join(map(str, codes))} {h.hexdigest()[:16]}"
    return line, h.hexdigest()


def main_digest() -> int:
    total = hashlib.sha256()
    for wl in wls.WORKLOADS.values():
        for seed in range(6):
            for smoke in (False, True):
                line, digest = run_digest(wl, seed, smoke)
                print(line, flush=True)
                total.update(digest.encode())
    print(f"ALL {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
