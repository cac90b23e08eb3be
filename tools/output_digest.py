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

After ``ALL`` come the runs of ``EXTRA_RUNS``, paths no workload takes (a
Donoghue build, a dense solve, a chain with ``codim``, and two inputs that
must fail), each followed by ``aihs verify`` of every certificate it wrote.
One line per run, then ``EXTRA`` and the sha256 over them; they stay out of
``ALL``, so ``ALL`` keeps its meaning across commits.
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


def _shift(family: str, dim: int, ratio: float) -> dict:
    return {"family": family, "dim": dim, "weights": {"kind": "geometric", "params": {"ratio": ratio}}}


def _run(operator: dict, construction: str, m: int, k_max: int, label: str, **extra) -> dict:
    return {"schema": "aihs-run/1", "operator": operator, "construction": construction,
            "m": m, "k_max": k_max, "label": label, **extra}


_DONOGHUE = "donoghue-backward-shift"
# the forward geometric 0.9 shift at N = 16, written out as a matrix
_DENSE = {"family": "dense", "dim": 16, "matrix": {"kind": "explicit", "entries": [
    [0.9 ** (j + 1) if i == j + 1 else 0.0 for j in range(16)] for i in range(16)]}}

#: (name, command, config) of each run past the workloads.
EXTRA_RUNS = (
    ("donoghue-entire", "build", _run(_shift(_DONOGHUE, 256, 0.999), "entire", 6, 3, "d999",
                                      seed_vector={"kind": "basis", "index": 255})),
    ("donoghue-blaschke", "build", _run(_shift(_DONOGHUE, 128, 0.999), "blaschke", 3, 2, "dbl",
                                        seed_vector={"kind": "basis", "index": 127})),
    ("dense-explicit", "build", _run(_DENSE, "entire", 3, 2, "dense")),
    ("chain-codim", "chain", {"schema": "aihs-chain/1", "operator": _shift(_DONOGHUE, 64, 0.995),
                              "depth": 6, "codim": 3, "witness": True, "label": "codim"}),
    # every resolvent vector overflows its norm: a one-line error, nothing written
    ("donoghue-overflow", "build", _run(_shift(_DONOGHUE, 256, 0.995), "entire", 6, 3, "d995",
                                        seed_vector={"kind": "basis", "index": 255})),
    # the second run's seed vector is too short: a one-line error, nothing written
    ("sweep-short-seed", "sweep", {"schema": "aihs-sweep/1", "label": "short", "runs": [
        _run(_shift("forward-weighted-shift", 16, 0.9), "entire", 3, 2, "a"),
        _run(_shift("forward-weighted-shift", 16, 0.9), "entire", 3, 2, "b",
             seed_vector={"kind": "explicit", "values": [1, 0, 0]})]}),
)


def _digest(command: str, cfg: dict, certificates) -> tuple[list[int], str]:
    """(exit codes, sha256) of one produce call and ``aihs verify`` of each of
    ``certificates(outdir)``."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, outdir = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, text = _call([command, "--config", str(cfg_path), "--out", str(outdir)], tmp)
        h.update(f"exit {code}\n".encode() + text)
        codes = [code]
        for path in sorted(outdir.iterdir()) if outdir.is_dir() else []:
            h.update(f"file {path.name}\n".encode() + path.read_bytes())
        for cert in certificates(outdir):
            code, text = _call(["verify", str(cert)], tmp)
            h.update(f"verify {cert.name} exit {code}\n".encode() + text)
            codes.append(code)
    return codes, h.hexdigest()


def _line(name: str, codes: list[int], digest: str) -> str:
    return f"{name} exits={','.join(map(str, codes))} {digest[:16]}"


def run_digest(wl: wls.Workload, seed: int, smoke: bool) -> tuple[str, str]:
    """(summary line, sha256) of one produce call and the audit of what it wrote."""
    cfg = wls.make_config(wl, seed, smoke=smoke)
    codes, digest = _digest(wl.command, cfg,
                            lambda outdir: wls.certificates(wls.artifact_paths(wl, cfg, outdir)))
    size = "smoke" if smoke else "full"
    return _line(f"{wl.name} seed={seed} {size}", codes, digest), digest


def main_digest() -> int:
    total = hashlib.sha256()
    for wl in wls.WORKLOADS.values():
        for seed in range(6):
            for smoke in (False, True):
                line, digest = run_digest(wl, seed, smoke)
                print(line, flush=True)
                total.update(digest.encode())
    print(f"ALL {total.hexdigest()}")
    extra = hashlib.sha256()
    for name, command, cfg in EXTRA_RUNS:
        codes, digest = _digest(command, cfg, lambda outdir: sorted(outdir.glob("*.cert.json")))
        print(_line(name, codes, digest), flush=True)
        extra.update(digest.encode())
    print(f"EXTRA {extra.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
