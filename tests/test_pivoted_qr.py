"""Column-pivoted QR without LAPACK's geqp3.

``qr_basis`` takes its column order from a pivoted Cholesky of the Gram
matrix.  The order is pinned to scipy's pivoted QR, and the benchmark's
smoke Blaschke input, whose ``ai_residual`` is round-off amplified by a
nearly dependent resolvent basis, must pass for every seed: unpivoted QR
failed 5 of these 40 seeds.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from aihs._linalg import greedy_column_order, qr_basis
from aihs.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """``perfbench/workloads.py``, loaded by path: ``perfbench`` is not a package."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("seed", range(8))
def test_greedy_column_order_is_the_geqp3_order(seed):
    # distinct column norms, so no pivot is decided by round-off
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(1, 12))
    a = rng.standard_normal((40, cols)) + 1j * rng.standard_normal((40, cols))
    a *= np.exp(rng.uniform(-2.0, 2.0, cols))
    _, _, pivots = scipy.linalg.qr(a, mode="economic", pivoting=True)
    assert greedy_column_order(a).tolist() == pivots.tolist()
    q, r = qr_basis(a)
    assert np.allclose(q.conj().T @ q, np.eye(cols), rtol=0, atol=1e-14)
    assert np.allclose(q @ r, a[:, pivots], rtol=0, atol=1e-13 * np.abs(a).max())


def test_smoke_blaschke_input_passes_on_every_seed(tmp_path):
    wls = _workloads()
    wl = wls.WORKLOADS["blaschke-orbit256"]
    failed = []
    for seed in range(40):
        cfg = wls.make_config(wl, seed, smoke=True)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["build", "--config", str(path), "--out", str(tmp_path)])
        doc = json.loads((tmp_path / f"{cfg['label']}.cert.json").read_text(encoding="utf-8"))
        if code != 0 or not all(check["passed"] for check in doc["checks"].values()):
            failed.append((seed, float.fromhex(doc["metrics"]["ai_residual"])))
    assert failed == []
