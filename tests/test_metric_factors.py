"""Metrics read off triangular factors, not off SVDs of tall blocks.

``compute_metrics`` takes ``independence_sigma_min`` from the R of the
pivoted QR that gives Y's basis, both ranks of ``ai_defect_rank`` from one
Householder R of [basis | e | T basis], and ``functional_independence_sigma_min``
from the R of the unit duals.  Each is held here to the direct computation
on the unit columns: the singular values to 1e-14, the rank excess exactly.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from aihs import cli
from aihs.config import Tolerances, validate_config
from aihs.halfspace import compute_metrics
from aihs.operators import orbit_form
from aihs._linalg import numerical_rank, qr_basis, smallest_singular_value, unit_columns

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


def _run(workload: str | None, cfg: dict | None = None, smoke: bool = False, run: int = 0):
    """(operator, certificate) of a workload's seed-0 config (one run of a sweep), or of ``cfg``."""
    if cfg is None:
        wls = _workloads()
        cfg = wls.make_config(wls.WORKLOADS[workload], 0, smoke=smoke)
        cfg = cfg["runs"][run] if "runs" in cfg else cfg
    return cli._run_certificate(validate_config(cfg, "build"), argparse.Namespace(seed=None))


_ENTIRE = {"schema": "aihs-run/1", "construction": "entire", "m": 8, "k_max": 5,
           "operator": {"family": "forward-weighted-shift", "dim": 256,
                        "weights": {"kind": "geometric", "params": {"ratio": 0.9}}}}
# a Krylov orbit of a dense matrix is minimal only while it is short, so the matrix is
# small enough for the orbit to reach the floor at L = 50; the build fails its rank
# checks (independence_sigma_min 4.3e-11, ai_defect_rank 2), which is what is compared
_DENSE = {"schema": "aihs-run/1", "construction": "entire", "m": 4, "k_max": 3, "seed": 0,
          "operator": {"family": "dense", "dim": 64,
                       "matrix": {"kind": "random-gaussian", "scale": 1e-3}}}
CASES = {
    "entire-n256": lambda: _run(None, _ENTIRE),
    "blaschke-smoke": lambda: _run("blaschke-orbit256", smoke=True),
    "dense-n64": lambda: _run(None, _DENSE),
    "sweep-run": lambda: _run("sweep-small", run=0),
}


def _defect_rank(op, raw, e) -> int:
    """The rank excess as two SVD ranks of full blocks, [T basis | basis | e] and [basis | e]."""
    basis, _ = qr_basis(unit_columns(raw))
    with_e = np.hstack([basis, e.reshape(-1, 1)])
    return numerical_rank(np.hstack([op.apply(basis), with_e])) - numerical_rank(with_e)


@pytest.fixture(scope="module", params=sorted(CASES))
def built(request):
    return CASES[request.param]()


def test_factor_metrics_match_the_direct_ones(built):
    op, cert = built
    assert cert.passed or op.family.value == "dense"
    metrics = cert.metrics
    assert abs(metrics["independence_sigma_min"]
               - smallest_singular_value(unit_columns(cert.raw_vectors))) <= 1e-14
    assert abs(metrics["functional_independence_sigma_min"]
               - smallest_singular_value(unit_columns(cert.duals))) <= 1e-14
    assert metrics["ai_defect_rank"] == _defect_rank(op, cert.raw_vectors, cert.defect_vector)


def test_a_random_span_has_a_defect_rank_above_zero():
    # random vectors in place of the resolvent ones: T moves their span far out of Y + span{e}
    op, cert = CASES["dense-n64"]()
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((op.dim, 4)) + 1j * rng.standard_normal((op.dim, 4))
    orbit = orbit_form(op, cert.defect_vector, cert.orbit_length)
    metrics, checks = compute_metrics(op, cert.defect_vector, orbit, raw, cert.lambdas,
                                      cert.duals, cert.law, cert.k_max, Tolerances())
    assert metrics["ai_defect_rank"] == _defect_rank(op, raw, cert.defect_vector) == 4
    assert not checks["ai_defect_rank"]["passed"]
    assert abs(metrics["independence_sigma_min"]
               - smallest_singular_value(unit_columns(raw))) <= 1e-14


def test_a_zero_resolvent_column_reads_sigma_min_zero():
    op, cert = CASES["dense-n64"]()
    raw = np.array(cert.raw_vectors)
    raw[:, 1] = 0.0
    orbit = orbit_form(op, cert.defect_vector, cert.orbit_length)
    metrics, _ = compute_metrics(op, cert.defect_vector, orbit, raw, cert.lambdas, cert.duals,
                                 cert.law, cert.k_max, Tolerances())
    assert metrics["independence_sigma_min"] == 0.0
    assert metrics["ai_defect_rank"] == _defect_rank(op, raw, cert.defect_vector)


def test_metrics_factor_no_tall_block(monkeypatch):
    # one pivoted QR of the resolvent vectors, one R for both ranks, one R for the
    # duals; every SVD is of a block with no more rows than columns
    op, cert = CASES["entire-n256"]()
    orbit = orbit_form(op, cert.defect_vector, cert.orbit_length)
    calls = []
    for name in ("qr", "svd"):
        original = getattr(np.linalg, name)

        def recording(a, *args, name=name, original=original, **kwargs):
            calls.append((name, np.shape(a), kwargs.get("mode", "reduced")))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    metrics, _ = compute_metrics(op, cert.defect_vector, orbit, cert.raw_vectors, cert.lambdas,
                                 cert.duals, cert.law, cert.k_max, Tolerances())
    assert metrics == cert.metrics
    qrs = [(shape, mode) for name, shape, mode in calls if name == "qr"]
    m, k = cert.m_achieved, cert.k_max + 1
    assert [(cols, mode) for (_, cols), mode in qrs] == [(m, "reduced"), (2 * m + 1, "r"), (k, "r")]
    svds = [shape for name, shape, _ in calls if name == "svd"]
    assert len(svds) == 4 and all(rows <= cols for rows, cols in svds)
