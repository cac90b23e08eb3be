"""Structured shift operators: O(N) apply and solve against the dense matrix.

The shift families never build their N x N matrix on the certificate path;
these tests pin the structured kernels to the dense ``op.matrix`` and guard
that the build and audit paths stay off the dense solve and the opt-in
condition estimate.  No run imports scipy or jsonschema, which the tests
use only as references.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import aihs
from aihs.errors import SingularResolventError
from aihs.halfspace import build_entire, verify_certificate
from aihs.operators import Family, build_operator, geometric_weights
from aihs.resolvent import ResolventSolver

SHIFTS = (Family.FORWARD, Family.DONOGHUE)


@st.composite
def shift_operators(draw, min_dim=2, max_dim=64):
    """A shift of either family with random nonzero complex weights.

    Moduli lie on a 0.01 grid in [0.05, 2] and are distinct, so sorting
    them gives the strictly decreasing sequence the Donoghue family
    requires, with gaps that survive rounding of the complex weights.
    """
    family = draw(st.sampled_from(SHIFTS))
    dim = draw(st.integers(min_dim, max_dim))
    steps = draw(
        st.lists(st.integers(5, 200), min_size=dim - 1, max_size=dim - 1, unique=True)
    )
    mods = [k / 100 for k in steps]
    phases = draw(
        st.lists(st.floats(0.0, 2 * np.pi), min_size=dim - 1, max_size=dim - 1)
    )
    if family is Family.DONOGHUE:
        mods = sorted(mods, reverse=True)
    weights = [m * np.exp(1j * p) for m, p in zip(mods, phases)]
    return build_operator(family, dim, weights=weights)


def _random_block(seed, dim, cols):
    rng = np.random.default_rng(seed)
    shape = (dim,) if cols == 0 else (dim, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _shift_point(seed, op):
    """A point z with |z| at least max|w|: cond(z - T) stays below about 2N,
    so two backward-stable solvers agree to a few ulps times N."""
    rng = np.random.default_rng(seed)
    radius = op.norm_estimate * rng.uniform(1.0, 3.0)
    return radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(op=shift_operators(), cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_structured_apply_matches_dense_matrix(op, cols, seed):
    x = _random_block(seed, op.dim, cols)
    assert op.apply(x).shape == x.shape
    assert_allclose(op.apply(x), op.matrix @ x, rtol=1e-14, atol=0)
    assert_allclose(op.adjoint_apply(x), op.matrix.conj().T @ x, rtol=1e-14, atol=0)


@settings(max_examples=60, deadline=None)
@given(op=shift_operators(), cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_banded_solve_matches_dense_lu(op, cols, seed):
    z = _shift_point(seed, op)
    rhs = _random_block(seed + 1, op.dim, cols)
    solve = op.shifted_solver(z)  # one vector per call
    h = solve(rhs)[0] if rhs.ndim == 1 else np.column_stack([solve(col)[0] for col in rhs.T])
    a = np.diag(np.full(op.dim, z)) - op.matrix
    ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), rhs)
    assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(op=shift_operators(min_dim=12, max_dim=12), seed=st.integers(0, 2**32 - 1))
def test_condition_estimate_on_shift_matches_svd(op, seed):
    lam = 1.0 / _shift_point(seed, op)
    s = np.linalg.svd(np.diag(np.full(12, 1.0 / lam)) - op.matrix, compute_uv=False)
    exact = s[0] / s[-1]
    solver = ResolventSolver(op, lam)
    assert 0.5 * exact <= solver.condition_estimate() <= 1.01 * exact


@pytest.mark.parametrize("family", SHIFTS)
def test_exactly_singular_shift_solve_is_a_singular_resolvent(family):
    # lam = inf puts z = 1/lam = 0, and z - T = -T is nilpotent
    op = build_operator(family, 4, weights=[0.5, 0.25, 0.125])
    with pytest.raises(SingularResolventError):
        ResolventSolver(op, np.inf).solve(np.ones(4))


@pytest.fixture
def spies(monkeypatch):
    calls = {"dense_solve": 0, "condition_estimate": 0}
    dense_solve = np.linalg.solve
    condition_estimate = ResolventSolver.condition_estimate

    def counted_solve(*args, **kwargs):
        calls["dense_solve"] += 1
        return dense_solve(*args, **kwargs)

    def counted_condition(self, *args, **kwargs):
        calls["condition_estimate"] += 1
        return condition_estimate(self, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(ResolventSolver, "condition_estimate", counted_condition)
    return calls


def _build_and_verify(op):
    e = np.zeros(op.dim, dtype=np.complex128)
    e[0] = 1.0
    cert = build_entire(op, e, m=8, k_max=5)
    report = verify_certificate(op, cert)
    assert cert.passed and report["passed"]


def test_shift_build_and_verify_skip_dense_lu_and_condition(spies):
    op = build_operator(Family.FORWARD, 512, weights=geometric_weights(512, 0.9))
    _build_and_verify(op)
    assert spies == {"dense_solve": 0, "condition_estimate": 0}
    assert "matrix" not in vars(op)  # the N x N matrix was never built


def test_dense_build_and_verify_still_use_lu(spies):
    shift = build_operator(Family.FORWARD, 64, weights=geometric_weights(64, 0.9))
    op = build_operator(Family.DENSE, 64, matrix=shift.matrix)
    _build_and_verify(op)
    assert spies["dense_solve"] > 0
    assert spies["condition_estimate"] == 0


_LOADS_REFERENCES = textwrap.dedent("""
    import contextlib, io, json, sys
    from aihs.cli import main

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema"))

    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        print(json.dumps([argv[0], loaded()[:3]]))
""")


def _run_config(label, operator, **extra):
    return {"schema": "aihs-run/1", "operator": operator, "construction": "entire",
            "m": 4, "k_max": 3, "label": label, **extra}


def test_no_run_imports_scipy_or_jsonschema(tmp_path):
    shift = {"family": "forward-weighted-shift", "dim": 64,
             "weights": {"kind": "geometric", "params": {"ratio": 0.9}}}
    donoghue = {"family": "donoghue-backward-shift", "dim": 32,
                "weights": {"kind": "geometric", "params": {"ratio": 0.5}}}
    dense = {"family": "dense", "dim": 32,
             "matrix": {"kind": "random-gaussian", "scale": 0.5}}
    configs = {
        "build": _run_config("shift", shift),
        "chain": {"schema": "aihs-chain/1", "operator": donoghue, "depth": 6, "label": "chain"},
        "sweep": {"schema": "aihs-sweep/1", "label": "sweep",
                  "runs": [_run_config("sweep-a", shift), _run_config("sweep-b", donoghue)]},
        "dense": _run_config("dense", dense, seed=0),
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = str(tmp_path)
    calls = [
        ["build", "--config", f"{out}/build.json", "--out", out],
        ["verify", f"{out}/shift.cert.json"],
        ["chain", "--config", f"{out}/chain.json", "--out", out],
        ["sweep", "--config", f"{out}/sweep.json", "--out", out],
        ["build", "--config", f"{out}/dense.json", "--out", out],
    ]
    src = str(Path(aihs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS_REFERENCES, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    loaded = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [command for command, _ in loaded] == ["build", "verify", "chain", "sweep", "build"]
    assert all(modules == [] for _, modules in loaded)
