"""Shift-family work stops at the exact zero tail of the vectors.

The resolvent solve of a shift family stops once ``h`` and the rest of the
right-hand side are exactly zero, and ``compute_metrics`` derives the
metrics on the rows the vectors occupy.  These tests hold the early stop to
a full-length substitution, and show that the output and the work of a
build and its audit follow the vectors' support, not N.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aihs import halfspace, resolvent
from aihs import serialize as ser
from aihs.errors import SingularResolventError
from aihs.halfspace import build_entire, verify_certificate
from aihs.operators import Family, OperatorModel, build_operator, geometric_weights
from aihs.resolvent import ResolventSolver

SHIFTS = (Family.FORWARD, Family.DONOGHUE)


def _full_substitution(op: OperatorModel, z: complex, rhs: np.ndarray) -> np.ndarray:
    """``(z - T) h = rhs`` by the substitution run over every row, the reference."""
    backward = op.family is Family.DONOGHUE
    weights = [0j] + (op.weights[::-1] if backward else op.weights).tolist()
    cols = rhs.reshape(op.dim, -1)
    if backward:
        cols = cols[::-1]
    out = np.empty(cols.shape, dtype=np.complex128)
    for j in range(cols.shape[1]):
        h = 0j
        for i, (bi, wi) in enumerate(zip(cols[:, j].tolist(), weights)):
            h = (bi + wi * h) / z
            out[i, j] = h
    return (out[::-1] if backward else out).reshape(rhs.shape)


_ENTRIES = st.one_of(
    st.just(0j),
    st.just(complex(-0.0, -0.0)),
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def shift_solves(draw):
    """(operator, lam, rhs): weights over 1e-70..1e52, lam over 1e-300..1e300,
    one vector or a block of columns, with zeros inside and around the support."""
    family = draw(st.sampled_from(SHIFTS))
    dim = draw(st.integers(2, 40))
    phases = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi),
                                    min_size=dim - 1, max_size=dim - 1)))
    if family is Family.DONOGHUE:  # strictly decreasing moduli
        steps = draw(st.lists(st.floats(0.01, 4.0), min_size=dim - 1, max_size=dim - 1))
        logs = draw(st.floats(-30.0, 30.0)) - np.cumsum(steps)
    else:
        logs = np.array(draw(st.lists(st.floats(-120.0, 120.0),
                                      min_size=dim - 1, max_size=dim - 1)))
    weights = np.exp(logs) * np.exp(1j * phases)
    op = build_operator(family, dim, weights=weights)
    lam = draw(st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                                  allow_nan=False, allow_infinity=False))
    cols = draw(st.integers(0, 3))  # 0: one vector
    shape = (dim,) if cols == 0 else (dim, cols)
    rhs = np.array(draw(st.lists(_ENTRIES, min_size=dim * max(cols, 1),
                                 max_size=dim * max(cols, 1))), dtype=np.complex128)
    return op, lam, rhs.reshape(shape)


@settings(max_examples=200, deadline=None)
@given(shift_solves())
def test_early_stop_matches_the_full_substitution(case):
    op, lam, rhs = case
    z = 1.0 / complex(lam)  # the z a ResolventSolver at lam solves with
    solve = op.shifted_solver(z)  # one vector per call
    with np.errstate(all="ignore"):
        solves = [solve(col) for col in (rhs[:, None] if rhs.ndim == 1 else rhs).T]
        got = np.column_stack([h for h, _ in solves]).reshape(rhs.shape)
        want = _full_substitution(op, z, rhs)
    assert got.shape == rhs.shape
    for h, rows in solves:  # every row past the ones the solve reports is +0.0
        tail = h[:op.dim - rows] if op.family is Family.DONOGHUE else h[rows:]
        parts = np.concatenate([tail.real, tail.imag])
        assert not parts.any() and not np.signbit(parts).any()
    # equal values, non-finite where the reference is; a zero's sign may differ
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    if rhs.ndim == 1 and not np.all(np.isfinite(want)):
        with np.errstate(all="ignore"), pytest.raises(SingularResolventError):
            ResolventSolver(op, lam).solve(rhs)


@pytest.mark.parametrize("family", SHIFTS)
def test_early_stop_fills_the_tail_and_keeps_the_singular_point(family):
    op = build_operator(family, 8, weights=geometric_weights(8, 0.5))
    rhs = np.zeros(8, dtype=np.complex128)
    rhs[7 if family is Family.DONOGHUE else 0] = 1.0
    h, rows = op.shifted_solver(1e300)(rhs)  # 1e-300, then an underflow to zero
    assert rows == 2  # the first entry, and the zero that stops the substitution
    assert np.array_equal(h, _full_substitution(op, 1e300, rhs))
    assert np.count_nonzero(h) == 1
    assert not np.signbit(h[h == 0].real).any() and not np.signbit(h[h == 0].imag).any()
    with pytest.raises(np.linalg.LinAlgError):
        op.shifted_solver(0)(rhs)


@pytest.mark.parametrize("family", (*SHIFTS, Family.DENSE))
def test_a_solve_checks_only_the_rows_it_wrote(family, monkeypatch):
    # finiteness and the defect read the rows the substitution wrote and the one
    # row T moves them into; a dense solve writes, and so checks, all N rows
    dim = 1024 if family is not Family.DENSE else 64
    if family is Family.DENSE:
        op = build_operator(family, dim, matrix=np.diag(np.full(dim - 1, 0.5), -1))
    else:
        op = build_operator(family, dim, weights=geometric_weights(dim, 0.9))
    e = np.zeros(dim, dtype=np.complex128)
    e[dim - 1 if family is Family.DONOGHUE else 0] = 1.0
    lam = 2.5 + 1.0j
    _, written = op.shifted_solver(1.0 / lam)(e)
    read, defect, isfinite = [], resolvent._relative_defect, np.isfinite
    monkeypatch.setattr(resolvent, "_relative_defect",
                        lambda op_, *args: read.append(op_.dim) or defect(op_, *args))
    monkeypatch.setattr(np, "isfinite", lambda a: read.append(np.size(a)) or isfinite(a))
    rv = resolvent.ResolventSolver(op, lam).solve(e)
    monkeypatch.undo()
    if family is Family.DENSE:
        assert written == dim and read == [dim, dim]
    else:
        assert written < dim // 4 and read == [written + 1, written + 1]
    # the rows left out hold exact zeros of h, e and T h: the defect keeps its value
    assert rv.defect == pytest.approx(defect(op, lam, rv.vector, e), rel=1e-12, abs=1e-30)


# --- a build and its audit follow the support -----------------------------


def _substitution_lines():
    """The shift solve's code, and the line numbers of its substitution steps."""
    code = build_operator(Family.FORWARD, 2, weights=[1.0]).shifted_solver(1.0).__code__
    source = Path(code.co_filename).read_text(encoding="utf-8").splitlines()
    steps = {n for _, _, n in code.co_lines() if n and source[n - 1].strip().startswith("h = (")}
    assert len(steps) == 2  # the head of the right-hand side, and its zero tail
    return code, steps


class _Spy:
    """Records the rows each solve computes and the rows of every metric array."""

    def __init__(self, monkeypatch):
        self.steps: list[int] = []  # substitution steps per solve of one vector
        self.metric_rows: list[int] = []
        self.code, self.lines = _substitution_lines()
        for name in ("qr_basis", "extend_basis", "_rank", "smallest_singular_value",
                     "unit_columns", "containment_residual"):
            monkeypatch.setattr(halfspace, name, self._recording(getattr(halfspace, name)))
        leading = OperatorModel.leading

        def recording_leading(op, k):
            self.metric_rows.append(k)
            return leading(op, k)

        monkeypatch.setattr(OperatorModel, "leading", recording_leading)

    def _recording(self, fn):
        def wrapper(a, *args, **kwargs):
            self.metric_rows.append(np.shape(a)[0])
            return fn(a, *args, **kwargs)
        return wrapper

    def _trace(self, frame, event, arg):
        if frame.f_code is not self.code:
            return None
        self.steps.append(0)

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in self.lines:
                self.steps[-1] += 1
            return local
        return local

    def run(self, fn, *args):
        previous = sys.gettrace()
        sys.settrace(self._trace)
        try:
            return fn(*args)
        finally:
            sys.settrace(previous)


def _build(dim, spy):
    op = build_operator(Family.FORWARD, dim, weights=geometric_weights(dim, 0.9))
    e = np.zeros(dim, dtype=np.complex128)
    e[0] = 1.0
    cert = spy.run(build_entire, op, e, 8, 5)
    report = spy.run(verify_certificate, op, cert)
    return cert, report


def test_output_and_work_follow_the_support_not_n(monkeypatch, tmp_path):
    docs, steps = {}, {}
    for dim in (1024, 4096):
        with monkeypatch.context() as patch:
            spy = _Spy(patch)
            cert, report = _build(dim, spy)
        assert cert.passed and report["passed"]
        raw = ser.read_json(ser.write_certificate(tmp_path / f"{dim}.json", cert))["raw_vectors"]
        support = raw["rows"]
        assert support < 200  # L = 81 here: h(lambda) dies far before N
        # 8 solves in the build and 8 in the audit, each at most support + 1 rows
        assert len(spy.steps) == 16
        assert max(spy.steps) <= support + 1
        assert spy.metric_rows and max(spy.metric_rows) <= support + 1
        docs[dim], steps[dim] = (cert, raw), spy.steps
    (small, small_raw), (large, large_raw) = docs[1024], docs[4096]
    assert np.array_equal(small.lambdas, large.lambdas)
    assert small.metrics == large.metrics
    assert small_raw["rows"] == large_raw["rows"] and small_raw["data"] == large_raw["data"]
    assert steps[1024] == steps[4096]


@pytest.mark.parametrize("row", [3, 120, 1023])  # inside the support, just past it, the last
def test_raw_drift_on_the_support_is_the_full_drift(row):
    # verify takes the raw-vector drift on the rows either array reaches; every
    # row past them is zero in both, so the drift is the one over all N rows
    op = build_operator(Family.FORWARD, 1024, weights=geometric_weights(1024, 0.9))
    e = np.zeros(1024, dtype=np.complex128)
    e[0] = 1.0
    cert = build_entire(op, e, 8, 5)
    stored = np.array(cert.raw_vectors)
    stored[row, 2] += 1e-3 * np.max(np.abs(stored[:, 2]))
    fresh = np.array(cert.raw_vectors)
    scale = np.maximum(np.max(np.abs(stored), axis=0), 1e-300)
    full = float(np.max(np.max(np.abs(fresh - stored), axis=0) / scale))
    tampered = dataclasses.replace(cert, raw_vectors=stored)
    report = verify_certificate(op, tampered)
    assert report["raw_vector_drift"] == full and report["failures"] == ["raw_vectors"]
