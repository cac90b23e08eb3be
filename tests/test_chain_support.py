"""A chain on a weighted shift runs on the rows its vectors reach, not on N.

On a weighted shift each T* step moves a vector by one row, so the z_n and
phi_n of a chain from e_1 vanish past row n.  ``extend_chain``,
``_derive_level`` and ``verify_chain`` derive each level on the k rows
``OperatorModel.on_support`` reads off the arrays, through the k x k
truncation of T; only ||T|| stays the whole operator's.  These tests hold the
reports to their bits at every N, bound the rows every operator product,
QR, SVD and norm sees, and check that ||T|| is not the truncation's.
"""

import numpy as np
import pytest

from aihs import chains
from aihs._linalg import used_rows
from aihs.chains import build_chain, verify_chain
from aihs.errors import ChainTerminated
from aihs.operators import Family, OperatorModel, build_operator, geometric_weights

DEPTH = 10


def _donoghue(dim: int) -> OperatorModel:
    return build_operator(Family.DONOGHUE, dim, weights=geometric_weights(dim, 0.995))


def test_reports_do_not_depend_on_n():
    reports = {}
    for dim in (16, 128, 1024, 4096):
        op = _donoghue(dim)
        state = build_chain(op, DEPTH)
        assert state.zs.shape == state.phis.shape == state.q.shape == (dim, DEPTH)
        assert verify_chain(op, state) == state.reports[-1]
        reports[dim] = repr(state.reports)  # repr tells every float's bits apart, -0.0 too
    assert len(set(reports.values())) == 1


class _RowSpy:
    """Records the rows of every operator product, QR, SVD and norm a chain runs."""

    def __init__(self, monkeypatch):
        self.rows: list[int] = []
        for name in ("apply", "adjoint_apply"):
            monkeypatch.setattr(OperatorModel, name, self._recording(getattr(OperatorModel, name),
                                                                    arg=1))
        for name in ("qr", "svd", "norm"):
            monkeypatch.setattr(np.linalg, name, self._recording(getattr(np.linalg, name)))
        for name in ("qr_basis", "unit_columns", "containment_residual", "_project_off"):
            monkeypatch.setattr(chains, name, self._recording(getattr(chains, name)))

    def _recording(self, fn, arg=0):
        def wrapper(*args, **kwargs):
            self.rows.append(np.shape(args[arg])[0])
            return fn(*args, **kwargs)
        return wrapper


@pytest.mark.parametrize("dim", [1024, 4096])
def test_work_is_bounded_by_the_support(monkeypatch, dim):
    op = _donoghue(dim)
    with monkeypatch.context() as patch:
        spy = _RowSpy(patch)
        state = build_chain(op, DEPTH)
        report = verify_chain(op, state)
    assert report == state.reports[-1] and state.depth == DEPTH
    assert len(spy.rows) > 10 * DEPTH
    assert max(spy.rows) == DEPTH + 1  # depth 10 reaches row 10, and T* moves into row 11


def _forward_pair(big: float) -> tuple[OperatorModel, OperatorModel]:
    """Two forward shifts equal but for weight 41, which is ``big`` in the second."""
    weights = np.array(geometric_weights(64, 0.995))
    changed = weights.copy()
    changed[40] = big
    return (build_operator(Family.FORWARD, 64, weights=weights),
            build_operator(Family.FORWARD, 64, weights=changed))


def _seed() -> np.ndarray:
    """Supported on rows 8..10: a forward shift's T* walks it up to row 0."""
    z1 = np.zeros(64, dtype=np.complex128)
    z1[8:11] = [0.125j, 0.5 - 0.25j, 1.0]
    return z1


def test_norm_of_t_is_the_whole_operators():
    # Donoghue weights fall strictly in modulus, so max|w| = |w_1| lies in every
    # truncation; a forward shift's chain from row 11 walks up, away from weight 41
    small, large = _forward_pair(1e6)
    walks = [build_chain(op, DEPTH, _seed()) for op in (small, large)]
    # rows 0..10 hold the vectors: the truncation to them stops short of weight 41
    assert all(used_rows(w.zs) == used_rows(w.phis) == 11 for w in walks)
    assert np.array_equal(walks[0].zs, walks[1].zs)
    assert np.array_equal(walks[0].phis, walks[1].phis)
    assert verify_chain(large, walks[1]) == walks[1].reports[-1]

    # recurrence_norm divides the same mismatch by ||phi_{n+1}|| + ||phi_n|| ||T||,
    # with ||phi_{n+1}|| ~ ||phi_n||: ||T|| = 1 against 1e6 is a ratio near 1e6 / 2
    ratio = walks[0].reports[-1]["recurrence_norm"] / walks[1].reports[-1]["recurrence_norm"]
    assert ratio == pytest.approx((1.0 + 1e6) / 2, rel=0.05)

    # the termination floor is TOL_CHAIN ||phi_n|| ||T||: with ||T|| = 1e12 it
    # reaches ||phi_n||, above what T* phi_n keeps on Y_n, so the walk stops at once
    small, huge = _forward_pair(1e12)
    assert build_chain(small, DEPTH, _seed()).depth == DEPTH
    with pytest.raises(ChainTerminated) as stop:
        build_chain(huge, DEPTH, _seed())
    assert stop.value.state.depth == 1
