"""Finite truncations of sequence-space operators.

Three families are supported, acting on the standard basis ``e_1 .. e_N``
of ``C^N`` (indices are 1-based in the documentation, 0-based in code):

* forward weighted shift: ``T e_i = w_i e_{i+1}`` for ``i < N`` and
  ``T e_N = 0``;
* Donoghue backward shift: ``D e_1 = 0`` and ``D e_i = w_{i-1} e_{i-1}``,
  with ``|w_1| > |w_2| > ...`` strictly decreasing;
* dense: an arbitrary caller-supplied matrix, passed through unchanged.

Truncations of both shift families are nilpotent, which downstream modules
exploit: Neumann sums terminate and the point ``0`` is the only (spurious)
eigenvalue.  They are also bidiagonal, so :class:`OperatorModel` keeps only
their weights: applying ``T`` or ``T*`` and solving ``(z - T) h = e`` cost
O(N), the solve only up to the exact zero tail of ``h``, and the dense matrix
is built only when a caller asks for it.  Dense operators keep their matrix,
a matvec and a dense solve.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import _as_complex, _complex_entries
from .errors import ArgumentError, AssumptionError
from ._linalg import min_norm_dual, used_rows

__all__ = [
    "Family",
    "OperatorModel",
    "OrbitData",
    "DenseOrbit",
    "CoordinateOrbit",
    "build_operator",
    "compute_orbit",
    "orbit_form",
    "orbit_walk",
    "max_orbit_length",
    "operator_digest",
    "geometric_weights",
    "factorial_decay_weights",
    "weights_from_config",
    "operator_from_config",
]

#: Orbit vectors below this Euclidean norm are treated as numerically dead.
ORBIT_NORM_FLOOR = 1e-150

#: An orbit vector closer (relatively) than this to the span of the others
#: makes the orbit non-minimal.
MINIMALITY_RTOL = 1e-13


class Family(str, enum.Enum):
    """Operator family tags; the values double as config/CSV identifiers."""

    FORWARD = "forward-weighted-shift"
    DONOGHUE = "donoghue-backward-shift"
    DENSE = "dense"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def _zero_rows(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` with zero rows appended up to ``rows`` rows, as a read-only complex copy."""
    out = np.zeros((rows,) + a.shape[1:], dtype=np.complex128)
    out[:len(a)] = a
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OperatorModel:
    """A concrete N x N truncation.

    Attributes
    ----------
    family : Family
        Which construction produced the operator.
    dim : int
        Truncation size ``N >= 2``.
    weights : numpy.ndarray | None
        The read-only shift weights (length ``dim - 1``); ``None`` if dense.
    matrix : numpy.ndarray
        The dense ``(dim, dim)`` complex matrix, read-only.  Shift families
        build it on first access; nothing on the build and verify paths
        needs it.  All operations on models are pure, so instances are safe
        to share.
    """

    family: Family
    dim: int
    # the matrix for dense operators, the read-only weight array for shifts
    _array: np.ndarray = field(repr=False)

    @property
    def weights(self) -> np.ndarray | None:
        return None if self.family is Family.DENSE else self._array

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self.family is Family.DENSE:
            return self._array
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        j = np.arange(self.dim - 1)
        if self.family is Family.FORWARD:
            m[j + 1, j] = self._array
        else:  # Donoghue backward shift
            m[j, j + 1] = self._array
        m.setflags(write=False)
        return m

    def _shift(self, x: np.ndarray, down: bool, conj: bool) -> np.ndarray:
        """Weighted one-step move of the entries of the complex ``x``, down or up the index."""
        w = self._array.reshape((-1,) + (1,) * (x.ndim - 1))
        if conj:
            w = w.conj()
        out = np.empty_like(x)
        if down:
            out[0] = 0.0
            np.multiply(w, x[:-1], out=out[1:])
        else:
            out[-1] = 0.0
            np.multiply(w, x[1:], out=out[:-1])
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """``T vec`` for one vector or a ``(dim, k)`` block of columns.

        The operand is taken C-contiguous: BLAS rounds a strided column or a
        Fortran-ordered block differently, and the result must not depend on
        the layout of the same numbers.
        """
        vec = np.ascontiguousarray(vec, dtype=np.complex128)
        if self.family is Family.DENSE:
            return self._array @ vec
        return self._shift(vec, down=self.family is Family.FORWARD, conj=False)

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        """``T* vec`` for one vector or a ``(dim, k)`` block, taken C-contiguous as in ``apply``."""
        vec = np.ascontiguousarray(vec, dtype=np.complex128)
        if self.family is Family.DENSE:
            return self._array.conj().T @ vec
        return self._shift(vec, down=self.family is Family.DONOGHUE, conj=True)

    def shifted_solver(self, z: complex):
        """``rhs -> (h, rows)`` solving ``(z - T) h = rhs`` for a fixed ``z`` and one vector.

        Shift families run a substitution down the bidiagonal, forward for
        the forward shift and backward for Donoghue, and stop at the exact
        zero tail: once ``h`` is zero past ``rhs``'s last nonzero entry, so is
        every later entry, and those rows are ``+0.0``, never computed.
        ``rows`` counts the rows it wrote, from the end where it starts: the
        first rows for the forward shift, the last for Donoghue.
        ``z = 0`` makes the solve raise ``numpy.linalg.LinAlgError``, and
        overflow leaves non-finite entries.  Dense operators take
        ``numpy.linalg.solve`` on each call and write all ``dim`` rows; an
        exactly singular ``z - T`` raises ``LinAlgError``.
        """
        z = complex(z)
        if self.family is Family.DENSE:
            shifted = np.diag(np.full(self.dim, z)) - self._array
            return lambda rhs: (np.linalg.solve(shifted, rhs), self.dim)
        backward = self.family is Family.DONOGHUE
        # h_i = (rhs_i + w h_{i-1}) / z in Python complex arithmetic, since
        # per-element numpy calls would cost more.  Dividing at each step is
        # the most accurate form tried: with precomputed ratios w / z, the
        # round-off in ai_residual failed one smoke Blaschke seed in 40.
        weights = self._substitution_weights

        def solve(rhs):
            if z == 0:
                raise np.linalg.LinAlgError("z - T is singular at z = 0")
            col = np.asarray(rhs, dtype=np.complex128)
            if backward:
                col = col[::-1]
            support = np.flatnonzero(col)
            head = int(support[-1]) + 1 if support.size else 0
            h, row = 0j, []
            for bi, wi in zip(col[:head].tolist(), weights):
                h = (bi + wi * h) / z
                row.append(h)
            for wi in itertools.islice(weights, head, None):
                if not h:  # h and the rest of rhs are zero: so is every later h
                    break
                h = (0j + wi * h) / z  # (rhs_i + w h) / z with rhs_i = +0, to the bit
                row.append(h)
            out = np.zeros(self.dim, dtype=np.complex128)
            out[:len(row)] = row
            return out[::-1] if backward else out, len(row)

        return solve

    @functools.cached_property
    def _substitution_weights(self) -> list:
        """``[0, w...]`` as Python complexes, in the order the substitution reads them."""
        return [0j] + (self._array[::-1] if self.family is Family.DONOGHUE
                       else self._array).tolist()

    def leading(self, k: int) -> OperatorModel:
        """The ``k x k`` principal truncation of a shift family (``2 <= k <= dim``);
        on vectors that vanish past row ``k - 2`` it acts as ``T`` on their leading rows.
        ``k = dim`` gives the operator itself, the one truncation a dense operator has."""
        return self.section(0, k)

    def section(self, start: int, k: int) -> OperatorModel:
        """The ``k x k`` principal truncation on rows ``start .. start + k - 1``, as
        :meth:`leading` takes it at ``start = 0``: on vectors that vanish outside those
        rows and that ``T`` maps inside them, it acts as ``T`` on those rows."""
        return self if k == self.dim else OperatorModel(self.family, k,
                                                        self._array[start:start + k - 1])

    def on_support(self, *arrays: np.ndarray) -> tuple[OperatorModel, list[np.ndarray]]:
        """``leading(k)``, and each array cut to its first ``k`` rows or zero-padded to them.

        k is read off the arrays: one past the last row in which any of them
        holds a nonzero entry (:func:`~aihs._linalg.used_rows`), plus one for
        the row a shift moves that entry into, capped at ``dim``.  ``T`` and
        ``T*`` then map the columns into the first k rows, and ``leading(k)``
        gives those rows.  A dense operator reaches every row, so there
        k = dim and the operator is itself.
        """
        k = self.dim
        if self.family is not Family.DENSE:
            k = min(max(1, *map(used_rows, arrays)) + 1, self.dim)
        return self.leading(k), [a[:k] if len(a) >= k else _zero_rows(a, k) for a in arrays]

    @property
    def is_nilpotent(self) -> bool:
        """Structurally nilpotent (true for both shift families)."""
        return self.family is not Family.DENSE

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the truncation (exact zeros for shifts), derived once."""
        if self.is_nilpotent:
            return _readonly(np.zeros(self.dim))
        return _readonly(np.linalg.eigvals(self.matrix).reshape(-1))

    def spectral_radius(self) -> float:
        if self.is_nilpotent:
            return 0.0
        return float(np.max(np.abs(self.eigenvalues)))

    @functools.cached_property
    def norm_estimate(self) -> float:
        """Estimate of the operator 2-norm (exact for shift families), derived once."""
        if self.weights is not None:
            return float(np.max(np.abs(self.weights)))
        m = self.matrix
        rng = np.random.default_rng(0)  # a fixed complex Gaussian start for power iteration
        start = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return _power_root(lambda v: m.conj().T @ (m @ v), start)


def operator_digest(op: OperatorModel) -> str:
    """sha256 of the operator's one array: a shift's weights, a dense matrix (row-major)."""
    return hashlib.sha256(op._array.tobytes()).hexdigest()


def _power_root(gram, start: np.ndarray, iters: int = 12) -> float:
    """sqrt of the top eigenvalue of a positive semidefinite map, by power iteration.

    ``gram`` is ``v -> G v``; with ``G = A^H A`` the result estimates
    sigma_max(A).  The estimate misses an eigenvector orthogonal to
    ``start``.  An iterate that vanishes gives 0, one that is not finite
    gives inf.
    """
    v = start / np.linalg.norm(start)
    root = 0.0
    for _ in range(iters):
        v = gram(v)
        nv = float(np.linalg.norm(v))
        if not math.isfinite(nv):
            return math.inf
        if nv == 0.0:
            return 0.0
        root = math.sqrt(nv)
        v = v / nv
    return root


def _check_weights(family: Family, weights, dim: int) -> np.ndarray:
    """The weights as a read-only 1-D array, checked."""
    array = _readonly(weights)
    if array.ndim != 1:
        raise ArgumentError(f"weights must be one-dimensional, got shape {array.shape}")
    if array.size != dim - 1:
        raise ArgumentError(
            f"{family.value} at dim {dim} needs {dim - 1} weights, got {array.size}"
        )
    bad = np.flatnonzero((array == 0) | ~np.isfinite(array))
    if bad.size:  # the orbit walks read the weights as finite and nonzero
        i = int(bad[0])
        raise ArgumentError(f"weight {i + 1} is {array[i]}; all weights must be finite and nonzero")
    if family is Family.DONOGHUE:
        # C hypot, as Python's complex abs takes it, not numpy's abs: the two differ
        # in the last bit on some inputs, and a near-tie must keep its verdict
        mods = np.hypot(array.real, array.imag)
        rising = np.flatnonzero(~(mods[1:] < mods[:-1]))
        if rising.size:
            i = int(rising[0])
            raise ArgumentError(
                "Donoghue weights must be strictly decreasing in modulus; "
                f"|w_{i + 1}| = {mods[i]:.6g} vs |w_{i + 2}| = {mods[i + 1]:.6g}"
            )
    return array


def build_operator(
    family: Family | str,
    dim: int,
    weights=None,
    matrix=None,
) -> OperatorModel:
    """Build an :class:`OperatorModel` from a family tag and its data.

    Parameters
    ----------
    family : Family or str
        One of the three family tags.
    dim : int
        Truncation size; must be at least 2.
    weights : sequence of complex, optional
        Length ``dim - 1`` nonzero weights; required for the shift families
        and rejected for dense operators.
    matrix : array_like, optional
        The ``(dim, dim)`` matrix for the dense family, every entry finite;
        passed through unchanged (up to complex casting).
    """
    family = Family(family)
    if int(dim) != dim or dim < 2:
        raise ArgumentError(f"dim must be an integer >= 2, got {dim!r}")
    dim = int(dim)

    if family is Family.DENSE:
        if matrix is None:
            raise ArgumentError("dense family requires a matrix")
        if weights is not None:
            raise ArgumentError("dense family takes no weights")
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (dim, dim):
            raise ArgumentError(f"matrix shape {m.shape} != ({dim}, {dim})")
        bad = np.flatnonzero(~np.isfinite(m))
        if bad.size:
            i, j = divmod(int(bad[0]), dim)
            raise ArgumentError(f"matrix entry [{i}, {j}] is {m[i, j]}; all entries must be finite")
        return OperatorModel(family, dim, _readonly(m))

    if matrix is not None:
        raise ArgumentError(f"{family.value} takes weights, not a matrix")
    if weights is None:
        raise ArgumentError(f"{family.value} requires weights")
    return OperatorModel(family, dim, _check_weights(family, weights, dim))


# ----------------------------------------------------------------------------
# weight generators


#: CPython raises a complex z to an integer power i up to this exponent by repeated
#: squaring, and past it as ``pow(|z|, i)`` at the phase ``i * atan2(Im z, Re z)``.
_BINARY_POWERS = 100


def geometric_weights(dim: int, ratio: complex) -> tuple[complex, ...]:
    """``w_i = ratio**i`` for ``i = 1 .. dim - 1``, each with the bits of ``complex(ratio) ** i``.

    Past ``_BINARY_POWERS`` a positive real ratio r has phase 0, so there
    ``complex(r) ** i`` is ``complex(pow(r, i), 0.0)``, which ``math.pow``
    gives with no complex power.  Any other ratio takes the complex power at
    every index.
    """
    if ratio == 0:
        raise ArgumentError("geometric ratio must be nonzero")
    z = complex(ratio)
    stop = min(dim, _BINARY_POWERS + 1) if z.imag == 0.0 and z.real > 0.0 else dim
    try:
        weights = [z ** i for i in range(1, stop)]
        tail = map(math.pow, itertools.repeat(z.real), range(stop, dim))
        weights += np.fromiter(tail, np.float64, dim - stop).astype(np.complex128).tolist()
        return tuple(weights)
    except OverflowError:
        raise ArgumentError(f"geometric weights overflow: |ratio|**{dim - 1} with "
                            f"|ratio| = {abs(ratio):.6g} leaves the float range") from None


def factorial_decay_weights(dim: int) -> tuple[complex, ...]:
    """``w_i = 1 / i!`` for ``i = 1 .. dim - 1`` (dies past 170 in doubles)."""
    if dim > 171:  # 171! leaves the float range
        raise ArgumentError("factorial-decay weight 171 underflows to zero; reduce dim")
    return tuple(complex(1.0 / math.factorial(i)) for i in range(1, dim))


def weights_from_config(cfg: dict, dim: int) -> np.ndarray | tuple[complex, ...]:
    """Materialize a ``{"kind": ..., "params": {...}}`` weight description."""
    kind = cfg.get("kind")
    params = cfg.get("params", {})
    if kind == "explicit":
        return _complex_entries(params["values"])
    if kind == "geometric":
        return geometric_weights(dim, _as_complex(params["ratio"]))
    if kind == "factorial-decay":
        return factorial_decay_weights(dim)
    raise ArgumentError(f"unknown weight kind {kind!r}")


def operator_from_config(cfg: dict, rng: np.random.Generator | None = None) -> OperatorModel:
    """Build an operator from its JSON-config description.

    Dense random matrices draw from ``rng`` (standard complex Gaussian scaled
    by ``scale / sqrt(dim)``), so the same seed reproduces the same operator.
    """
    family = Family(cfg["family"])
    dim = cfg["dim"]
    if family is Family.DENSE:
        mcfg = cfg.get("matrix")
        if mcfg is None:
            raise ArgumentError("dense operator config requires a 'matrix' entry")
        kind = mcfg.get("kind", "explicit")
        if kind == "explicit":
            m = np.array([_complex_entries(row) for row in mcfg["entries"]],
                         dtype=np.complex128)
        elif kind == "random-gaussian":
            if rng is None:
                raise ArgumentError("random dense matrix requires a seeded rng")
            scale = float(mcfg.get("scale", 1.0))
            m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            m *= scale / math.sqrt(2 * dim)
        else:
            raise ArgumentError(f"unknown matrix kind {kind!r}")
        return build_operator(family, dim, matrix=m)
    return build_operator(family, dim, weights=weights_from_config(cfg["weights"], dim))


# ----------------------------------------------------------------------------
# orbits


@dataclass(frozen=True, eq=False)
class OrbitData:
    """A finite forward orbit ``x_n = T^n e``, its biorthogonal norms and duals.

    An orbit takes one of two forms, which :func:`orbit_form` picks from the
    operator's family and the seed's support alone:

    * :class:`CoordinateOrbit`, a shift family seeded at ``c e_j``: each
      ``x_n = a_n e_{p_n}`` is a scaled basis vector, so the orbit is
      orthogonal.  Nothing is factored: ``r_n = 1 / |a_n|``, and the
      minimum-norm dual for values ``v`` is ``f = sum_n conj(v_n / a_n) e_{p_n}``.
    * :class:`DenseOrbit`, every other orbit: its rows, factored once.

    Both forms give ``length``, ``biorthogonal_norms`` (``r_n = 1 /
    dist(x_n, span of the others)``, the norm of the n-th coordinate
    functional of the minimal orbit), ``min_norm_duals(values)`` (column j
    the minimum-norm ``f`` with ``f^H x_n = values[n, j]``, from an ``(L, k)``
    block of values, giving ``(dim, k)``),
    ``replay(duals)`` (``f_j(x_n)`` for dual columns, shape ``(k, L)``) and
    ``vectors``, the ``(L, dim)`` rows ``x_n``.
    """

    dim: int


@dataclass(frozen=True, eq=False)
class DenseOrbit(OrbitData):
    """The orbit rows ``vectors``, shape ``(length, dim)``, and their one QR factor.

    With ``s_n = ||x_n||``, ``X_s = Q R`` factors the orbit with unit columns
    ``x_n / s_n``.  The functionals dual to the orbit are the rows of
    ``pinv(X) = S^-1 R^-1 Q^H``: the norms ``r_n = ||row n of R^-1|| / s_n``
    and the duals (:func:`aihs._linalg.min_norm_dual`) both come from
    ``factor``, computed on first use.  Replaying duals reads only the rows.
    """

    vectors: np.ndarray

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @functools.cached_property
    def factor(self) -> tuple[np.ndarray, ...]:
        """``(r, Q, R^-1, s)``; raises ``AssumptionError`` as :func:`compute_orbit` says."""
        return _biorthogonal_norms(self.vectors)

    @property
    def biorthogonal_norms(self) -> np.ndarray:
        return self.factor[0]

    def min_norm_duals(self, values) -> np.ndarray:
        return min_norm_dual(*self.factor[1:], values)

    def replay(self, duals: np.ndarray) -> np.ndarray:
        return duals.conj().T @ self.vectors.T


@dataclass(frozen=True, eq=False)
class CoordinateOrbit(OrbitData):
    """A shift orbit seeded at a basis vector: ``x_n = amplitudes[n] e_{positions[n]}``.

    The duals are written in closed form, their ``-0.0`` entries as ``+0.0``,
    and a replay reads one entry of each dual per orbit vector, so no
    ``(L, dim)`` array is formed.  ``vectors`` builds one on each access,
    for callers that want the rows.
    """

    positions: np.ndarray
    amplitudes: np.ndarray

    @property
    def length(self) -> int:
        return self.amplitudes.size

    @functools.cached_property
    def biorthogonal_norms(self) -> np.ndarray:
        norms = 1.0 / np.abs(self.amplitudes)
        norms.setflags(write=False)
        return norms

    def min_norm_duals(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != self.length:
            raise ValueError(f"expected an ({self.length}, k) block of values, got {v.shape}")
        out = np.zeros((self.dim, v.shape[1]), dtype=np.complex128)
        # conj(0 / a) has a -0.0 imaginary part; adding +0.0 makes it +0.0
        out[self.positions] = np.conj(v / self.amplitudes[:, None]) + 0.0
        return out

    def replay(self, duals: np.ndarray) -> np.ndarray:
        return (duals[self.positions].conj() * self.amplitudes[:, None]).T

    @property
    def vectors(self) -> np.ndarray:
        out = np.zeros((self.length, self.dim), dtype=np.complex128)
        out[np.arange(self.length), self.positions] = self.amplitudes
        return out


_FLOOR_SQUARED = ORBIT_NORM_FLOOR**2


def _alive(x: np.ndarray) -> bool:
    """``||x|| >= ORBIT_NORM_FLOOR`` with every entry finite.  One ``vdot``
    decides it unless ``||x||^2`` is not finite (inf or nan entries, or overflow)."""
    squared = np.vdot(x, x).real
    if math.isfinite(squared):
        return squared >= _FLOOR_SQUARED
    with np.errstate(over="ignore"):  # the norm of a finite x is inf past 1.34e154 too
        return bool(np.linalg.norm(x) >= ORBIT_NORM_FLOOR and np.all(np.isfinite(x)))


def _entry_alive(a: complex, position: int, dim: int) -> bool:
    """:func:`_alive` of the vector ``a e_position``, read off its one entry.

    ``re^2 + im^2`` is the sum ``vdot`` takes.  Within a few ulps of the
    floor its rounding order could decide, so there, and for a nan entry,
    :func:`_alive` runs on the vector itself.
    """
    squared = a.real * a.real + a.imag * a.imag
    if abs(squared - _FLOOR_SQUARED) > 1e-15 * _FLOOR_SQUARED:  # false for nan
        return squared >= _FLOOR_SQUARED and math.isfinite(a.real) and math.isfinite(a.imag)
    x = np.zeros(dim, dtype=np.complex128)
    x[position] = a
    return _alive(x)


def orbit_walk(op: OperatorModel, seed: np.ndarray, cap: int) -> np.ndarray:
    """Rows ``x_0, x_1, ...`` of the orbit ``x_n = T^n seed``, shape ``(count, dim)``.

    At most ``cap`` rows, stopping before the first vector that is below
    ``ORBIT_NORM_FLOOR`` or not finite.  One matvec per row.
    """
    x = np.asarray(seed, dtype=np.complex128)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # _alive ends the orbit there
        while len(rows) < cap and _alive(x):
            rows.append(x)
            x = op.apply(x)
    return np.array(rows, dtype=np.complex128).reshape(-1, x.size)


def _coordinate_walk(op: OperatorModel, seed: np.ndarray, j: int, cap: int) -> CoordinateOrbit:
    """The orbit of ``seed = c e_j`` under a shift: ``x_n = a_n e_{j +- n}``.

    ``a_n`` is a running product of the weights, up the index for the
    forward shift and down it for Donoghue.  Each step is the one-entry
    ``numpy.multiply(w, a)`` that :meth:`OperatorModel.apply` runs on the
    whole vector, so the amplitudes equal :func:`orbit_walk`'s bit for bit,
    and the walk stops where it does.
    """
    forward = op.family is Family.FORWARD
    step = 1 if forward else -1
    count = min(cap, op.dim - j if forward else j + 1)  # the walk leaves the index range
    amplitudes = np.empty(count, dtype=np.complex128)
    amplitudes[0] = seed[j]
    length = int(_alive(seed))
    with np.errstate(over="ignore", invalid="ignore"):  # _entry_alive ends the orbit there
        while 0 < length < count:
            position = j + step * length
            k = position - 1 if forward else position  # the weight into e_position
            np.multiply(op._array[k:k + 1], amplitudes[length - 1:length],
                        out=amplitudes[length:length + 1])
            if not _entry_alive(complex(amplitudes[length]), position, op.dim):
                break
            length += 1
    positions = np.arange(j, j + step * length, step)
    amplitudes = amplitudes[:length]
    for a in (positions, amplitudes):
        a.setflags(write=False)
    return CoordinateOrbit(op.dim, positions, amplitudes)


def orbit_form(op: OperatorModel, seed: np.ndarray, cap: int) -> OrbitData:
    """The orbit ``x_n = T^n seed``, walked to at most ``cap`` vectors, not factored.

    A shift family seeded at exactly one nonzero entry gives a
    :class:`CoordinateOrbit`; every other pair gives a :class:`DenseOrbit`
    of :func:`orbit_walk`'s rows.  Both stop at the same vector.
    """
    e = np.asarray(seed, dtype=np.complex128).reshape(-1)
    support = np.flatnonzero(e)
    if op.family is not Family.DENSE and support.size == 1:
        return _coordinate_walk(op, e, int(support[0]), cap)
    vectors = orbit_walk(op, e, cap)
    vectors.setflags(write=False)
    return DenseOrbit(op.dim, vectors)


def max_orbit_length(op: OperatorModel, seed: np.ndarray, cap: int) -> int:
    """Longest orbit ``x_0 .. x_{L-1}`` (``L <= cap``) whose vectors all stay above the floor."""
    return orbit_form(op, seed, cap).length


def compute_orbit(op: OperatorModel, seed: np.ndarray, cap: int) -> OrbitData:
    """The orbit ``x_n = T^n e`` (at most ``cap`` vectors) with its norms, in its form.

    :func:`orbit_form` picks the form from structure.  A coordinate orbit
    costs O(L) and is always minimal.  A dense orbit is walked once and
    factored once, in O(L^3): one QR and one inverse of its R (see
    :class:`DenseOrbit`).  It is minimal when every ``dist(x_n, others) =
    s_n / ||row n of R^-1||``, to the exact span of the others with no rank
    truncation, is at least ``MINIMALITY_RTOL * s_n``.

    Raises
    ------
    ArgumentError
        If the seed is misshapen, below the floor or not finite, or ``cap``
        is outside ``1 .. dim``.
    AssumptionError
        If some ``x_n`` lies numerically in the span of the other orbit
        vectors (e.g. the identity operator, whose orbit vectors coincide).
        An exactly zero pivot of ``R`` is reported at its index, with
        distance 0.
    """
    e = np.asarray(seed, dtype=np.complex128).reshape(-1)
    if e.shape != (op.dim,):
        raise ArgumentError(f"seed shape {e.shape} != ({op.dim},)")
    if not 1 <= cap <= op.dim:
        raise ArgumentError(f"orbit cap must satisfy 1 <= cap <= dim, got {cap}")
    orbit = orbit_form(op, e, cap)
    if not orbit.length:
        raise ArgumentError("seed vector must be finite with norm at least ORBIT_NORM_FLOOR")
    orbit.biorthogonal_norms  # factors a dense orbit, which checks its minimality
    return orbit


def _not_minimal(n: int, distance: float, scale: float) -> AssumptionError:
    return AssumptionError(f"orbit is not minimal: vector {n} is within {distance:.3e} "
                           f"of the span of the remaining vectors (norm {scale:.3e})")


def _biorthogonal_norms(vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(r, Q, R^-1, s)`` of the orbit rows, in :class:`DenseOrbit`'s terms.

    ``r_n = ||row n of R^-1|| / s_n``; see :func:`compute_orbit` for the
    minimality test.  Every returned array is read-only.
    """
    with np.errstate(over="ignore"):
        scales = np.linalg.norm(vectors, axis=1)
        for n in np.flatnonzero(~np.isfinite(scales)):  # ||x_n||^2 overflows past 1.34e154
            top = np.max(np.abs(vectors[n]))
            scales[n] = top * np.linalg.norm(vectors[n] / top)
            if not math.isfinite(scales[n]):
                raise ArgumentError(f"orbit vector {n} has a norm beyond the float range")
    q, r = np.linalg.qr((vectors / scales[:, None]).T)
    zero = np.flatnonzero(np.diagonal(r) == 0)
    if zero.size:  # an exactly zero pivot: x_n is in the span
        n = int(zero[0])
        raise _not_minimal(n, 0.0, float(scales[n]))
    r_inverse = np.linalg.inv(r)
    norms = np.linalg.norm(r_inverse, axis=1) / scales
    dist = 1.0 / norms
    bad = np.flatnonzero(~(dist >= MINIMALITY_RTOL * scales))  # nan counts as bad
    if bad.size:
        n = int(bad[0])
        raise _not_minimal(n, float(dist[n]), float(scales[n]))
    for a in (norms, q, r_inverse, scales):
        a.setflags(write=False)
    return norms, q, r_inverse, scales

