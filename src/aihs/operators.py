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
O(N), and the dense matrix is built only when a caller asks for it.  Dense
operators keep their matrix, a matvec and an LU factorization.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, MinimalityError, OrbitDeathError

__all__ = [
    "Family",
    "OperatorModel",
    "OrbitData",
    "build_operator",
    "compute_orbit",
    "orbit_walk",
    "max_orbit_length",
    "matrix_digest",
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

#: Blocks of at most this many rows are inverted whole by
#: :func:`upper_triangular_inverse`.
INVERSE_LEAF = 32


class Family(str, enum.Enum):
    """Operator family tags; the values double as config/CSV identifiers."""

    FORWARD = "forward-weighted-shift"
    DONOGHUE = "donoghue-backward-shift"
    DENSE = "dense"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OperatorModel:
    """A concrete N x N truncation.

    Attributes
    ----------
    family : Family
        Which construction produced the operator.
    weights : tuple[complex, ...] | None
        The shift weights (length ``dim - 1``); ``None`` for dense operators.
    dim : int
        Truncation size ``N >= 2``.
    matrix : numpy.ndarray
        The dense ``(dim, dim)`` complex matrix, read-only.  Shift families
        build it on first access; nothing on the build and verify paths
        needs it.  All operations on models are pure, so instances are safe
        to share.
    """

    family: Family
    weights: tuple[complex, ...] | None
    dim: int
    # the matrix for dense operators, the read-only weight array for shifts
    _array: np.ndarray = field(repr=False)

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

    def _shift(self, vec: np.ndarray, down: bool, conj: bool) -> np.ndarray:
        """Weighted one-step move of the entries, down or up the index."""
        x = np.asarray(vec, dtype=np.complex128)
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
        """``T vec`` for one vector or a ``(dim, k)`` block of columns."""
        if self.family is Family.DENSE:
            return self._array @ np.asarray(vec, dtype=np.complex128)
        return self._shift(vec, down=self.family is Family.FORWARD, conj=False)

    def adjoint_apply(self, vec: np.ndarray) -> np.ndarray:
        """``T* vec`` for one vector or a ``(dim, k)`` block of columns."""
        if self.family is Family.DENSE:
            return self._array.conj().T @ np.asarray(vec, dtype=np.complex128)
        return self._shift(vec, down=self.family is Family.DONOGHUE, conj=True)

    def shifted_solver(self, z: complex):
        """``rhs -> h`` solving ``(z - T) h = rhs`` for a fixed ``z``.

        ``rhs`` is one vector or a ``(dim, k)`` block of columns.  Shift
        families run an O(N) substitution down the bidiagonal, forward for
        the forward shift and backward for Donoghue; ``z = 0`` makes the
        solve raise ``numpy.linalg.LinAlgError``, and overflow leaves
        non-finite entries.  Dense operators are LU-factored once, here; a
        singular dense LU yields non-finite entries.
        """
        z = complex(z)
        if self.family is Family.DENSE:
            return _dense_lu_solver(np.diag(np.full(self.dim, z)) - self._array)
        backward = self.family is Family.DONOGHUE
        # h_i = (rhs_i + w h_{i-1}) / z in Python complex arithmetic, since
        # per-element numpy calls would cost more.  Dividing at each step is
        # the most accurate form tried: with precomputed ratios w / z, the
        # round-off in ai_residual failed one smoke Blaschke seed in 40.
        weights = [0j] + (self._array[::-1] if backward else self._array).tolist()

        def solve(rhs):
            if z == 0:
                raise np.linalg.LinAlgError("z - T is singular at z = 0")
            rhs = np.asarray(rhs, dtype=np.complex128)
            cols = rhs.reshape(self.dim, -1)
            if backward:
                cols = cols[::-1]
            out = np.empty(cols.shape[::-1], dtype=np.complex128)
            for j, col in enumerate(cols.T.tolist()):
                h, row = 0j, []
                for bi, wi in zip(col, weights):
                    h = (bi + wi * h) / z
                    row.append(h)
                out[j] = row
            out = out.T[::-1] if backward else out.T
            return out.reshape(rhs.shape)

        return solve

    @property
    def is_nilpotent(self) -> bool:
        """Structurally nilpotent (true for both shift families)."""
        return self.family is not Family.DENSE

    @functools.cached_property
    def _eigenvalues(self) -> np.ndarray:
        if self.is_nilpotent:
            return _readonly(np.zeros(self.dim))
        return _readonly(np.linalg.eigvals(self.matrix).reshape(-1))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the truncation (cached; exact zeros for shifts)."""
        return self._eigenvalues

    def spectral_radius(self) -> float:
        if self.is_nilpotent:
            return 0.0
        return float(np.max(np.abs(self.eigenvalues())))

    def norm_estimate(self) -> float:
        """Estimate of the operator 2-norm (exact for shift families)."""
        if self.weights is not None:
            return float(np.max(np.abs(self.weights)))
        m = self.matrix
        (start,) = _random_starts(self.dim, 1)
        return _power_root(lambda v: m.conj().T @ (m @ v), start)


def matrix_digest(op: OperatorModel) -> str:
    """sha256 of the dense matrix bytes (row-major), the dense operator's echo."""
    return hashlib.sha256(np.ascontiguousarray(op.matrix).tobytes()).hexdigest()


def _dense_lu_solver(a: np.ndarray):
    """``(rhs, trans=0) -> x`` solving ``a x = rhs`` (``trans=2``: ``a^H x = rhs``).

    ``a`` is LU-factored once.  This is the only place scipy is imported, so
    runs on the shift families never load it.  A singular ``a`` gives
    non-finite solutions, which callers check.
    """
    import scipy.linalg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(a, check_finite=False)
    return lambda rhs, trans=0: scipy.linalg.lu_solve(lu, rhs, trans=trans, check_finite=False)


def _random_starts(dim: int, count: int) -> list[np.ndarray]:
    """``count`` complex Gaussian start vectors for power iteration, from a fixed seed."""
    rng = np.random.default_rng(0)
    return [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(count)]


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


def _check_weights(family: Family, weights, dim: int) -> tuple[complex, ...]:
    w = tuple(complex(x) for x in weights)
    if len(w) != dim - 1:
        raise ArgumentError(
            f"{family.value} at dim {dim} needs {dim - 1} weights, got {len(w)}"
        )
    for i, x in enumerate(w):
        if x == 0:
            raise ArgumentError(f"weight {i + 1} is zero; all weights must be nonzero")
    if family is Family.DONOGHUE:
        mods = [abs(x) for x in w]
        for i in range(len(mods) - 1):
            if not mods[i + 1] < mods[i]:
                raise ArgumentError(
                    "Donoghue weights must be strictly decreasing in modulus; "
                    f"|w_{i + 1}| = {mods[i]:.6g} vs |w_{i + 2}| = {mods[i + 1]:.6g}"
                )
    return w


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
        The ``(dim, dim)`` matrix for the dense family; passed through
        unchanged (up to complex casting).
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
        return OperatorModel(family, None, dim, _readonly(m))

    if matrix is not None:
        raise ArgumentError(f"{family.value} takes weights, not a matrix")
    if weights is None:
        raise ArgumentError(f"{family.value} requires weights")
    w = _check_weights(family, weights, dim)
    return OperatorModel(family, w, dim, _readonly(w))


# ----------------------------------------------------------------------------
# weight generators


def geometric_weights(dim: int, ratio: complex) -> tuple[complex, ...]:
    """``w_i = ratio**i`` for ``i = 1 .. dim - 1``."""
    if ratio == 0:
        raise ArgumentError("geometric ratio must be nonzero")
    return tuple(complex(ratio) ** i for i in range(1, dim))


def factorial_decay_weights(dim: int) -> tuple[complex, ...]:
    """``w_i = 1 / i!`` for ``i = 1 .. dim - 1`` (dies past 170 in doubles)."""
    out = []
    for i in range(1, dim):
        try:
            v = 1.0 / math.factorial(i)
        except OverflowError:
            v = 0.0
        if v == 0.0:
            raise ArgumentError(
                f"factorial-decay weight {i} underflows to zero; reduce dim"
            )
        out.append(complex(v))
    return tuple(out)


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ArgumentError(f"complex entries must be [re, im], got {value!r}")
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def weights_from_config(cfg: dict, dim: int) -> tuple[complex, ...]:
    """Materialize a ``{"kind": ..., "params": {...}}`` weight description."""
    kind = cfg.get("kind")
    params = cfg.get("params", {})
    if kind == "explicit":
        return tuple(_as_complex(v) for v in params["values"])
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
            entries = mcfg["entries"]
            m = np.array(
                [[_as_complex(v) for v in row] for row in entries],
                dtype=np.complex128,
            )
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
    """A finite forward orbit with its biorthogonal norms.

    Attributes
    ----------
    vectors : numpy.ndarray
        Shape ``(length, dim)``; row ``n`` is ``x_n = T^n x_0``.
    biorthogonal_norms : numpy.ndarray
        ``r_n = 1 / dist(x_n, span of the other orbit vectors)``, the norm of
        the n-th coordinate functional of the (minimal) orbit system.  With
        ``X_s = Q R`` the QR factorization of the orbit with columns scaled
        to unit norm, ``r_n = ||row n of R^-1|| / ||x_n||``.
    length : int
        Number of orbit vectors.
    """

    vectors: np.ndarray
    biorthogonal_norms: np.ndarray
    length: int


def max_orbit_length(op: OperatorModel, seed: np.ndarray, cap: int) -> int:
    """Longest orbit ``x_0 .. x_{L-1}`` whose vectors all stay above the floor."""
    x = np.asarray(seed, dtype=np.complex128)
    count = 0
    for _ in range(cap):
        if np.linalg.norm(x) < ORBIT_NORM_FLOOR or not np.all(np.isfinite(x)):
            break
        count += 1
        x = op.apply(x)
    return count


def orbit_walk(op: OperatorModel, seed: np.ndarray, length: int) -> tuple[np.ndarray, int]:
    """Rows ``x_0 .. x_{length-1}`` and the count of leading vectors above the floor.

    No norm is taken per step: the walk goes one step past ``length`` (short
    of ``dim``) and checks the floor in one pass, so the count equals
    ``length`` exactly when ``max_orbit_length(op, seed, op.dim)`` does.
    """
    steps = min(length + 1, op.dim)
    vectors = np.empty((steps, op.dim), dtype=np.complex128)
    x = np.asarray(seed, dtype=np.complex128)
    for n in range(steps):
        vectors[n] = x
        x = op.apply(x)
    alive = (np.linalg.norm(vectors, axis=1) >= ORBIT_NORM_FLOOR) & np.all(
        np.isfinite(vectors), axis=1
    )
    reached = steps if alive.all() else int(np.argmin(alive))
    return vectors[:length], reached


def compute_orbit(op: OperatorModel, seed: np.ndarray, length: int) -> OrbitData:
    """Compute ``x_n = T^n e`` for ``n < length`` plus biorthogonal norms.

    The norms cost O(L^3) for ``L = length``: one QR of the column-normalized
    orbit ``X_s = Q R`` and one triangular inverse, since the functionals
    dual to the orbit are the rows of ``pinv(X_s) = R^-1 Q^H``.  Then
    ``r_n = ||row n of R^-1|| / ||x_n||``, and the orbit is minimal when
    every ``dist(x_n, others) = ||x_n|| / ||row n of R^-1||`` is at least
    ``MINIMALITY_RTOL * ||x_n||``.  The distance is to the exact span of
    the other vectors, with no rank truncation.

    Raises
    ------
    OrbitDeathError
        If some ``x_n`` with ``n < length`` falls below ``ORBIT_NORM_FLOOR``.
    MinimalityError
        If some ``x_n`` lies numerically in the span of the other orbit
        vectors (e.g. the identity operator, whose orbit vectors coincide).
        An exactly zero pivot of ``R`` is reported at its index, with
        distance 0.
    """
    e = np.asarray(seed, dtype=np.complex128).reshape(-1)
    if e.shape != (op.dim,):
        raise ArgumentError(f"seed shape {e.shape} != ({op.dim},)")
    if np.linalg.norm(e) == 0.0:
        raise ArgumentError("seed vector must be nonzero")
    if not 1 <= length <= op.dim:
        raise ArgumentError(f"orbit length must satisfy 1 <= L <= dim, got {length}")

    vectors, reached = orbit_walk(op, e, length)
    if reached < length:
        raise OrbitDeathError(reached, float(np.linalg.norm(vectors[reached])), ORBIT_NORM_FLOOR)

    norms = _biorthogonal_norms(vectors)
    return OrbitData(
        vectors=_readonly(vectors),
        biorthogonal_norms=norms,
        length=length,
    )


def _biorthogonal_norms(vectors: np.ndarray) -> np.ndarray:
    """``r_n = 1 / dist(x_n, span{x_i : i != n})``, the row norms of ``(R S)^-1``.

    ``R S`` with ``S = diag ||x_n||`` is the R factor of the orbit itself;
    see :func:`compute_orbit` for the formula.
    """
    scales = np.linalg.norm(vectors, axis=1)
    _, r = np.linalg.qr((vectors / scales[:, None]).T)
    r = r * scales[None, :]  # the R factor of the unscaled orbit
    zero = np.flatnonzero(np.diagonal(r) == 0)
    if zero.size:  # an exactly zero pivot: x_n is in the span
        n = int(zero[0])
        raise MinimalityError(n, 0.0, float(scales[n]))
    rinv = upper_triangular_inverse(r)
    out = np.linalg.norm(rinv, axis=1)
    dist = 1.0 / out
    bad = np.flatnonzero(~(dist >= MINIMALITY_RTOL * scales))  # nan counts as bad
    if bad.size:
        n = int(bad[0])
        raise MinimalityError(n, float(dist[n]), float(scales[n]))
    out.setflags(write=False)
    return out


def upper_triangular_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular ``r`` with a nonzero diagonal.

    Recursive 2 x 2 blocks, ``[[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1],
    [0, D^-1]]``, with ``numpy.linalg.inv`` on blocks of at most
    ``INVERSE_LEAF`` rows.  It matches ``numpy.linalg.solve(r, I)`` to
    round-off at about a quarter of its cost, since the products run in BLAS.
    """
    n = r.shape[0]
    if n <= INVERSE_LEAF:
        return np.linalg.inv(r)
    h = n // 2
    a_inv = upper_triangular_inverse(r[:h, :h])
    d_inv = upper_triangular_inverse(r[h:, h:])
    out = np.zeros(r.shape, dtype=a_inv.dtype)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    out[:h, h:] = -(a_inv @ r[:h, h:]) @ d_inv
    return out
