"""Coefficient sequences built from biorthogonal norms, and their zeros.

The construction: given positive norms ``r_0, r_1, ...`` set ``c_0 = 1`` and

    c_i = 2^-i * min{1/r_1, ..., 1/r_2i}        (capped at the supplied range)

so that ``c_i * r_{i+k} <= 2^-i`` termwise for ``i >= k``, which keeps the
bounds ``beta_k = sum_i c_i r_{i+k}`` finite (nothing here computes them).
The degree-d truncation ``F(z) = sum c_i z^i`` (optionally with its constant
term shifted) is the polynomial whose zeros downstream modules feed into
resolvent solves.

Orbit norms grow super-geometrically for decaying shift weights, so the c_i
span hundreds of orders of magnitude.  All polynomial evaluation here is done
against the normalization ``max(1, |z|)^d`` via Horner in ``1/z`` on the
reversed coefficients, which keeps every intermediate quantity representable.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import Tolerances
from .errors import ArgumentError, AssumptionError
from .operators import _readonly

__all__ = [
    "coefficients_from_norms",
    "apply_picard_shift",
    "find_zeros",
    "shifted_coefficients",
    "poly_eval_normalized",
    "evaluation_noise",
]

#: Pairwise zero separation must exceed this times the largest modulus.
DISTINCT_RTOL = 1e-9

DEGREE_CAP = 64

#: Newton steps per seed at most; a seed normally reaches the noise floor in one.
NEWTON_CAP = 40

_EPS = float(np.finfo(np.float64).eps)


def coefficients_from_norms(r, k_max: int, degree: int | None = None) -> np.ndarray:
    """The coefficients c_0..c_d from biorthogonal norms, read-only complex.

    ``r`` holds r_0..r_{L-1}; the min in the formula runs over indices
    1..2i, capped at the entries supplied.  Needs ``len(r) >= degree + k_max
    + 1``; the default degree is ``min(L - k_max - 1, 64)``.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size < 2:
        raise ArgumentError("need at least two orbit norms")
    if np.any(r <= 0) or not np.all(np.isfinite(r)):
        raise ArgumentError("orbit norms must be positive and finite")
    if k_max < 0:
        raise ArgumentError("k_max must be >= 0")

    if degree is None:
        degree = min(r.size - k_max - 1, DEGREE_CAP)
        if degree < 1:
            raise ArgumentError(
                f"{r.size} norms cannot support k_max={k_max}; "
                f"need at least {k_max + 2}"
            )
    needed = degree + k_max + 1
    if degree < 1:
        raise ArgumentError("degree must be >= 1")
    if r.size < needed:
        raise ArgumentError(
            f"got {r.size} norms, need {needed} for degree {degree}, k_max {k_max}"
        )

    i = np.arange(1, degree + 1)
    running_max = np.maximum.accumulate(r[1:])  # entry j - 1 is max(r_1..r_j)
    c = np.empty(degree + 1, dtype=np.complex128)
    c[0] = 1.0
    c[1:] = np.ldexp(1.0, -i) / running_max[np.minimum(2 * i, r.size - 1) - 1]
    return _readonly(c)


def apply_picard_shift(c) -> np.ndarray:
    """c with c_0 replaced by c_0 - d_shift for the unit shift d_shift = -max(1, c_0).

    The truncated polynomial keeps its full complement of zeros; the shift
    pins F(0) != 0.  The result is a new read-only array.
    """
    c = np.array(c, dtype=np.complex128)
    c[0] -= -max(1.0, float(c[0].real))
    return _readonly(c)


def shifted_coefficients(c, k: int) -> np.ndarray:
    """c^(k): k zeros then c, so its polynomial is z^k F(z).  Length d+k+1."""
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    return np.concatenate([np.zeros(k, dtype=np.complex128), c])


# ----------------------------------------------------------------------------
# overflow-safe polynomial evaluation


def _tables(c: list) -> tuple[list, list, list]:
    """The lists :func:`_horner` reads: c_i, |c_i| and i*c_i, lowest first.

    Built once per polynomial, in the type of ``c``'s entries (Python floats
    for a real law, complexes otherwise), so no evaluation recomputes them.
    """
    return c, [abs(ci) for ci in c], [i * ci for i, ci in enumerate(c)]


def _horner(law: tuple[list, list, list], z) -> tuple[complex, complex, bool, float]:
    """(F(z)/s_d, F'(z)/s_{d-1}, rescaled, a(z)/|s_d|) with s_k = z^k when |z| > 1.

    ``law`` is :func:`_tables` of the coefficients, and a(z) = sum |c_i|
    |z|^i is the round-off scale of the evaluation.  Inside the closed unit
    disk this is plain Horner (s_k = 1); outside it is Horner in u = 1/z on
    reversed coefficients, so no intermediate ever exceeds sum|c_i| and huge
    z cannot overflow.  A float ``z`` on a float law stays in float.
    """
    c, abs_c, ic = law
    r = abs(z)
    f = fp = 0j if isinstance(z, complex) else 0.0
    a = 0.0
    if r <= 1.0:
        for ci, ai in zip(reversed(c), reversed(abs_c)):
            fp = fp * z + f
            f = f * z + ci
            a = a * r + ai
        return f, fp, False, a
    u, ru = 1.0 / z, 1.0 / r
    # f = sum c_i u^(d-i) = F(z)/z^d and fp = sum i c_i u^(d-i) = F'(z)/z^(d-1)
    for ci, ai, ici in zip(c, abs_c, ic):
        f = f * u + ci
        fp = fp * u + ici
        a = a * ru + ai
    return f, fp, True, a


def poly_eval_normalized(c, z: complex) -> complex:
    """F(z) / max(1, |z|)^d without overflow, lowest-first coefficients."""
    c = np.asarray(c, dtype=np.complex128).reshape(-1).tolist()
    z = complex(z)
    f, _, rescaled, _ = _horner(_tables(c), z)
    if rescaled:
        f = f * (z / abs(z)) ** (len(c) - 1)
    return f


def evaluation_noise(c, z: complex) -> float:
    """eps * sum |c_i| |z|^i: the round-off floor of evaluating F at z.

    Infinite once the sum leaves the float range; it never raises.
    """
    c = np.asarray(c, dtype=np.complex128).reshape(-1).tolist()
    z = complex(z)
    _, _, rescaled, a = _horner(_tables(c), z)
    return _noise(a, rescaled, z, len(c) - 1)


def _noise(a: float, rescaled: bool, z: complex, d: int) -> float:
    """eps * a(z) from :func:`_horner`'s ``a`` at ``z``, for degree ``d``."""
    if rescaled:
        with np.errstate(over="ignore"):
            a = float(a * np.float64(abs(z)) ** d)
    return _EPS * a


def _newton_polish(law: tuple[list, list, list], z) -> tuple[complex, float, float]:
    """Newton from ``z`` on the normalised pair; the best iterate, its residual and noise.

    Takes at least one step, then stops once |F| is within the evaluation
    noise eps * a(z), where further steps only move z by round-off, or after
    ``NEWTON_CAP`` steps.  The noise is :func:`evaluation_noise` at the best
    iterate, from the evaluation made there.
    """
    f, fp, rescaled, a = _horner(law, z)
    best_z, best_r, best_a = z, abs(f), (a, rescaled)
    for _ in range(NEWTON_CAP):
        if fp == 0:
            break
        # F/F' = (f/fp) * (s_d / s_{d-1}); the scale ratio is z when |z| > 1
        z = z - (f / fp) * (z if rescaled else 1.0)
        f, fp, rescaled, a = _horner(law, z)
        r = abs(f)
        if r < best_r:
            best_z, best_r, best_a = z, r, (a, rescaled)
        if r <= _EPS * a:
            break
    return best_z, best_r, _noise(*best_a, best_z, len(law[0]) - 1)


def find_zeros(c, rtol: float = Tolerances.tol_zero) -> tuple[np.ndarray, np.ndarray]:
    """Every zero of the real polynomial with coefficients ``c``, and the noise floor at each.

    Seeds from the companion matrix of the geometrically balanced real
    coefficients, then Newton polishing through the normalized Horner pair,
    in Python arithmetic.  The seeds are real or exact conjugate pairs: a
    real seed is polished in Python floats and returns with imaginary part
    +0.0, and of each pair only the member with Im > 0 is polished; the
    other is its exact conjugate, with the same residual and noise, which is
    what polishing the conjugate seed gives bit for bit.  Each seed stops at
    the evaluation noise floor |F(z)| <= eps * sum |c_i| |z|^i, normally
    after one step.  Returns the d zeros ascending by Python ``abs``
    (read-only) and :func:`evaluation_noise` at each, kept from the polish.
    Raises when a coefficient has an imaginary part (every build's law is
    real), when some zero misses the residual tolerance ``rtol`` (|F|
    relative to the largest coefficient) or when two of them collide.
    """
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    d = c.size - 1
    if d < 1:
        raise ArgumentError("need at least degree 1")
    if c[d] == 0:
        raise ArgumentError("leading coefficient vanishes; lower the degree")
    if c.imag.any():
        raise ArgumentError("the coefficients must be real")

    # balance: z = s*y with s matching the overall coefficient span
    s = (abs(c[0]) / abs(c[d])) ** (1.0 / d) if c[0] != 0 else 1.0
    b = c.real * s ** np.arange(d + 1)
    b /= np.max(np.abs(b))
    law = _tables(c.real.tolist())
    polished = []
    for z0 in (npoly.polyroots(b) * s).tolist():
        if z0.imag == 0:
            z, r, noise = _newton_polish(law, z0.real)
            polished.append((complex(z), r, noise))
        elif z0.imag > 0:
            z, r, noise = _newton_polish(law, z0)
            polished += [(z, r, noise), (z.conjugate(), r, noise)]
    polished.sort(key=lambda t: abs(t[0]))

    max_c = float(np.max(np.abs(c)))
    bad = [(z, r / max_c) for z, r, _ in polished if not (r / max_c < rtol)]
    if bad:
        worst = max(bad, key=lambda t: t[1])
        raise AssumptionError(
            f"{len(bad)} of {d} zeros failed to polish; worst residual "
            f"{worst[1]:.3e} at |z| = {abs(worst[0]):.6g} (tol {rtol:.1e})"
        )

    lambdas = np.array([z for z, _, _ in polished], dtype=np.complex128)
    # distinctness is judged at each pair's own scale: zero sets here span
    # many orders of magnitude, and a global scale would flag every small
    # pair as coincident with the largest ring.  np.hypot is the scalar abs
    # bit for bit (np.abs on a complex array can differ in the last bit)
    moduli = np.hypot(lambdas.real, lambdas.imag)
    pair_scale = np.maximum.outer(moduli, moduli)
    gaps = lambdas[:, None] - lambdas
    coincide = np.triu(np.hypot(gaps.real, gaps.imag) <= DISTINCT_RTOL * pair_scale, 1)
    if coincide.any():
        i, j = np.argwhere(coincide)[0]
        raise AssumptionError(
            f"zeros {i} and {j} coincide within {DISTINCT_RTOL:.1e} "
            f"of their modulus {pair_scale[i, j]:.6g}; raise the degree"
        )
    return _readonly(lambdas), np.array([noise for _, _, noise in polished])
