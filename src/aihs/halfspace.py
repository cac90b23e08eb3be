"""End-to-end certificate builders for almost-invariant half-spaces.

Two constructions produce the same artifact.  The entire-function route
takes a minimal orbit, builds decay-dominating coefficients, Picard-shifts
the constant term, finds zeros of the truncated function, and spans Y by
resolvent vectors at those zeros; the annihilating functionals carry the
shifted coefficient sequences as orbit values.  The Blaschke route places
the zeros inside the unit disk (spectral radius at most 1) and reads the
functional values off the z^m B(z) coefficient tables.  Either way the
certificate records every metric with its threshold: a failed check is
carried in the artifact, never dropped.  A certificate keeps only inputs
and witnesses; :func:`compute_metrics` derives the rest, build and audit alike.

Certified claim, in operator terms: T maps span(basis) into
span(basis) + span{e} up to tol_ai, while k_max+1 (resp. m_max)
independent functionals annihilate the basis — a finite-truncation proxy
for a half-space with one-dimensional defect.
"""

from __future__ import annotations

import contextlib
import functools
import operator
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np
from numpy.polynomial import polynomial as npoly

from .blaschke import BlaschkeData, blaschke_sequence, blaschke_taylor, fm_coefficient_table
from .config import Tolerances
from .duality import containment_residual
from .entire import DEGREE_CAP, apply_picard_shift, coefficients_from_norms, find_zeros
from .errors import AihsError, ArgumentError, AssumptionError, SingularResolventError, StageError
from ._linalg import extend_basis, numerical_rank, qr_basis, smallest_singular_value, unit_columns
from .operators import OperatorModel, OrbitData, compute_orbit, operator_digest, orbit_form, _readonly
from .resolvent import ResolventSolver, filter_lambda_gap

__all__ = [
    "EntireLaw",
    "BlaschkeLaw",
    "HalfSpaceCertificate",
    "build_entire",
    "build_blaschke",
    "verify_certificate",
    "compute_metrics",
]


@dataclass(frozen=True, eq=False)
class EntireLaw:
    """The Picard-shifted c_0..c_d of F; functional k = 0..k_max takes those of z^k F."""

    coefficients: np.ndarray
    construction: ClassVar[str] = "Entire"
    first_index: ClassVar[int] = 0

    def orbit_values(self, k_max: int, length: int) -> np.ndarray:
        rows = np.zeros((k_max + 1, length), dtype=np.complex128)
        for k in range(k_max + 1):
            rows[k, k : k + self.coefficients.size] = self.coefficients
        return rows

    def references(self, rows: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
        """f_k(h(lambda)) = lambda^(k+1) F(lambda), by Horner on the rows' nonzero columns."""
        support = rows.shape[0] - 1 + self.coefficients.size
        return lambdas * npoly.polyval(lambdas, rows[:, :support].T)

    def coefficient_max(self) -> float:
        return float(np.max(np.abs(self.coefficients)))


@dataclass(frozen=True, eq=False)
class BlaschkeLaw:
    """The zeros of B and its Taylor order, L - 1 on an orbit of L vectors (no later b_n is
    paired with one); functional j = 1..m_max takes z^j B's coefficients."""

    zeros: np.ndarray
    order: int
    construction: ClassVar[str] = "Blaschke"
    first_index: ClassVar[int] = 1

    @functools.cached_property
    def series(self) -> BlaschkeData:
        return blaschke_taylor(self.zeros, self.order)

    def orbit_values(self, m_max: int, length: int) -> np.ndarray:
        return fm_coefficient_table(self.series, m_max, length - 1)[1:]

    def references(self, rows: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
        """f_j(h(lambda)) = lambda F_j(lambda) for the truncated series, in one product.

        That holds at any lambda; only a zero of B makes it an annihilation.
        """
        if not np.all(np.isin(lambdas, self.zeros)):
            raise ArgumentError("a certified lambda is not in the stored zero sequence")
        return lambdas * (rows @ np.vander(lambdas, rows.shape[1], increasing=True).T)

    def coefficient_max(self) -> float:
        return float(np.max(np.abs(self.series.taylor)))


@dataclass(frozen=True, eq=False)
class HalfSpaceCertificate:
    """Machine-checkable record of one half-space construction.

    The inputs and witnesses, with the ``metrics`` they determine; ``checks``
    pairs each metric with its threshold and verdict.  ``duals`` is the read-only
    (N, k) array of the functionals' minimum-norm dual vectors, column j holding
    phi_{first_index + j}, f(x) = phi^H x.  ``basis`` is derived from the stored
    fields on first access, so a fresh build and a read-back certificate give
    the same array.
    """

    law: EntireLaw | BlaschkeLaw
    operator_config: dict
    defect_vector: np.ndarray
    raw_vectors: np.ndarray
    lambdas: np.ndarray
    excluded_lambdas: tuple
    duals: np.ndarray
    metrics: dict
    checks: dict
    tolerances: dict
    hypothesis: dict
    m_requested: int
    m_achieved: int
    k_max: int
    orbit_length: int
    config_echo: dict = field(default_factory=dict)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis of Y, ``qr_basis`` of the resolvent vectors."""
        return _readonly(qr_basis(unit_columns(self.raw_vectors)))

    @property
    def construction(self) -> str:
        return self.law.construction

    @property
    def degree(self) -> int | None:
        return self.law.coefficients.size - 1 if isinstance(self.law, EntireLaw) else None

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.checks.values())

    @property
    def hypothesis_unverified(self) -> bool:
        return bool(self.hypothesis.get("unverified", False))


#: Each checked metric: the Tolerances field of its threshold (None for the
#: fixed defect-rank bound 1) and the comparison its value must pass.
_CHECKS = {
    "independence_sigma_min": ("tol_rank", operator.gt),
    "ai_defect_rank": (None, operator.le),
    "ai_residual": ("tol_ai", operator.lt),
    "max_annihilation_residual": ("tol_annihilation_base", operator.lt),
    "functional_independence_sigma_min": ("tol_rank", operator.gt),
    "extension_residual_max": ("tol_extension", operator.lt),
}


def _judge(metrics: dict, thresholds: dict) -> dict:
    """Each checked metric with its threshold and verdict."""
    return {
        name: {"value": metrics[name], "threshold": thresholds[name],
               "passed": bool(passes(metrics[name], thresholds[name]))}
        for name, (_, passes) in _CHECKS.items()
    }


def _drift(stored, derived) -> float:
    """|stored - derived| / max(|stored|, |derived|, 1): relative, or absolute below 1."""
    return abs(stored - derived) / max(abs(stored), abs(derived), 1.0)


def _agrees(stored, derived, tol: float) -> bool:
    """The audit's one agreement rule: a derived float within ``tol`` by :func:`_drift`
    (so a nan never agrees), a dict on the derived dict's keys, anything else exactly."""
    if isinstance(derived, dict):
        return all(_agrees(stored[key], value, tol) for key, value in derived.items())
    if isinstance(derived, float):
        return _drift(stored, derived) <= tol
    return stored == derived


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except (AihsError, np.linalg.LinAlgError, ValueError) as exc:
        raise StageError(name, exc) from exc


def _select_lambdas(op: OperatorModel, candidates: np.ndarray, m: int, tol: Tolerances,
                    noisy: list | None = None) -> tuple[np.ndarray, list]:
    """Largest m candidates surviving the conditioning gap and noise floor.

    ``noisy[i]`` excludes candidate i because its evaluation round-off
    already exceeds the guard fraction of the annihilation budget; without
    it, far-out zeros of saturated coefficient tails would certify nothing.
    Excluded zeros are recorded with reasons, and a shortfall reports a
    reduced m rather than failing.

    Moduli equal within ``tol_zero``, the zero finder's relative accuracy,
    tie, and the member with Im >= 0 ranks higher, so a conjugate pair cut
    at the m-th place always gives the same member.
    """
    excluded: list = []
    survivors = []
    gapped = set(filter_lambda_gap(op, candidates, tol.eigen_gap_rtol).tolist())
    for lam, loud in zip(candidates.tolist(), noisy or [False] * candidates.size):
        if lam not in gapped:
            excluded.append((lam, "eigenvalue-gap"))
        elif loud:
            excluded.append((lam, "noise-floor"))
        else:
            survivors.append(lam)
    if not survivors:
        raise AssumptionError(
            "no zero survives the conditioning and noise guards; "
            "raise the truncation or lower k_max"
        )
    survivors.sort(key=abs)
    tier = [0]  # a modulus within tol_zero of the one below shares its tier
    for below, lam in zip(survivors, survivors[1:]):
        tier.append(tier[-1] + (abs(lam) - abs(below) > tol.tol_zero * abs(lam)))
    ranked = sorted(range(len(survivors)), key=lambda i: (tier[i], survivors[i].imag >= 0))
    return np.array([survivors[i] for i in ranked[-m:]], dtype=np.complex128), excluded


def _solve_resolvents(
    op: OperatorModel, e: np.ndarray, lambdas: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, list]:
    vectors, kept, excluded = [], [], []
    for lam in lambdas:
        try:
            rv = ResolventSolver(op, lam, defect_tol=tol.resolvent_defect_tol).solve(e)
        except SingularResolventError as exc:
            excluded.append((complex(lam), f"resolvent-defect: {exc}"))
            continue
        vectors.append(rv.vector)
        kept.append(complex(lam))
    if not vectors:
        raise AssumptionError("every resolvent solve failed the defect check")
    return np.stack(vectors, axis=1), np.array(kept, dtype=np.complex128), excluded


def _independence(unit: np.ndarray, vectors: np.ndarray) -> float:
    """sigma_min of ``unit``, the unit columns of ``vectors``; 0 when a column of
    ``vectors`` is zero, which ``unit_columns`` drops."""
    return smallest_singular_value(unit) if unit.shape[1] == vectors.shape[1] else 0.0


def compute_metrics(
    op: OperatorModel,
    e: np.ndarray,
    orbit: OrbitData,
    raw_vectors: np.ndarray,
    lambdas: np.ndarray,
    duals: np.ndarray,
    law: EntireLaw | BlaschkeLaw,
    k_max: int,
    tol: Tolerances,
) -> tuple[dict, dict]:
    """(metrics, checks) from a certificate's inputs.

    The one derivation behind the builders and the audit.  Inputs: the orbit
    x_0..x_{L-1} in its form, the resolvent vectors and the dual vectors
    (columns), and the law, which prescribes the orbit values and references.  Y's
    basis is ``qr_basis`` of the resolvent vectors, and Y + span{e} has that
    basis grown by the unit e (``extend_basis``).  ``ai_defect_rank`` is
    the rank excess of [T*basis | basis | e] over [basis | e].  The
    annihilation residual is divided by (1+max|lambda|)^(k_max+1)*max|c_i|,
    the round-off growth of lambda^(k+1)*F(lambda).

    A shift moves a row by one, so for the shift families every metric but
    the orbit replay is derived on the k rows up to one past the last nonzero
    row of the raw vectors, the duals and e (read off the arrays, not a stored
    count), through the k x k truncation of T (``OperatorModel.on_support``):
    the work stops at the zero tail.  A dense operator keeps all N rows.
    """
    rows = law.orbit_values(k_max, orbit.length)
    # the entire route's references vanish at its zeros, so only the Blaschke route subtracts any
    refs = law.references(rows, lambdas) if law.construction == "Blaschke" else None
    scale = (1.0 + float(np.max(np.abs(lambdas)))) ** (k_max + 1) * law.coefficient_max()
    replayed = orbit.replay(duals)  # replayed[j, i] = f_j(x_i)
    extension = float(np.max(np.abs(replayed - rows))) / max(float(np.max(np.abs(rows))), 1e-300)

    op, (e, raw_vectors, duals) = op.on_support(e.reshape(-1, 1), raw_vectors, duals)
    unit = unit_columns(raw_vectors)
    basis = qr_basis(unit)
    with_e = np.hstack([basis, e])
    enlarged = extend_basis(basis, e[:, 0] / np.linalg.norm(e))  # Y + span{e}
    moved = op.apply(basis)

    inner = duals.conj().T @ raw_vectors  # inner[j, n] = f_j(h(lambda_n))
    if refs is not None:
        inner = inner - refs

    metrics = {
        "construction": law.construction,
        "lambda_set": [complex(z) for z in lambdas],
        "independence_sigma_min": _independence(unit, raw_vectors),
        "ai_defect_rank": (numerical_rank(np.hstack([moved, with_e]), rtol=tol.tol_rank)
                           - numerical_rank(with_e, rtol=tol.tol_rank)),
        "ai_residual": float(containment_residual(moved, enlarged)),
        "max_annihilation_residual": float(np.max(np.abs(inner))) / scale,
        "annihilation_scale": float(scale),
        "functional_independence_sigma_min": _independence(unit_columns(duals), duals),
        "extension_residual_max": extension,
    }
    thresholds = {name: getattr(tol, key) if key else 1 for name, (key, _) in _CHECKS.items()}
    return metrics, _judge(metrics, thresholds)


def _blaschke_hypothesis(op: OperatorModel, orbit: OrbitData, cap: float) -> dict:
    """The Blaschke route's hypothesis block: the spectral-radius estimate and the norm sum
    sum(r_n / n) over the orbit's biorthogonal norms, with the flag it earns against ``cap``."""
    partial = float(np.sum(orbit.biorthogonal_norms[1:] / np.arange(1, orbit.length, dtype=float)))
    exceeds = not partial <= cap
    return {"spectral_radius_estimate": op.spectral_radius(), "norm_sum_partial": partial,
            "norm_sum_cap": cap, "unverified": exceeds,
            "flags": ["functional-norm-sum-exceeds-cap"] if exceeds else []}


def _certify(op, e, orbit: OrbitData, candidates, m, law, k_max, tol, hypothesis, noisy=None):
    """The builders' tail: selection, resolvent vectors, dual vectors, metrics.

    ``candidates`` are the route's zeros, ``noisy`` its noise-floor mask on
    them (the entire route's), and ``hypothesis`` the route's hypothesis block.
    """
    with _stage("selection"):
        lambdas, excluded = _select_lambdas(op, candidates, m, tol, noisy)
    with _stage("resolvent"):
        raw, lambdas, dropped = _solve_resolvents(op, e, lambdas, tol)
        excluded.extend(dropped)
    with _stage("functionals"):
        rows = law.orbit_values(k_max, orbit.length)
        duals = orbit.min_norm_duals(rows.T)  # (dim, k)
    with _stage("metrics"):
        metrics, checks = compute_metrics(op, e, orbit, raw, lambdas, duals, law, k_max, tol)
    return HalfSpaceCertificate(
        law=law,
        operator_config={"family": op.family.value, "dim": op.dim, "sha256": operator_digest(op)},
        defect_vector=_readonly(e),
        raw_vectors=_readonly(raw),
        lambdas=_readonly(lambdas),
        excluded_lambdas=tuple(excluded),
        duals=_readonly(duals),
        metrics=metrics,
        checks=checks,
        tolerances=asdict(tol),
        hypothesis=hypothesis,
        m_requested=m,
        m_achieved=int(lambdas.size),
        k_max=k_max,
        orbit_length=orbit.length,
    )


def build_entire(
    op: OperatorModel,
    e: np.ndarray,
    m: int,
    k_max: int,
    tolerances: Tolerances | None = None,
) -> HalfSpaceCertificate:
    """Certificate via orbit coefficients, zeros, and resolvent vectors.

    Pipeline: orbit norms -> decay-dominating coefficients -> constant-term
    shift -> zeros of the truncation -> guarded zero selection -> resolvent
    span -> minimum-norm functionals -> metrics.  Stage failures carry the
    stage name.  A degenerate m = 1 yields a one-dimensional Y and is valid.
    """
    tol = tolerances or Tolerances()
    if m < 1:
        raise ArgumentError("need at least one zero (m >= 1)")
    if k_max < 0:
        raise ArgumentError("k_max must be nonnegative")
    e = np.asarray(e, dtype=np.complex128).reshape(-1)

    with _stage("orbit"):
        orbit = compute_orbit(op, e, op.dim)
        length = orbit.length
        if length < k_max + 3:
            raise AssumptionError(
                f"orbit supports only {length} vectors; need k_max + 3 = {k_max + 3}"
            )

    with _stage("coefficients"):
        # halve the budget so the coefficient law never saturates at the
        # orbit edge (saturated tails breed far-out zero clusters whose
        # evaluation noise swamps the annihilation budget); length >= k_max + 3 makes it >= 1
        degree = min((length - 1) // 2, length - 1 - k_max, DEGREE_CAP)
        base = coefficients_from_norms(orbit.biorthogonal_norms, k_max, degree=degree)

    with _stage("picard"):
        c = apply_picard_shift(base)

    with _stage("zeros"):
        if degree < m:
            raise AssumptionError(f"degree {degree} yields fewer than m = {m} zeros")
        zeros, noise = find_zeros(c, rtol=tol.tol_zero)

    # the noise guard: the round-off of evaluating lam^(k_max+1) F(lam) against
    # the guard's share of the annihilation budget, per zero in scalar numpy
    # arithmetic (the vectorised abs and power round differently in the last bit)
    max_c = float(np.abs(c).max())
    with np.errstate(over="ignore"):
        noisy = [
            not noise_at * np.float64(abs(lam)) ** (k_max + 1)
            <= (tol.noise_guard_fraction * tol.tol_annihilation_base
                * (1.0 + abs(lam)) ** (k_max + 1) * max_c)
            for lam, noise_at in zip(zeros, noise.tolist())
        ]

    return _certify(
        op, e, orbit, zeros, m, EntireLaw(c), k_max, tol, noisy=noisy,
        hypothesis={"unverified": False, "flags": []},
    )


def build_blaschke(
    op: OperatorModel,
    e: np.ndarray,
    m: int,
    m_max: int,
    lambdas: np.ndarray | None = None,
    tolerances: Tolerances | None = None,
    defect_cap: float | None = None,
) -> HalfSpaceCertificate:
    """Certificate with zeros inside the unit disk and z^m B(z) functionals.

    Requires a spectral-radius estimate at most 1 (+ slack).  The summed
    functional-norm hypothesis sum(r_n / n) is checked against the cap and
    reported: exceeding it marks the certificate hypothesis-unverified
    without failing the finite-sum annihilation identity, which holds (and
    is checked against the derived lambda*F_m(lambda) references) regardless.
    """
    tol = tolerances or Tolerances()
    if m < 1:
        raise ArgumentError("need at least one disk zero (m >= 1)")
    if m_max < 1:
        raise ArgumentError("need at least one functional (m_max >= 1)")
    e = np.asarray(e, dtype=np.complex128).reshape(-1)

    with _stage("hypothesis"):
        radius = op.spectral_radius()
        if radius > 1.0 + tol.spectral_radius_slack:
            raise AssumptionError(
                f"spectral radius estimate {radius:.6g} exceeds 1 + slack"
            )

    with _stage("zeros"):
        if lambdas is None:
            lambdas = blaschke_sequence("inverse-square", m)
        else:
            lambdas = blaschke_sequence("explicit", m, values=np.asarray(lambdas).reshape(-1))

    with _stage("orbit"):
        orbit = compute_orbit(op, e, op.dim)
        if orbit.length < m_max + 1:  # f_j reads b_{n-j} for n < L: zero for j >= L
            raise AssumptionError(f"orbit supports only {orbit.length} vectors; "
                                  f"need m_max + 1 = {m_max + 1}")
        hypothesis = _blaschke_hypothesis(op, orbit, tol.blaschke_norm_cap)

    with _stage("taylor"):
        law = BlaschkeLaw(_readonly(lambdas), orbit.length - 1)
        # the summability guard, on the series the law derives
        if defect_cap is not None and law.series.defect_sum > defect_cap:
            raise AssumptionError(f"sum of (1 - |lam|) = {law.series.defect_sum:.6g} "
                                  f"exceeds the cap {defect_cap:.6g}")

    return _certify(op, e, orbit, lambdas, m, law, m_max, tol, hypothesis=hypothesis)


def verify_certificate(
    op: OperatorModel, cert: HalfSpaceCertificate, tolerances: Tolerances | None = None
) -> dict:
    """From-scratch audit: derive everything from the stored inputs and diff against stored.

    Re-solves the resolvent vectors, walks the orbit in its form (its length
    must be the stored one) and derives the rest with :func:`compute_metrics`
    and, on the Blaschke route, :func:`_blaschke_hypothesis`.  The stored
    metrics, check values and verdicts, and hypothesis must agree with the
    derived ones by :func:`_agrees`, the raw vectors column by column at each
    column's own scale, and every derived value must pass the audit's own
    thresholds.  Returns per-metric stored/recomputed/diff entries,
    ``failures``, ``passed`` and ``hypothesis_unverified``: the derived sum
    against the stored cap or the audit's own, whichever flags.
    """
    tol = tolerances or Tolerances()
    with _stage("audit"):
        if not np.any(cert.defect_vector):
            raise AssumptionError("the stored defect vector is zero")
        raw, _, failed = _solve_resolvents(op, cert.defect_vector, cert.lambdas, tol)
        if failed:
            raise AssumptionError(f"stored lambda {failed[0][0]} fails its {failed[0][1]}")
        orbit = orbit_form(op, cert.defect_vector, op.dim)
        if orbit.length != cert.orbit_length:
            raise AssumptionError(f"the orbit has {orbit.length} vectors above the floor, "
                                  f"not the stored {cert.orbit_length}")
        metrics, checks = compute_metrics(
            op, cert.defect_vector, orbit, raw, cert.lambdas, cert.duals, cert.law, cert.k_max, tol
        )
        # the entire route's hypothesis is fixed by the certificate schema
        earned = (_blaschke_hypothesis(op, orbit, cert.hypothesis["norm_sum_cap"])
                  if isinstance(cert.law, BlaschkeLaw) else None)

    # the stored raw vectors must reproduce from the operator and stored lambdas,
    # each at its own scale: the columns span many orders of magnitude
    scale = np.maximum(np.max(np.abs(cert.raw_vectors), axis=0), 1e-300)
    raw_drift = float(np.max(np.max(np.abs(raw - cert.raw_vectors), axis=0) / scale))
    failures = [] if raw_drift <= tol.tol_audit else ["raw_vectors"]
    # a stored threshold is an input of its check: only its value and verdict are derived
    thresholds = {name: cert.checks[name]["threshold"] for name in _CHECKS}
    claimed = {name: {"value": check["value"], "passed": check["passed"]}
               for name, check in _judge(metrics, thresholds).items()}
    own_failed = {name for name, check in checks.items() if not check["passed"]}
    sections = [("", cert.metrics, metrics, own_failed), ("checks.", cert.checks, claimed, ())]
    if earned is not None:
        sections.append(("hypothesis.", cert.hypothesis, earned, ()))
    for prefix, stored, derived, unmet in sections:
        for name, value in derived.items():
            if not _agrees(stored[name], value, tol.tol_audit):
                failures.append(prefix + name)
            if name in unmet:
                failures.append(f"{prefix}{name}:threshold")
    # the radius bound is named after every hypothesis entry, not next to its own
    if earned is not None and earned["spectral_radius_estimate"] > 1.0 + tol.spectral_radius_slack:
        failures.append("hypothesis.spectral_radius_estimate:threshold")
    entries = {name: {"stored": cert.metrics[name], "recomputed": value,
                      "relative_diff": _drift(cert.metrics[name], value),
                      "agrees": name not in failures,
                      "threshold_passed": f"{name}:threshold" not in failures}
               for name, value in metrics.items() if name not in ("construction", "lambda_set")}
    return {"metrics": entries, "raw_vector_drift": raw_drift, "failures": failures,
            "hypothesis_unverified": earned is not None and (
                earned["unverified"] or not earned["norm_sum_partial"] <= tol.blaschke_norm_cap),
            "passed": not failures}
