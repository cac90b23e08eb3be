"""End-to-end certificate builders for almost-invariant half-spaces.

Two constructions produce the same artifact.  The entire-function route
takes a minimal orbit, builds decay-dominating coefficients, Picard-shifts
the constant term, finds zeros of the truncated function, and spans Y by
resolvent vectors at those zeros; the annihilating functionals carry the
shifted coefficient sequences as orbit values.  The Blaschke route places
the zeros inside the unit disk (spectral radius at most 1) and reads the
functional values off the z^m B(z) coefficient tables.  Either way the
certificate records every metric with its threshold: a failed check is
carried in the artifact, never dropped.

Certified claim, in operator terms: T maps span(basis) into
span(basis) + span{e} up to tol_ai, while k_max+1 (resp. m_max)
independent functionals annihilate the basis — a finite-truncation proxy
for a half-space with one-dimensional defect.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .blaschke import blaschke_sequence, blaschke_taylor, fm_coefficient_table
from .config import Tolerances
from .duality import containment_residual
from .entire import (
    DEGREE_CAP,
    apply_picard_shift,
    coefficients_from_norms,
    find_zeros,
    poly_eval_normalized,
    shifted_coefficients,
)
from .errors import AihsError, ArgumentError, AssumptionError, SingularResolventError, StageError
from ._linalg import min_norm_dual, numerical_rank, qr_basis, smallest_singular_value, unit_columns
from .operators import (
    OperatorModel, OrbitData, compute_orbit, matrix_digest, max_orbit_length, _readonly
)
from .resolvent import ResolventSolver, filter_lambda_gap

__all__ = [
    "FunctionalRep",
    "HalfSpaceCertificate",
    "build_entire",
    "build_blaschke",
    "verify_certificate",
    "compute_metrics",
]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class FunctionalRep:
    """One annihilating functional, f(x) = <dual_vector, x> = dual^H x.

    ``orbit_values[i]`` is the prescribed f(T^i e); ``dual_vector`` is the
    minimum-norm vector matching them on the orbit (pseudo-inverse
    extension — canonical, reproducible, and exact on the orbit span).
    ``norm_bound`` is the construction's a-priori bound (beta_k for the
    entire route, C*m*sum(r_n/n) for the Blaschke route), recorded for
    audit; ``dual_vector``'s actual norm may be smaller.
    """

    k: int
    orbit_values: np.ndarray
    dual_vector: np.ndarray
    norm_bound: float
    extension_residual: float


@dataclass(frozen=True, eq=False)
class HalfSpaceCertificate:
    """Machine-checkable record of one half-space construction.

    ``metrics`` holds the computed quantities; ``checks`` pairs each with
    its threshold and verdict.  ``max_annihilation_residual`` is stored
    normalized by annihilation_scale = (1+max|lambda|)^(k_max+1)*max|c_i|,
    the round-off growth of lambda^(k+1)*F(lambda), so its threshold is the
    scale-free base tolerance.
    """

    construction: str
    operator_config: dict
    defect_vector: np.ndarray
    basis: np.ndarray
    raw_vectors: np.ndarray
    lambdas: np.ndarray
    excluded_lambdas: tuple
    functionals: tuple
    reference_values: np.ndarray
    metrics: dict
    checks: dict
    tolerances: dict
    hypothesis: dict
    m_requested: int
    m_achieved: int
    k_max: int
    orbit_length: int
    degree: int | None = None
    picard_shift: complex = 0.0
    config_echo: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.checks.values())

    @property
    def hypothesis_unverified(self) -> bool:
        return bool(self.hypothesis.get("unverified", False))


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except (AihsError, np.linalg.LinAlgError, ValueError) as exc:
        raise StageError(name, exc) from exc


def _operator_echo(op: OperatorModel) -> dict:
    echo: dict = {"family": op.family.value, "dim": op.dim}
    if op.weights is not None:
        echo["weights"] = [[float(w.real), float(w.imag)] for w in op.weights]
    else:
        echo["matrix_sha256"] = matrix_digest(op)
    return echo


def _select_lambdas(
    op: OperatorModel,
    candidates: np.ndarray,
    m: int,
    tol: Tolerances,
    noise_floor,
) -> tuple[np.ndarray, list]:
    """Largest m candidates surviving the conditioning gap and noise floor.

    ``noise_floor(lam) -> (noise, budget)`` excludes zeros whose evaluation
    round-off already exceeds the guard fraction of the annihilation budget;
    without it, far-out zeros of saturated coefficient tails would certify
    nothing.  Excluded zeros are recorded with reasons, and a shortfall
    reports a reduced m rather than failing.
    """
    excluded: list = []
    survivors = []
    for lam in candidates:
        if filter_lambda_gap(op, np.array([lam]), tol.eigen_gap_rtol).size == 0:
            excluded.append((complex(lam), "eigenvalue-gap"))
            continue
        if noise_floor is not None:
            noise, budget = noise_floor(lam)
            if not noise <= budget:
                excluded.append((complex(lam), "noise-floor"))
                continue
        survivors.append(complex(lam))
    if not survivors:
        raise AssumptionError(
            "no zero survives the conditioning and noise guards; "
            "raise the truncation or lower k_max"
        )
    survivors.sort(key=abs)
    return np.array(survivors[-m:], dtype=np.complex128), excluded


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


def _build_functionals(
    orbit: OrbitData, value_rows: list, norm_bounds, index_base: int
) -> tuple:
    values_block = np.array(value_rows, dtype=np.complex128)  # (k, L)
    duals = min_norm_dual(orbit.vectors.T, values_block.T)  # (dim, k), one solve
    reps = []
    for j, (values, phi) in enumerate(zip(values_block, duals.T)):
        achieved = phi.conj() @ orbit.vectors.T
        resid = float(np.max(np.abs(achieved - values)))
        reps.append(
            FunctionalRep(
                k=index_base + j,
                orbit_values=_readonly(values),
                dual_vector=_readonly(phi),
                norm_bound=float(norm_bounds[j]),
                extension_residual=resid,
            )
        )
    return tuple(reps)


def compute_metrics(
    op: OperatorModel,
    e: np.ndarray,
    raw_vectors: np.ndarray,
    basis: np.ndarray,
    functionals,
    lambdas: np.ndarray,
    reference_values: np.ndarray,
    annihilation_scale: float,
    construction: str,
    tol: Tolerances,
) -> tuple[dict, dict]:
    """Every certificate metric with its threshold verdict.

    Shared verbatim by the builders and the auditor so "recompute" means
    the same arithmetic: the basis is taken in Fortran order, the layout
    ``qr_basis`` hands the builders, whatever layout a read-back
    certificate has (column norms sum in a layout-dependent order).
    ``ai_defect_rank`` is the rank excess of [T*basis | basis | e] over
    [basis | e]: zero exactly when T moves the half-space nowhere new
    beyond the defect line.
    """
    basis = np.asfortranarray(basis)
    e_col = e.reshape(-1, 1)
    with_e = np.hstack([basis, e_col])
    moved = op.apply(basis)
    rank_small = numerical_rank(with_e, rtol=tol.tol_rank)
    rank_big = numerical_rank(np.hstack([moved, with_e]), rtol=tol.tol_rank)
    ai_rank = rank_big - rank_small
    ai_resid = containment_residual(moved, qr_basis(with_e))

    indep = smallest_singular_value(unit_columns(raw_vectors))
    duals = np.stack([f.dual_vector for f in functionals], axis=1)
    f_indep = smallest_singular_value(unit_columns(duals))

    inner = duals.conj().T @ raw_vectors  # inner[j, n] = f_j(h(lambda_n))
    if construction == "Blaschke":
        worst = float(np.max(np.abs(inner - reference_values)))
    else:
        worst = float(np.max(np.abs(inner)))
    annih = worst / annihilation_scale

    ext_scale = max(
        float(np.max(np.abs(f.orbit_values))) for f in functionals
    )
    ext_worst = max(f.extension_residual for f in functionals) / max(ext_scale, 1e-300)

    metrics = {
        "construction": construction,
        "lambda_set": [complex(z) for z in lambdas],
        "independence_sigma_min": float(indep),
        "ai_defect_rank": int(ai_rank),
        "ai_residual": float(ai_resid),
        "max_annihilation_residual": float(annih),
        "annihilation_scale": float(annihilation_scale),
        "functional_independence_sigma_min": float(f_indep),
        "extension_residual_max": float(ext_worst),
    }
    checks = {
        "independence_sigma_min": {
            "value": metrics["independence_sigma_min"],
            "threshold": tol.tol_rank,
            "passed": metrics["independence_sigma_min"] > tol.tol_rank,
        },
        "ai_defect_rank": {
            "value": ai_rank,
            "threshold": 1,
            "passed": ai_rank <= 1,
        },
        "ai_residual": {
            "value": metrics["ai_residual"],
            "threshold": tol.tol_ai,
            "passed": metrics["ai_residual"] < tol.tol_ai,
        },
        "max_annihilation_residual": {
            "value": metrics["max_annihilation_residual"],
            "threshold": tol.tol_annihilation_base,
            "passed": metrics["max_annihilation_residual"] < tol.tol_annihilation_base,
        },
        "functional_independence_sigma_min": {
            "value": metrics["functional_independence_sigma_min"],
            "threshold": tol.tol_rank,
            "passed": metrics["functional_independence_sigma_min"] > tol.tol_rank,
        },
        "extension_residual_max": {
            "value": metrics["extension_residual_max"],
            "threshold": tol.tol_extension,
            "passed": metrics["extension_residual_max"] < tol.tol_extension,
        },
    }
    return metrics, checks


def build_entire(
    op: OperatorModel,
    e: np.ndarray,
    m: int,
    k_max: int,
    tolerances: Tolerances | None = None,
    degree: int | None = None,
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
        length = max_orbit_length(op, e, cap=op.dim)
        if length < k_max + 3:
            raise AssumptionError(
                f"orbit supports only {length} vectors; need k_max + 3 = {k_max + 3}"
            )
        orbit = compute_orbit(op, e, length)

    with _stage("coefficients"):
        if degree is None:
            # halve the budget so the coefficient law never saturates at the
            # orbit edge (saturated tails breed far-out zero clusters whose
            # evaluation noise swamps the annihilation budget)
            degree = min((length - 1) // 2, length - 1 - k_max, DEGREE_CAP)
        if degree < 1:
            raise AssumptionError(f"no admissible polynomial degree at orbit length {length}")
        base = coefficients_from_norms(orbit.biorthogonal_norms, k_max, degree=degree)

    with _stage("picard"):
        cs = apply_picard_shift(base)

    with _stage("zeros"):
        if degree < m:
            raise AssumptionError(f"degree {degree} yields fewer than m = {m} zeros")
        # all candidates; selection guards next
        zero_set = find_zeros(cs, degree, rtol=tol.tol_zero)

    abs_c = np.abs(cs.coefficients)
    max_c = float(abs_c.max())
    powers = np.arange(abs_c.size) + k_max + 1

    def noise_floor(lam: complex) -> tuple[float, float]:
        with np.errstate(over="ignore"):
            noise = _EPS * float(np.sum(abs_c * np.abs(lam) ** powers))
        budget = (
            tol.noise_guard_fraction
            * tol.tol_annihilation_base
            * (1.0 + abs(lam)) ** (k_max + 1)
            * max_c
        )
        return noise, budget

    with _stage("selection"):
        lambdas, excluded = _select_lambdas(op, zero_set.lambdas, m, tol, noise_floor)

    with _stage("resolvent"):
        raw, lambdas, dropped = _solve_resolvents(op, e, lambdas, tol)
        excluded.extend(dropped)

    with _stage("basis"):
        basis = qr_basis(raw)

    with _stage("functionals"):
        rows = [
            np.concatenate(
                [shifted_coefficients(cs, k), np.zeros(length - degree - 1 - k)]
            )
            for k in range(k_max + 1)
        ]
        functionals = _build_functionals(orbit, rows, cs.norm_bounds, index_base=0)

    with _stage("metrics"):
        # reference identity values lambda^(k+1) * F(lambda), an oracle rail
        refs = np.empty((k_max + 1, lambdas.size), dtype=np.complex128)
        for k in range(k_max + 1):
            ck = shifted_coefficients(cs, k)
            for j, lam in enumerate(lambdas):
                refs[k, j] = lam * poly_eval_normalized(ck, lam) * max(1.0, abs(lam)) ** (
                    degree + k
                )
        scale = (1.0 + float(np.max(np.abs(lambdas)))) ** (k_max + 1) * max_c
        metrics, checks = compute_metrics(
            op, e, raw, basis, functionals, lambdas, refs, scale, "Entire", tol
        )

    return HalfSpaceCertificate(
        construction="Entire",
        operator_config=_operator_echo(op),
        defect_vector=_readonly(e),
        basis=basis,
        raw_vectors=_readonly(raw),
        lambdas=_readonly(lambdas),
        excluded_lambdas=tuple(excluded),
        functionals=functionals,
        reference_values=_readonly(refs),
        metrics=metrics,
        checks=checks,
        tolerances=tol.as_dict(),
        hypothesis={"unverified": False, "flags": []},
        m_requested=m,
        m_achieved=int(lambdas.size),
        k_max=k_max,
        orbit_length=orbit.length,
        degree=degree,
        picard_shift=complex(cs.picard_shift),
    )


def build_blaschke(
    op: OperatorModel,
    e: np.ndarray,
    m: int,
    m_max: int,
    lambdas: np.ndarray | None = None,
    order: int | None = None,
    tolerances: Tolerances | None = None,
    defect_cap: float | None = None,
) -> HalfSpaceCertificate:
    """Certificate with zeros inside the unit disk and z^m B(z) functionals.

    Requires a spectral-radius estimate at most 1 (+ slack).  The summed
    functional-norm hypothesis sum(r_n / n) is checked against the cap and
    reported: exceeding it marks the certificate hypothesis-unverified
    without failing the finite-sum annihilation identity, which holds (and
    is checked against the stored lambda*F_m(lambda) references) regardless.
    """
    tol = tolerances or Tolerances()
    if m < 1:
        raise ArgumentError("need at least one disk zero (m >= 1)")
    if m_max < 1:
        raise ArgumentError("need at least one functional (m_max >= 1)")
    e = np.asarray(e, dtype=np.complex128).reshape(-1)

    hypothesis: dict = {"unverified": False, "flags": []}
    with _stage("hypothesis"):
        radius = op.spectral_radius()
        hypothesis["spectral_radius_estimate"] = float(radius)
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
        length = max_orbit_length(op, e, cap=op.dim)
        orbit = compute_orbit(op, e, length)
        norms = orbit.biorthogonal_norms
        partial = float(np.sum(norms[1:] / np.arange(1, length, dtype=float)))
        hypothesis["norm_sum_partial"] = partial
        hypothesis["norm_sum_cap"] = tol.blaschke_norm_cap
        if not partial <= tol.blaschke_norm_cap:
            hypothesis["unverified"] = True
            hypothesis["flags"].append("functional-norm-sum-exceeds-cap")

    with _stage("taylor"):
        if order is None:
            order = length - 1
        if order < length - 1:
            raise ArgumentError(
                f"Taylor order {order} cannot cover orbit length {length}"
            )
        bd = blaschke_taylor(lambdas, order, defect_cap=defect_cap)
        table = fm_coefficient_table(bd, m_max, length - 1)

    with _stage("selection"):
        kept, excluded = _select_lambdas(op, lambdas, m, tol, noise_floor=None)

    with _stage("resolvent"):
        raw, kept, dropped = _solve_resolvents(op, e, kept, tol)
        excluded.extend(dropped)

    with _stage("basis"):
        basis = qr_basis(raw)

    with _stage("functionals"):
        rows = [table[j] for j in range(1, m_max + 1)]
        bounds = [
            bd.growth_constant * j * partial for j in range(1, m_max + 1)
        ]
        functionals = _build_functionals(orbit, rows, bounds, index_base=1)

    with _stage("metrics"):
        refs = np.empty((m_max, kept.size), dtype=np.complex128)
        for j in range(1, m_max + 1):
            for n, lam in enumerate(kept):
                # identity reference: lambda * F_j(lambda), truncated series
                refs[j - 1, n] = lam * np.polynomial.polynomial.polyval(lam, table[j])
        max_b = float(np.max(np.abs(bd.taylor)))
        scale = (1.0 + float(np.max(np.abs(kept)))) ** (m_max + 1) * max_b
        metrics, checks = compute_metrics(
            op, e, raw, basis, functionals, kept, refs, scale, "Blaschke", tol
        )

    return HalfSpaceCertificate(
        construction="Blaschke",
        operator_config=_operator_echo(op),
        defect_vector=_readonly(e),
        basis=basis,
        raw_vectors=_readonly(raw),
        lambdas=_readonly(kept),
        excluded_lambdas=tuple(excluded),
        functionals=functionals,
        reference_values=_readonly(refs),
        metrics=metrics,
        checks=checks,
        tolerances=tol.as_dict(),
        hypothesis=hypothesis,
        m_requested=m,
        m_achieved=int(kept.size),
        k_max=m_max,
        orbit_length=orbit.length,
        degree=None,
        picard_shift=0.0,
    )


def verify_certificate(
    op: OperatorModel, cert: HalfSpaceCertificate, tolerances: Tolerances | None = None
) -> dict:
    """From-scratch audit: recompute every metric and diff against stored.

    Resolvent vectors are re-solved from the stored lambdas, so a tampered
    basis or functional shows up both as a metric drift beyond the audit
    tolerance and as a failed threshold.  Returns a report with per-metric
    stored/recomputed/diff entries; ``passed`` is False on any mismatch or
    failed check.
    """
    tol = tolerances or Tolerances()
    audit_failures: list = []

    re_raw, kept, _ = _solve_resolvents(op, cert.defect_vector, cert.lambdas, tol)
    if kept.size != cert.lambdas.size:
        audit_failures.append("lambda_set")

    metrics, checks = compute_metrics(
        op,
        cert.defect_vector,
        cert.raw_vectors,
        cert.basis,
        cert.functionals,
        cert.lambdas,
        cert.reference_values,
        cert.metrics["annihilation_scale"],
        cert.construction,
        tol,
    )
    # raw vectors must reproduce from the operator and stored lambdas
    raw_drift = float(
        np.max(np.abs(re_raw - cert.raw_vectors))
        / max(float(np.max(np.abs(cert.raw_vectors))), 1e-300)
    )
    if raw_drift > tol.tol_audit:
        audit_failures.append("raw_vectors")

    report: dict = {"metrics": {}, "raw_vector_drift": raw_drift}
    for name in (
        "independence_sigma_min",
        "ai_defect_rank",
        "ai_residual",
        "max_annihilation_residual",
        "functional_independence_sigma_min",
        "extension_residual_max",
    ):
        stored = cert.metrics[name]
        recomputed = metrics[name]
        scale = max(abs(stored), abs(recomputed), 1.0)
        diff = abs(stored - recomputed) / scale
        ok = diff <= tol.tol_audit
        if not ok:
            audit_failures.append(name)
        if not checks[name]["passed"]:
            audit_failures.append(f"{name}:threshold")
        report["metrics"][name] = {
            "stored": stored,
            "recomputed": recomputed,
            "relative_diff": diff,
            "agrees": ok,
            "threshold_passed": bool(checks[name]["passed"]),
        }
    report["failures"] = audit_failures
    report["passed"] = not audit_failures
    return report
