import dataclasses

import numpy as np
import pytest

from aihs import _linalg, halfspace
from aihs.config import Tolerances
from aihs.errors import ArgumentError, SingularResolventError, StageError
from aihs.halfspace import (
    EntireLaw,
    _select_lambdas,
    build_blaschke,
    build_entire,
    compute_metrics,
    verify_certificate,
)
from aihs.operators import Family, build_operator, compute_orbit, geometric_weights
from aihs.serialize import read_certificate, write_certificate
from aihs._linalg import unit_columns


def basis_vec(n, i=0):
    e = np.zeros(n, dtype=np.complex128)
    e[i] = 1.0
    return e


def dyadic_shift(n):
    w = 2.0 ** -np.arange(1, n, dtype=float)
    return build_operator(Family.FORWARD, n, weights=w)


def geometric_shift(n, ratio=0.9):
    return build_operator(Family.FORWARD, n, weights=geometric_weights(n, ratio))


@pytest.fixture(scope="module")
def dyadic_cert():
    op = dyadic_shift(256)
    return op, build_entire(op, basis_vec(256), m=8, k_max=5)


@pytest.fixture(scope="module")
def geometric_cert():
    op = geometric_shift(256)
    return op, build_entire(op, basis_vec(256), m=8, k_max=5)


def test_dyadic_example_reduced_m(dyadic_cert):
    # w_i = 2^-i saturates the coefficient law early: the far-out zero
    # cluster fails the noise floor and the run reports a reduced m,
    # still certifying the defect rank and annihilation thresholds
    _, cert = dyadic_cert
    assert cert.m_requested == 8
    assert 1 <= cert.m_achieved < 8
    assert cert.metrics["ai_defect_rank"] <= 1
    assert cert.metrics["max_annihilation_residual"] < 1e-8
    assert cert.passed
    reasons = {reason for _, reason in cert.excluded_lambdas}
    assert "noise-floor" in reasons


def test_geometric_full_m(geometric_cert):
    _, cert = geometric_cert
    assert cert.m_achieved == 8
    assert cert.basis.shape == (256, 8)
    assert cert.metrics["ai_defect_rank"] <= 1
    assert cert.metrics["independence_sigma_min"] > 1e-10
    assert cert.metrics["functional_independence_sigma_min"] > 1e-10
    assert cert.metrics["max_annihilation_residual"] < 1e-8
    assert cert.duals.shape == (256, 6)
    assert cert.passed
    assert not cert.hypothesis_unverified


def test_annihilation_identity_against_references(geometric_cert):
    # dual route: stored inner products match lambda^(k+1) F(lambda)
    _, cert = geometric_cert
    inner = cert.duals.conj().T @ cert.raw_vectors
    scale = cert.metrics["annihilation_scale"]
    rows = cert.law.orbit_values(cert.k_max, cert.orbit_length)
    assert np.max(np.abs(inner - cert.law.references(rows, cert.lambdas))) / scale < 1e-10


def test_entire_identity_on_off_zero_grid(geometric_cert):
    # the strongest rail: f_k(h(lam, e)) = lam^(k+1) * F(lam) to 1e-10
    # relative on a grid of NON-zero points
    op, cert = geometric_cert
    from aihs.entire import poly_eval_normalized
    from aihs.resolvent import ResolventSolver

    # the stored coefficient law: the Picard-shifted c_0..c_d
    c = cert.law.coefficients
    grid = [0.5, 2.0 + 1.0j, -7.0, 20.0j, 35.0 * np.exp(0.3j)]
    for lam in grid:
        h = ResolventSolver(op, lam).solve(basis_vec(256)).vector
        for k in (0, 3, 5):
            ck = np.concatenate([np.zeros(k), c])
            lhs = np.vdot(cert.duals[:, k], h)
            rhs = lam * poly_eval_normalized(ck, lam) * max(1.0, abs(lam)) ** (
                cert.degree + k
            )
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_m_one_degenerate(geometric_cert):
    op, _ = geometric_cert
    cert = build_entire(op, basis_vec(256), m=1, k_max=3)
    assert cert.m_achieved == 1
    assert cert.basis.shape[1] == 1
    assert cert.metrics["ai_defect_rank"] <= 1
    assert cert.passed


def test_identity_fails_at_orbit_stage():
    op = build_operator(Family.DENSE, 16, matrix=np.eye(16, dtype=complex))
    with pytest.raises(StageError) as exc:
        build_entire(op, basis_vec(16), m=2, k_max=1)
    assert exc.value.stage == "orbit"


def test_argument_validation(geometric_cert):
    op, _ = geometric_cert
    with pytest.raises(ArgumentError):
        build_entire(op, basis_vec(256), m=0, k_max=2)
    with pytest.raises(ArgumentError):
        build_entire(op, basis_vec(256), m=2, k_max=-1)


def test_functional_extension_residuals(geometric_cert):
    # each dual vector replays its own orbit values from the law, relative
    # to that functional's largest value (the metric uses the global one)
    op, cert = geometric_cert
    vectors = compute_orbit(op, cert.defect_vector, cert.orbit_length).vectors
    rows = cert.law.orbit_values(cert.k_max, cert.orbit_length)
    for dual, values in zip(cert.duals.T, rows):
        replayed = vectors @ dual.conj()  # f(x_i) = dual^H x_i
        assert np.max(np.abs(replayed - values)) < 1e-9 * np.max(np.abs(values))


def test_metrics_order_the_columns_once(geometric_cert, monkeypatch):
    # Y's basis takes one pivoted QR, and Y + span{e} grows it by one column
    op, cert = geometric_cert
    orbit = compute_orbit(op, cert.defect_vector, cert.orbit_length)
    calls, original = [], _linalg.greedy_column_order
    monkeypatch.setattr(_linalg, "greedy_column_order",
                        lambda a: calls.append(a.shape) or original(a))
    compute_metrics(op, cert.defect_vector, orbit, cert.raw_vectors, cert.lambdas, cert.duals,
                    cert.law, cert.k_max, Tolerances())
    assert len(calls) == 1


def test_a_failed_resolvent_solve_excludes_its_lambda_only(geometric_cert, monkeypatch):
    op, reference = geometric_cert
    dropped = complex(reference.lambdas[0])

    class FailsAtOne(halfspace.ResolventSolver):
        def solve(self, e):
            if self.lam == dropped:
                raise SingularResolventError(self.lam, "forced")
            return super().solve(e)

    monkeypatch.setattr(halfspace, "ResolventSolver", FailsAtOne)
    cert = build_entire(op, basis_vec(256), m=8, k_max=5)
    reason = f"resolvent-defect: resolvent solve failed at lambda = {dropped!r}: forced"
    assert cert.excluded_lambdas == (*reference.excluded_lambdas, (dropped, reason))
    assert np.array_equal(cert.lambdas, reference.lambdas[1:])
    assert cert.m_achieved == 7 and cert.passed


def test_certificate_invariant_under_basis_rotation(geometric_cert):
    op, cert = geometric_cert
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    )
    # the basis is derived from the resolvent vectors: a rotated spanning
    # set spans the same Y, so the span-level metrics agree
    orbit = compute_orbit(op, cert.defect_vector, cert.orbit_length)
    rotated, *_ = compute_metrics(op, cert.defect_vector, orbit,
                                  unit_columns(cert.raw_vectors) @ q, cert.lambdas, cert.duals,
                                  cert.law, cert.k_max, Tolerances())
    for name in ("ai_defect_rank", "ai_residual"):
        assert abs(rotated[name] - cert.metrics[name]) <= 1e-9 * max(
            1.0, abs(cert.metrics[name])
        )


def test_seed_scaling_keeps_verdicts(geometric_cert):
    # scaling e rescales orbit norms and the zero locations move, but the
    # pass/fail verdicts and the defect rank are scale invariants
    op, cert = geometric_cert
    scaled = build_entire(op, 3.7 * basis_vec(256), m=8, k_max=5)
    assert scaled.passed == cert.passed
    assert scaled.metrics["ai_defect_rank"] == cert.metrics["ai_defect_rank"]
    for name, check in scaled.checks.items():
        assert check["passed"] == cert.checks[name]["passed"]


def test_verify_fresh_certificate(geometric_cert):
    op, cert = geometric_cert
    report = verify_certificate(op, cert)
    assert report["passed"], report["failures"]
    for entry in report["metrics"].values():
        assert entry["relative_diff"] < 1e-12


def test_verify_detects_tampered_raw_vectors(geometric_cert):
    # the basis is derived from the re-solved resolvent vectors, so a stored
    # vector that the operator does not reproduce is the drift it reports
    op, cert = geometric_cert
    rng = np.random.default_rng(7)
    bad = np.array(cert.raw_vectors)
    top = np.max(np.abs(bad))  # the drift is relative to the largest entry
    bad[:, 0] = top * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
    tampered = dataclasses.replace(cert, raw_vectors=bad)
    report = verify_certificate(op, tampered)
    assert not report["passed"]
    assert report["failures"] == ["raw_vectors"]


def test_verify_detects_zeroed_functional(geometric_cert):
    op, cert = geometric_cert
    crippled = np.array(cert.duals)
    crippled[:, 2] = 0.0
    tampered = dataclasses.replace(cert, duals=crippled)
    report = verify_certificate(op, tampered)
    assert not report["passed"]
    assert any("functional_independence" in name for name in report["failures"])


def test_verify_detects_tampered_lambdas(geometric_cert):
    op, cert = geometric_cert
    shifted = np.array(cert.lambdas) * 1.001
    tampered = dataclasses.replace(cert, lambdas=shifted)
    report = verify_certificate(op, tampered)
    assert not report["passed"]


# --- Blaschke construction -------------------------------------------------


@pytest.fixture(scope="module")
def blaschke_cert():
    op = build_operator(Family.FORWARD, 128, weights=np.full(127, 0.5))
    e = basis_vec(128)
    return op, build_blaschke(op, e, m=4, m_max=3)


def test_blaschke_halved_shift_example(blaschke_cert):
    # nilpotent truncation: spectral radius 0; biorthogonal norms 2^n blow
    # past the cap, so the summability hypothesis is reported unverified,
    # while the finite-sum annihilation identity still certifies
    _, cert = blaschke_cert
    assert cert.construction == "Blaschke"
    assert cert.hypothesis_unverified
    assert "functional-norm-sum-exceeds-cap" in cert.hypothesis["flags"]
    assert cert.hypothesis["spectral_radius_estimate"] == 0.0
    assert cert.metrics["max_annihilation_residual"] < 1e-8
    assert cert.metrics["ai_defect_rank"] <= 1
    assert cert.passed


def test_blaschke_identity_values(blaschke_cert):
    # f_m(h(lam, e)) equals lam * F_m(lam) for the truncated series
    _, cert = blaschke_cert
    inner = cert.duals.conj().T @ cert.raw_vectors
    scale = cert.metrics["annihilation_scale"]
    rows = cert.law.orbit_values(cert.k_max, cert.orbit_length)
    assert np.max(np.abs(inner - cert.law.references(rows, cert.lambdas))) / scale < 1e-10


def test_blaschke_single_zero_single_functional():
    op = build_operator(Family.FORWARD, 64, weights=np.full(63, 0.5))
    cert = build_blaschke(
        op, basis_vec(64), m=1, m_max=1, lambdas=np.array([0.5 + 0.0j])
    )
    # f_1(h(l1,e)) = l1*F_1(l1) = l1^2*B(l1) = 0 up to series truncation
    val = np.vdot(cert.duals[:, 0], cert.raw_vectors[:, 0])
    rows = cert.law.orbit_values(cert.k_max, cert.orbit_length)
    assert abs(val - cert.law.references(rows, cert.lambdas)[0, 0]) < 1e-10
    assert abs(val) < 1e-10  # 0.5^64 series tail is far below this


def test_blaschke_orthonormal_orbit_harmonic_flag():
    # unit weights: r_n = 1, sum 1/n ~ log(127) stays under the cap, but a
    # tiny cap forces the flag (harmonic divergence is only visible through
    # the cap at truncation scale)
    op = build_operator(Family.FORWARD, 128, weights=np.ones(127))
    tol = Tolerances(blaschke_norm_cap=2.0)
    cert = build_blaschke(op, basis_vec(128), m=3, m_max=2, tolerances=tol)
    assert cert.hypothesis_unverified
    assert cert.passed  # annihilation identity unaffected


def test_blaschke_rejects_expanding_operator():
    op = build_operator(Family.DENSE, 8, matrix=2.0 * np.eye(8, dtype=complex))
    with pytest.raises(StageError) as exc:
        build_blaschke(op, basis_vec(8), m=2, m_max=1)
    assert exc.value.stage == "hypothesis"


def test_blaschke_rejects_bad_zeros():
    op = build_operator(Family.FORWARD, 32, weights=np.full(31, 0.5))
    with pytest.raises(StageError) as exc:
        build_blaschke(op, basis_vec(32), m=2, m_max=1, lambdas=np.array([0.5, 1.5]))
    assert exc.value.stage == "zeros"


def test_blaschke_verify_round_trip(blaschke_cert):
    op, cert = blaschke_cert
    report = verify_certificate(op, cert)
    assert report["passed"], report["failures"]
    for entry in report["metrics"].values():
        assert entry["relative_diff"] < 1e-12


def test_metrics_do_not_depend_on_basis_layout(tmp_path):
    # Y is ill-conditioned here (independence sigma_min ~ 4e-17), so the
    # last bits of the column norms inside the QR of [Y | e] decide
    # ai_residual.  Those norms sum in a layout-dependent order: the
    # Fortran-ordered basis a build passes and the C-ordered one read back
    # from JSON used to give 6.3e-4 and 5.4e-4.
    op = build_operator(Family.DONOGHUE, 128, weights=geometric_weights(128, 0.9))
    e = basis_vec(128, 127)
    # The basis is now derived, never read back, so the metrics a read-back
    # certificate gives must equal the build's bit for bit.
    cert = build_blaschke(op, e, m=4, m_max=3)
    back = read_certificate(write_certificate(tmp_path / "ill.cert.json", cert))
    orbit = compute_orbit(op, e, back.orbit_length)
    metrics, _ = compute_metrics(op, back.defect_vector, orbit, back.raw_vectors,
                                 back.lambdas, back.duals, back.law, back.k_max, Tolerances())
    assert metrics == cert.metrics
    assert np.array_equal(back.basis, cert.basis)

    entry = verify_certificate(op, back)["metrics"]["ai_residual"]
    assert entry["agrees"]
    assert not entry["threshold_passed"]


@pytest.mark.parametrize("reverse", [False, True], ids=["upper-first", "lower-first"])
@pytest.mark.parametrize("larger", [0, 1], ids=["upper-larger", "lower-larger"])
def test_a_conjugate_pair_cut_at_m_keeps_the_upper_member(larger, reverse):
    # the moduli of a conjugate pair from a real law differ by round-off;
    # whichever is an ulp larger, and in either order, the Im >= 0 member wins
    z = 1.276 + 5.218j
    pair = [z, z.conjugate()]
    pair[larger] *= 1.0 + 2.0**-52
    assert abs(pair[larger]) > abs(pair[1 - larger])
    if reverse:
        pair.reverse()
    op = build_operator(Family.FORWARD, 8, weights=np.ones(7))
    kept, excluded = _select_lambdas(op, np.array(pair), 1, Tolerances())
    assert kept.tolist() == [pair[reverse]] and not excluded
    assert kept[0].imag > 0


def test_moduli_apart_by_more_than_tol_zero_still_rank_by_modulus():
    op = build_operator(Family.FORWARD, 8, weights=np.ones(7))
    lower = (1.276 - 5.218j) * (1.0 + 10 * Tolerances.tol_zero)
    kept, _ = _select_lambdas(op, np.array([1.276 + 5.218j, lower]), 1, Tolerances())
    assert kept.tolist() == [lower]


def test_the_entire_route_never_derives_references(monkeypatch):
    # its references vanish at its zeros, so neither build nor audit subtracts them
    def refuse(self, rows, lambdas):
        raise AssertionError("EntireLaw.references called")

    monkeypatch.setattr(EntireLaw, "references", refuse)
    op = geometric_shift(256)
    cert = build_entire(op, basis_vec(256), m=8, k_max=5)
    assert cert.passed
    assert verify_certificate(op, cert)["passed"]


def test_selection_makes_one_gap_call_and_keeps_the_exclusion_order(monkeypatch):
    calls = []
    real = halfspace.filter_lambda_gap

    def counted(op, lams, *args):
        calls.append(np.array(lams))
        return real(op, lams, *args)

    monkeypatch.setattr(halfspace, "filter_lambda_gap", counted)
    op = build_operator(Family.DENSE, 2, matrix=np.diag([2.0, 4.0]).astype(complex))
    # 1/0.5 and 1/0.25 are eigenvalues; the noise floor drops 0.2 and 0.15
    candidates = np.array([0.5, 0.2, 0.25, 0.1, 0.15, 0.3], dtype=complex)
    noisy = [lam in (0.2, 0.15) for lam in candidates]

    kept, excluded = _select_lambdas(op, candidates, 2, Tolerances(), noisy)
    assert len(calls) == 1 and np.array_equal(calls[0], candidates)
    assert excluded == [(0.5, "eigenvalue-gap"), (0.2, "noise-floor"),
                        (0.25, "eigenvalue-gap"), (0.15, "noise-floor")]
    assert sorted(kept.tolist(), key=abs) == [0.1, 0.3]

    calls.clear()
    build_entire(geometric_shift(256), basis_vec(256), m=8, k_max=5)
    assert len(calls) == 1
