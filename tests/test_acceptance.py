"""Acceptance gate: one test per criterion, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v`` — every test prints an
``[acceptance N] PASS/FAIL`` line (streamed under ``-s`` and repeated in the
terminal summary).  Criterion 8 asserts, among sound oracle checks, that the
k = 1 extraction error drops below 0.05 by n = 6; the tail-sum oracle puts
that value at about 0.163, so its line reads FAIL by design and the failure
is left standing rather than masked by a loosened threshold.
"""

import json
import time

import numpy as np
import pytest

from aihs._linalg import numerical_rank, orthonormal_columns, qr_basis
from aihs.blaschke import (
    blaschke_sequence,
    blaschke_taylor,
    evaluate_product,
    evaluate_taylor,
    fm_coefficient_table,
)
from aihs.chains import extend_chain, init_chain, verify_chain
from aihs.cli import main
from aihs.duality import adjoint_halfspace, build_perturbation, minimal_defect_space
from aihs.entire import coefficients_from_norms, poly_eval_normalized
from aihs.errors import ChainTerminated
from aihs.halfspace import build_entire, verify_certificate
from aihs.operators import (
    Family,
    build_operator,
    compute_orbit,
    geometric_weights,
    max_orbit_length,
    operator_from_config,
)
from aihs.resolvent import (
    ResolventSolver,
    check_replacement,
    check_th_identity,
    dense_subsequence_probe,
    lambda_grid,
    neumann_resolvent,
    probe_tail_oracle,
)
from aihs.serialize import read_certificate

N = 256

CHAIN_RESIDUAL_KEYS = ("z_in_previous", "recurrence_norm", "adjoint_map", "biorthogonality_off")


def basis_vec(n, i=0):
    e = np.zeros(n, dtype=np.complex128)
    e[i] = 1.0
    return e


def random_matrix(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * m / np.sqrt(2 * n)


@pytest.fixture(scope="module")
def geometric_op():
    return build_operator(Family.FORWARD, N, weights=geometric_weights(N, 0.9))


@pytest.fixture(scope="module")
def end_to_end_cert(geometric_op):
    t0 = time.monotonic()
    cert = build_entire(geometric_op, basis_vec(N), m=8, k_max=5)
    return cert, time.monotonic() - t0


# ----------------------------------------------------------------------------
# 1. resolvent identities on all three operator families


def test_criterion_1_resolvent_identities(gate):
    t0 = time.monotonic()
    shift_grid = lambda_grid([0.5, 2.0, 8.0, 32.0, 128.0], 10)  # 50 points
    dense_grid = lambda_grid([0.05, 0.15, 0.3, 0.4, 0.45], 10)  # inside 1/r(T)
    dense = operator_from_config(
        {"family": "dense", "dim": N, "matrix": {"kind": "random-gaussian", "scale": 1.0}},
        np.random.default_rng(0),
    )
    cases = [
        ("forward", build_operator(Family.FORWARD, N, weights=geometric_weights(N, 0.9)),
         basis_vec(N), shift_grid),
        ("donoghue", build_operator(Family.DONOGHUE, N, weights=geometric_weights(N, 0.5)),
         basis_vec(N, N - 1), shift_grid),
        ("dense", dense, basis_vec(N), dense_grid),
    ]

    failures = []
    for name, op, e, grid in cases:
        solvers = [ResolventSolver(op, lam) for lam in grid]
        vectors = [s.solve(e) for s in solvers]
        worst_th = max(check_th_identity(op, rv, e) for rv in vectors)
        # pair each point with its ring neighbor: same-modulus pairs keep the
        # two resolvents at one scale, so the two-point identity is probed at
        # all 50 points without manufacturing a 10^24 scale collision
        worst_rep = max(
            check_replacement(op, grid[i], grid[i - i % 10 + (i + 1) % 10], e,
                              solver_lam=solvers[i],
                              solver_mu=solvers[i - i % 10 + (i + 1) % 10])
            for i in range(len(grid))
        )
        if not worst_th < 1e-8:
            failures.append(f"{name}: Th residual {worst_th:.3e}")
        if not worst_rep < 1e-8:
            failures.append(f"{name}: replacement residual {worst_rep:.3e}")
        if op.is_nilpotent:
            worst_neu = 0.0
            for lam, rv in zip(grid, vectors):
                nv = neumann_resolvent(op, lam, e).vector
                rel = np.linalg.norm(nv - rv.vector) / max(
                    np.linalg.norm(rv.vector), np.linalg.norm(nv)
                )
                worst_neu = max(worst_neu, float(rel))
            if not worst_neu < 1e-12:
                failures.append(f"{name}: Neumann-vs-direct {worst_neu:.3e}")

    elapsed = time.monotonic() - t0
    if not elapsed < 5.0:
        failures.append(f"runtime {elapsed:.2f} s >= 5 s")
    ok = gate(1, "resolvent identities on forward/Donoghue/dense at N=256, 50-point grids",
              not failures, f"{elapsed:.2f} s")
    assert ok, failures


# ----------------------------------------------------------------------------
# 2. entire-function certificate end to end, with the strong oracle


def test_criterion_2_certificate_end_to_end(gate, geometric_op, end_to_end_cert):
    cert, build_elapsed = end_to_end_cert
    t0 = time.monotonic()
    failures = []
    if not cert.passed:
        failures.append("certificate did not pass")
    if not cert.metrics["ai_defect_rank"] <= 1:
        failures.append(f"ai_defect_rank {cert.metrics['ai_defect_rank']}")
    for name in ("independence_sigma_min", "functional_independence_sigma_min"):
        if not cert.metrics[name] > 1e-10:
            failures.append(f"{name} {cert.metrics[name]:.3e}")
    if not cert.metrics["max_annihilation_residual"] < 1e-8:
        failures.append(
            f"max_annihilation_residual {cert.metrics['max_annihilation_residual']:.3e}"
        )

    # strong oracle: the functional values of resolvent vectors equal the
    # shifted polynomial, an exact finite-sum identity, on a 52-point grid
    # chosen well away from the certificate's zero set
    c = cert.law.coefficients
    grid = lambda_grid([0.5, 3.0, 11.0, 29.0], 13, phase=0.37)
    worst = 0.0
    for lam in grid:
        h = ResolventSolver(geometric_op, lam).solve(basis_vec(N)).vector
        for k in range(cert.k_max + 1):
            ck = np.concatenate([np.zeros(k), c])
            lhs = np.vdot(cert.duals[:, k], h)
            rhs = lam * poly_eval_normalized(ck, lam) * max(1.0, abs(lam)) ** (
                cert.degree + k
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    if not worst < 1e-10:
        failures.append(f"strong-oracle relative error {worst:.3e}")

    elapsed = build_elapsed + (time.monotonic() - t0)
    if not elapsed < 10.0:
        failures.append(f"runtime {elapsed:.2f} s >= 10 s")
    ok = gate(2, "entire certificate (N=256, m=8, k_max=5) with 52-point strong oracle",
              not failures, f"{elapsed:.2f} s, oracle err {worst:.1e}")
    assert ok, failures


# ----------------------------------------------------------------------------
# 3. termwise coefficient bound, exact on power-of-two norms


def test_criterion_3_termwise_coefficient_bound(gate):
    k_max = 5
    e = basis_vec(N)
    dyadic = build_operator(Family.FORWARD, N, weights=2.0 ** -np.arange(1, N, dtype=float))
    geometric = build_operator(Family.FORWARD, N, weights=geometric_weights(N, 0.9))

    failures = []
    for name, op, slack in (("dyadic", dyadic, 0.0), ("geometric", geometric, 1e-12)):
        length = max_orbit_length(op, e, cap=N)
        r = compute_orbit(op, e, length).biorthogonal_norms
        c = np.abs(coefficients_from_norms(r, k_max))
        for k in range(k_max + 1):
            for i in range(k, c.size):
                # powers of two divide without rounding, so the dyadic case
                # gets no floating-point slack at all
                if not c[i] * r[i + k] <= 2.0**-i * (1.0 + slack):
                    failures.append(
                        f"{name}: c_{i} r_{i + k} = {c[i] * r[i + k]:.17g} > 2^-{i}"
                    )
    ok = gate(3, "termwise bound c_i r_(i+k) <= 2^-i, exact for dyadic weights",
              not failures)
    assert ok, failures


# ----------------------------------------------------------------------------
# 4. Blaschke Taylor oracle, vanishing tables, boundedness, growth constant


def test_criterion_4_blaschke_machinery(gate):
    failures = []
    single = blaschke_taylor([0.5], order=8)
    if not abs(single.taylor[0] - 0.5) <= 1e-12:
        failures.append(f"b_0 = {single.taylor[0]}")
    if not abs(single.taylor[1] + 0.75) <= 1e-12:
        failures.append(f"b_1 = {single.taylor[1]}")

    lams = blaschke_sequence("inverse-square", 8)
    bd = blaschke_taylor(lams, order=4096)
    table = fm_coefficient_table(bd, m_max=5, n_max=4096)
    worst_zero = max(
        abs(evaluate_taylor(table[m], lam)) for m in range(table.shape[0]) for lam in lams
    )
    if not worst_zero < 1e-9:
        failures.append(f"table value at a zero {worst_zero:.3e}")

    rng = np.random.default_rng(4)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    peak = float(np.max(np.abs(evaluate_product(lams, z))))
    if not peak <= 1.0 + 1e-12:
        failures.append(f"|B| reaches {peak}")
    if not np.isfinite(bd.growth_constant):
        failures.append(f"growth constant {bd.growth_constant}")

    ok = gate(4, "Blaschke Taylor coefficients, vanishing F_m table, |B|<=1, finite growth",
              not failures, f"table peak {worst_zero:.1e}")
    assert ok, failures


# ----------------------------------------------------------------------------
# 5. perturbation round trip on 100 random instances


def test_criterion_5_perturbation_round_trip(gate):
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    failures = []
    for trial in range(100):
        n = int(rng.integers(6, 65))
        op = build_operator(Family.DENSE, n, matrix=random_matrix(rng, n))
        cols = int(rng.integers(1, max(2, n // 2)))
        y, _ = qr_basis(rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols)))
        f, dim_f = minimal_defect_space(op, y)
        witness = build_perturbation(op, y, f)
        if not witness.invariance_residual < 1e-9:
            failures.append(f"trial {trial}: residual {witness.invariance_residual:.3e}")
        if witness.rank_K != dim_f:
            failures.append(f"trial {trial}: rank {witness.rank_K} != dim F {dim_f}")
        k_range = orthonormal_columns(witness.K)
        span = np.hstack([y, k_range])
        if numerical_rank(np.hstack([op.matrix @ y, span])) != numerical_rank(span):
            failures.append(f"trial {trial}: T(Y) escapes Y + range(K)")

    elapsed = time.monotonic() - t0
    if not elapsed < 10.0:
        failures.append(f"runtime {elapsed:.2f} s >= 10 s")
    ok = gate(5, "perturbation round trip on 100 random instances (N <= 64)",
              not failures, f"{elapsed:.2f} s")
    assert ok, failures


# ----------------------------------------------------------------------------
# 6. adjoint half-space from the criterion-2 certificate


def test_criterion_6_adjoint_halfspace(gate, geometric_op, end_to_end_cert):
    cert, _ = end_to_end_cert
    report = adjoint_halfspace(geometric_op, cert.basis, cert.defect_vector.reshape(-1, 1))
    failures = []
    if not report.residual < 1e-9:
        failures.append(f"adjoint residual {report.residual:.3e}")
    if report.dim_y_perp != report.dim_z + report.dim_f:
        failures.append(
            f"dims: {report.dim_y_perp} != {report.dim_z} + {report.dim_f}"
        )
    ok = gate(6, "adjoint maps Z into the annihilator, dim split exact",
              not failures, f"residual {report.residual:.1e}")
    assert ok, failures


# ----------------------------------------------------------------------------
# 7. functional chains: depth 10, identity termination, dichotomy sweep


def _deep_chain_worst(op, z1, depth):
    state = init_chain(op, z1=z1)
    worst = 0.0
    while state.depth < depth:
        state = extend_chain(op, state)
        report = verify_chain(op, state)
        worst = max(worst, max(report[key] for key in CHAIN_RESIDUAL_KEYS))
    return worst


def test_criterion_7_chains(gate):
    t0 = time.monotonic()
    failures = []

    forward = build_operator(Family.FORWARD, 64, weights=geometric_weights(64, 0.9))
    donoghue = build_operator(Family.DONOGHUE, 64, weights=geometric_weights(64, 0.5))
    # the forward shift's adjoint kills e_1, so its deep chain starts at e_N
    for name, op, z1 in (("forward", forward, basis_vec(64, 63)), ("donoghue", donoghue, None)):
        worst = _deep_chain_worst(op, z1, depth=10)
        if not worst < 1e-8:
            failures.append(f"{name}: chain residual {worst:.3e}")

    identity = build_operator(Family.DENSE, 8, matrix=np.eye(8, dtype=complex))
    try:
        extend_chain(identity, init_chain(identity))
        failures.append("identity: no termination")
    except ChainTerminated as term:
        if term.state.depth != 1 or not term.verified:
            failures.append(f"identity: depth {term.state.depth}, verified {term.verified}")
        if not term.invariance_residual < 1e-9:
            failures.append(f"identity: invariance residual {term.invariance_residual:.3e}")

    rng = np.random.default_rng(11)
    deep = terminated = neither = 0
    for _ in range(50):
        op = build_operator(Family.DENSE, 32, matrix=random_matrix(rng, 32))
        state = init_chain(op)
        try:
            while state.depth < 10:
                state = extend_chain(op, state)
            deep += 1
        except ChainTerminated as term:
            if term.verified:
                terminated += 1
            else:
                neither += 1
    if deep + terminated != 50 or neither:
        failures.append(f"dichotomy: deep {deep}, terminated {terminated}, neither {neither}")

    elapsed = time.monotonic() - t0
    if not elapsed < 20.0:
        failures.append(f"runtime {elapsed:.2f} s >= 20 s")
    ok = gate(7, "chains to depth 10, identity termination, 50-run dichotomy",
              not failures, f"{elapsed:.2f} s, deep/terminated {deep}/{terminated}")
    assert ok, failures


# ----------------------------------------------------------------------------
# 8. dense-subsequence probe (the n = 6 clause is the known red line)


def test_criterion_8_dense_subsequence_probe(gate):
    errors = dense_subsequence_probe(64, k_max=1, n_max=12, p=1.0)
    failures = []
    if not np.all(np.diff(errors, axis=1) < 0):
        failures.append("errors not strictly decreasing in n")
    worst = max(
        abs(errors[0, n - 1] - probe_tail_oracle(1, n)) / probe_tail_oracle(1, n)
        for n in range(1, 13)
    )
    if not worst < 1e-12:
        failures.append(f"oracle mismatch {worst:.3e}")
    at_six = float(errors[0, 5])
    if not at_six < 0.05:
        failures.append(f"error at n=6 is {at_six:.8f}, not < 0.05")
    ok = gate(8, "dense-subsequence probe: decreasing, oracle-matched, small by n=6",
              not failures, f"err(6) = {at_six:.8f}")
    assert ok, failures


# ----------------------------------------------------------------------------
# 9. determinism and re-audit of the CLI pipeline


def test_criterion_9_determinism(gate, tmp_path):
    cfg = {
        "schema": "aihs-run/1",
        "operator": {
            "family": "forward-weighted-shift",
            "dim": N,
            "weights": {"kind": "geometric", "params": {"ratio": 0.9}},
        },
        "construction": "entire",
        "m": 8,
        "k_max": 5,
        "seed": 0,
        "label": "gate",
    }
    cfg_path = tmp_path / "gate.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    failures = []
    for sub in ("a", "b"):
        code = main(["build", "--config", str(cfg_path), "--out", str(tmp_path / sub)])
        if code != 0:
            failures.append(f"build into {sub} exited {code}")
    bytes_a = (tmp_path / "a" / "gate.cert.json").read_bytes()
    bytes_b = (tmp_path / "b" / "gate.cert.json").read_bytes()
    if bytes_a != bytes_b:
        failures.append("certificate files differ between identical runs")

    if main(["verify", str(tmp_path / "a" / "gate.cert.json")]) != 0:
        failures.append("re-audit exit code nonzero")
    cert = read_certificate(tmp_path / "a" / "gate.cert.json")
    report = verify_certificate(operator_from_config(cfg["operator"]), cert)
    worst = max(entry["relative_diff"] for entry in report["metrics"].values())
    if not worst < 1e-12:
        failures.append(f"re-audit drift {worst:.3e}")

    ok = gate(9, "bit-identical rebuilds and clean re-audit", not failures,
              f"drift {worst:.1e}")
    assert ok, failures
