"""The audit of a stored certificate: forgeries, tampering and malformed documents.

A certificate stores its inputs and witnesses; ``aihs verify`` derives the
rest.  Every mutation of a field the audit reads or re-derives must make it
exit 1, and every malformed document must exit 1 with one line on stderr.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aihs import halfspace, operators
from aihs import serialize as ser
from aihs.cli import main
from aihs.halfspace import _CHECKS
from aihs.operators import (
    ORBIT_NORM_FLOOR,
    Family,
    build_operator,
    compute_orbit,
    geometric_weights,
    max_orbit_length,
    orbit_walk,
)


def _entire_cfg():
    return {
        "schema": "aihs-run/1",
        "operator": {
            "family": "forward-weighted-shift",
            "dim": 64,
            "weights": {"kind": "geometric", "params": {"ratio": 0.9}},
        },
        "construction": "entire",
        "m": 3,
        "k_max": 2,
        "label": "entire",
    }


def _blaschke_cfg():
    # unimodular weights: the orbit never decays, so L = N
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 47)
    return {
        "schema": "aihs-run/1",
        "operator": {
            "family": "forward-weighted-shift",
            "dim": 48,
            "weights": {"kind": "explicit",
                        "params": {"values": [[math.cos(p), math.sin(p)] for p in phases]}},
        },
        "construction": "blaschke",
        "m": 4,
        "k_max": 3,
        "blaschke": {"sequence": {"kind": "inverse-square"}},
        "label": "blaschke",
    }


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """route -> (clean document, a path to write mutated copies to)."""
    out = {}
    for route, cfg in (("entire", _entire_cfg()), ("blaschke", _blaschke_cfg())):
        work = tmp_path_factory.mktemp(route)
        (work / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["build", "--config", str(work / "cfg.json"), "--out", str(work)]) == 0
        path = work / f"{route}.cert.json"
        out[route] = (json.loads(path.read_text(encoding="utf-8")), work / "mutated.cert.json")
    return out


def _verify(doc, path) -> int:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return main(["verify", str(path)])


def _scaled(h: str, factor: float) -> str:
    return (float.fromhex(h) * factor).hex()


def _shifted(h: str, eps: float) -> str:
    """The hex value moved by eps at its own scale, floored at 1."""
    x = float.fromhex(h)
    return (x + eps * max(abs(x), 1.0)).hex()


def _array(doc: dict) -> np.ndarray:
    return ser.decode_array(doc)


# --- mutations: each takes the document and changes one audited field -------


def tiny_orthogonal_duals(doc):
    """Every dual vector orthogonal to the resolvent vectors, at norm 1e-25."""
    raw = _array(doc["raw_vectors"])
    q, _ = np.linalg.qr(raw)
    rng = np.random.default_rng(1)
    for f in doc["functionals"]:
        v = rng.standard_normal(raw.shape[0]) + 1j * rng.standard_normal(raw.shape[0])
        v -= q @ (q.conj().T @ v)
        f["dual_vector"] = ser.encode_array(1e-25 * v / np.linalg.norm(v))


def scaled_annihilation(doc):
    """annihilation_scale times 1e6 with the normalized residual divided by 1e6."""
    metrics = doc["metrics"]
    metrics["annihilation_scale"] = _scaled(metrics["annihilation_scale"], 1e6)
    metrics["max_annihilation_residual"] = _scaled(metrics["max_annihilation_residual"], 1e-6)
    doc["checks"]["max_annihilation_residual"]["value"] = metrics["max_annihilation_residual"]


def _set(key, delta):
    def mutate(doc):
        doc[key] += delta
    return mutate


def _flip(name):
    def mutate(doc):
        doc["checks"][name]["passed"] = not doc["checks"][name]["passed"]
    return mutate


def changed_lambda(doc):
    pair = doc["lambdas"]["data"][0]
    pair[0] = _scaled(pair[0], 1.0 + 1e-6)


def changed_coefficient(doc):
    pair = doc["law"]["coefficients"]["data"][1]
    pair[0] = _scaled(pair[0], 1.001)


def changed_zero(doc):
    pair = doc["law"]["zeros"]["data"][0]
    pair[0] = _scaled(pair[0], 0.999)


def short_order(doc):
    doc["law"]["order"] = doc["orbit_length"] - 2


def _largest_raw_entry(doc) -> list:
    """The [re, im] pair of the stored resolvent vector entry of largest modulus.

    The drift is relative to that entry, so a change far below it is no change.
    """
    return doc["raw_vectors"]["data"][int(np.argmax(np.abs(_array(doc["raw_vectors"]))))]


def raw_vector_entry(doc):
    pair = _largest_raw_entry(doc)
    pair[:] = [_scaled(part, 1.0 + 1e-6) for part in pair]


def small_column_entry(doc):
    """The largest entry of the column of smallest scale set to 0.123+0.456i.

    At the entire fixture the column maxima run from about 6e22 to 8e32, so
    against the largest entry overall this change reads below tol_audit.
    """
    raw = _array(doc["raw_vectors"])
    col = int(np.argmin(np.max(np.abs(raw), axis=0)))
    row = int(np.argmax(np.abs(raw[:, col])))
    doc["raw_vectors"]["data"][row * raw.shape[1] + col] = [(0.123).hex(), (0.456).hex()]


def defect_vector_entry(doc):
    pair = doc["defect_vector"]["data"][0]
    pair[0] = _scaled(pair[0], 2.0)


def dual_vector_entry(doc):
    pair = doc["functionals"][0]["dual_vector"]["data"][0]
    pair[0] = _shifted(pair[0], 1e-3)


def _metric(name):
    def mutate(doc):
        doc["metrics"][name] = _shifted(doc["metrics"][name], 1e-6)
    return mutate


def defect_rank(doc):
    doc["metrics"]["ai_defect_rank"] += 1


def lambda_set(doc):
    doc["metrics"]["lambda_set"][0]["re"] = _scaled(doc["metrics"]["lambda_set"][0]["re"], 1.001)


def check_value(doc):
    check = doc["checks"]["ai_residual"]
    check["value"] = _shifted(check["value"], 1e-6)


def swapped_construction(doc):
    doc["construction"] = "Blaschke" if doc["construction"] == "Entire" else "Entire"


def operator_weight(doc):
    pair = doc["operator"]["weights"]["data"][0]
    pair[0] = _scaled(pair[0], 1.1)


def operator_dim(doc):
    doc["operator"]["dim"] += 1


def swapped_functional_indices(doc):
    first, second = doc["functionals"][:2]
    first["k"], second["k"] = second["k"], first["k"]


_BOTH = ("entire", "blaschke")
MUTATIONS = [
    ("tiny-orthogonal-duals", tiny_orthogonal_duals, _BOTH),
    ("scaled-annihilation", scaled_annihilation, _BOTH),
    ("orbit-length-up", _set("orbit_length", 1), ("entire",)),  # L = N on the Blaschke route
    ("orbit-length-down", _set("orbit_length", -1), _BOTH),
    *[(f"flipped-{name}", _flip(name), _BOTH) for name in _CHECKS],
    ("lambda", changed_lambda, _BOTH),
    ("coefficient", changed_coefficient, ("entire",)),
    ("zero-sequence", changed_zero, ("blaschke",)),
    ("taylor-order", short_order, ("blaschke",)),
    ("raw-vector-entry", raw_vector_entry, _BOTH),
    ("raw-vector-small-column", small_column_entry, _BOTH),
    ("defect-vector-entry", defect_vector_entry, _BOTH),
    ("dual-vector-entry", dual_vector_entry, _BOTH),
    *[(f"metric-{name}", _metric(name), _BOTH)
      for name in (*(n for n in _CHECKS if n != "ai_defect_rank"), "annihilation_scale")],
    ("metric-ai_defect_rank", defect_rank, _BOTH),
    ("metric-lambda_set", lambda_set, _BOTH),
    ("check-value", check_value, _BOTH),
    ("construction", swapped_construction, _BOTH),
    ("operator-weight", operator_weight, _BOTH),
    ("operator-dim", operator_dim, _BOTH),
    ("m-achieved", _set("m_achieved", -1), _BOTH),
    ("k-max", _set("k_max", 1), _BOTH),
    ("functional-indices", swapped_functional_indices, _BOTH),
]
CASES = [(route, name, mutate) for name, mutate, routes in MUTATIONS for route in routes]


@pytest.mark.parametrize("route", _BOTH)
def test_clean_certificate_passes(docs, route):
    doc, path = docs[route]
    assert _verify(doc, path) == 0


@pytest.mark.parametrize(
    "route, name, mutate", CASES, ids=[f"{route}-{name}" for route, name, _ in CASES]
)
def test_verify_rejects_tampered_field(docs, capsys, route, name, mutate):
    doc, path = docs[route]
    doc = copy.deepcopy(doc)
    mutate(doc)
    capsys.readouterr()
    assert _verify(doc, path) == 1
    assert "Traceback" not in capsys.readouterr().err


def _material_mutation(doc, field, index, eps):
    """Change one audited value by a relative amount eps (>= 1e-6) at its own scale."""
    if field == "lambda":
        data = doc["lambdas"]["data"]
        pair = data[index % len(data)]
        pair[0] = _scaled(pair[0], 1.0 + eps)
    elif field == "raw_vectors":
        pair = _largest_raw_entry(doc)
        pair[:] = [_scaled(part, 1.0 + eps) for part in pair]
    elif field == "dual_vector":
        f = doc["functionals"][index % len(doc["functionals"])]
        top = float(np.max(np.abs(_array(f["dual_vector"]))))
        pair = f["dual_vector"]["data"][0]  # x_0 = e_1, so f(x_0) moves by eps * top
        pair[0] = (float.fromhex(pair[0]) + eps * top).hex()
    elif field == "law":
        key = "coefficients" if "coefficients" in doc["law"] else "zeros"
        values = _array(doc["law"][key])
        pair = doc["law"][key]["data"][int(np.argmax(np.abs(values)))]
        pair[0] = _scaled(pair[0], 1.0 - eps / 2)
    else:  # a stored metric, or the value of a stored check
        names = [n for n in _CHECKS if n != "ai_defect_rank"]
        if field == "metric":
            name = (names + ["annihilation_scale"])[index % (len(names) + 1)]
            doc["metrics"][name] = _shifted(doc["metrics"][name], eps)
        else:
            check = doc["checks"][names[index % len(names)]]
            check["value"] = _shifted(check["value"], eps)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    route=st.sampled_from(_BOTH),
    field=st.sampled_from(["lambda", "raw_vectors", "dual_vector", "law", "metric", "check"]),
    index=st.integers(0, 20),
    eps=st.floats(1e-6, 0.5),
)
def test_verify_rejects_any_material_change(docs, route, field, index, eps):
    doc, path = docs[route]
    doc = copy.deepcopy(doc)
    _material_mutation(doc, field, index, eps)
    assert _verify(doc, path) == 1


# --- malformed documents ------------------------------------------------------


def transposed_raw_vectors(doc):
    doc["raw_vectors"]["shape"].reverse()


def empty_functionals(doc):
    doc["functionals"] = []


def string_in_metrics(doc):
    doc["metrics"]["ai_residual"] = "tiny"


def bad_hex(doc):
    doc["raw_vectors"]["data"][0][0] = "0x1.zzp+0"


def short_data(doc):
    doc["defect_vector"]["data"].pop()


def stored_basis(doc):
    doc["basis"] = doc["raw_vectors"]


def old_schema(doc):
    doc["schema"] = "aihs-cert/1"


def string_rank(doc):
    doc["metrics"]["ai_defect_rank"] = "0"


def array_without_shape(doc):
    del doc["lambdas"]["shape"]


def functional_without_dual(doc):
    del doc["functionals"][0]["dual_vector"]


def malformed_exclusion(doc):
    doc["excluded_lambdas"] = [{"reason": "noise-floor"}]


MALFORMED = [transposed_raw_vectors, empty_functionals, string_in_metrics, bad_hex, short_data,
             stored_basis, old_schema, string_rank, array_without_shape, functional_without_dual,
             malformed_exclusion]


@pytest.mark.parametrize("mutate", MALFORMED, ids=[m.__name__ for m in MALFORMED])
def test_malformed_certificate_is_a_one_line_error(docs, capsys, mutate):
    doc, path = docs["entire"]
    doc = copy.deepcopy(doc)
    mutate(doc)
    capsys.readouterr()
    assert _verify(doc, path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse certificate {path}")
    assert err.count("\n") == 1


def test_old_schema_is_rejected_by_name(docs, capsys):
    doc, path = docs["entire"]
    doc = copy.deepcopy(doc)
    old_schema(doc)
    capsys.readouterr()
    assert _verify(doc, path) == 1
    assert "found 'aihs-cert/1'" in capsys.readouterr().err


# --- the audit runs no norm stage ------------------------------------------------


@pytest.mark.parametrize("route", _BOTH)
def test_verify_runs_no_norm_stage(docs, monkeypatch, route):
    def forbidden(*args, **kwargs):
        raise AssertionError("verify ran the O(L^3) orbit-norm stage")

    monkeypatch.setattr(halfspace, "compute_orbit", forbidden)
    monkeypatch.setattr(operators, "_biorthogonal_norms", forbidden)
    doc, path = docs[route]
    assert _verify(doc, path) == 0


def _stepwise_orbit(op, e, cap):
    """The orbit walked with the two-call test: ``||x|| >= floor`` and finite entries."""
    rows, x = [], e
    while len(rows) < cap and np.linalg.norm(x) >= ORBIT_NORM_FLOOR and np.all(np.isfinite(x)):
        rows.append(x)
        x = op.apply(x)
    return rows


_WALKS = {
    "dying": build_operator(Family.FORWARD, 96, weights=geometric_weights(96, 0.5)),
    "full-length": build_operator(Family.FORWARD, 40, weights=np.ones(39)),  # L = N
    "donoghue": build_operator(Family.DONOGHUE, 30, weights=geometric_weights(30, 0.8)),
    # x_1 is finite but ||x_1||^2 overflows: alive; x_2 is inf
    "overflowing-square": build_operator(Family.DENSE, 4, matrix=1e200 * np.eye(4)),
}


def _walk_seed(op):
    e = np.zeros(op.dim, dtype=np.complex128)
    e[-1 if op.family is Family.DONOGHUE else 0] = 1.0
    return e


@pytest.mark.parametrize("name", ["dying", "full-length", "donoghue"])
def test_orbit_walk_matches_the_stepwise_length_and_orbit(name):
    op = _WALKS[name]
    e = _walk_seed(op)
    vectors = orbit_walk(op, e, op.dim)
    length = max_orbit_length(op, e, cap=op.dim)
    assert vectors.shape == (length, op.dim)
    assert np.array_equal(vectors, compute_orbit(op, e, op.dim).vectors)
    if length > 1:
        assert len(orbit_walk(op, e, length - 1)) == length - 1  # the cap ends the walk
        assert np.array_equal(orbit_walk(op, e, length - 1), vectors[:-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan on the overflowing orbit
@pytest.mark.parametrize("name", _WALKS)
def test_walker_keeps_the_two_call_predicate(name):
    op = _WALKS[name]
    e = _walk_seed(op)
    expected = _stepwise_orbit(op, e, op.dim)
    vectors = orbit_walk(op, e, op.dim)
    assert len(vectors) == len(expected)
    assert np.array_equal(vectors, np.array(expected))
    if name == "overflowing-square":
        assert len(vectors) == 2 and np.isinf(np.vdot(vectors[1], vectors[1]).real)
