"""The audit of a stored certificate: forgeries, tampering and malformed documents.

A certificate stores its inputs and witnesses; ``aihs verify`` derives the
rest.  Every mutation of a field the audit reads or re-derives must make it
exit 1, and every malformed document must exit 1 with one line on stderr.
"""

import argparse
import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aihs import cli, halfspace, operators
from aihs import serialize as ser
from aihs.cli import main
from aihs.config import Tolerances
from aihs.halfspace import _CHECKS, _agrees
from aihs._linalg import qr_basis, unit_columns
from aihs.duality import containment_residual
from aihs.operators import (
    ORBIT_NORM_FLOOR,
    Family,
    build_operator,
    compute_orbit,
    geometric_weights,
    max_orbit_length,
    orbit_walk,
)


def _entire_cfg(dim=64, label="entire"):
    return {
        "schema": "aihs-run/1",
        "operator": {
            "family": "forward-weighted-shift",
            "dim": dim,
            "weights": {"kind": "geometric", "params": {"ratio": 0.9}},
        },
        "construction": "entire",
        "m": 3,
        "k_max": 2,
        "label": label,
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


def _unverified_cfg():
    # halved weights: the norm sum is about 2^47 / 47, over the cap, so the build flags it
    cfg = _blaschke_cfg()
    cfg["operator"]["weights"]["params"]["values"] = [0.5] * 47
    return dict(cfg, label="unverified")


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """route -> (clean document, a path to write mutated copies to).

    At N = 256 the entire route's orbit saturates at L = 81, so that
    certificate ("trimmed") stores its raw vectors without their zero tail.
    The "unverified" Blaschke certificate carries a raised hypothesis flag.
    """
    out = {}
    for route, cfg in (("entire", _entire_cfg()), ("blaschke", _blaschke_cfg()),
                       ("trimmed", _entire_cfg(256, "trimmed")), ("unverified", _unverified_cfg())):
        work = tmp_path_factory.mktemp(route)
        (work / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        code = 2 if route == "unverified" else 0
        assert main(["build", "--config", str(work / "cfg.json"), "--out", str(work)]) == code
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


def flipped_hypothesis_flag(doc):
    """The hypothesis flag raised where it was clear, or cleared where it was raised."""
    hypothesis = doc["hypothesis"]
    hypothesis["unverified"] = not hypothesis["unverified"]
    hypothesis["flags"] = ["functional-norm-sum-exceeds-cap"] if hypothesis["unverified"] else []


def scaled_norm_sum(doc):
    doc["hypothesis"]["norm_sum_partial"] = _scaled(doc["hypothesis"]["norm_sum_partial"], 1.001)


def _radius(value: float):
    """The stored spectral-radius estimate set to ``value`` (the derived one is 0 on a shift)."""
    def mutate(doc):
        doc["hypothesis"]["spectral_radius_estimate"] = value.hex()
    return mutate


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


def _cut_before_largest_row(get):
    """An array's ``rows`` cut to just before its largest row, its data cut to match.

    Dropping only the last stored row is no material change: that row sits at
    round-off scale (a subnormal in raw columns whose largest entries are
    1e22 to 1e33, about 1e-77 in a dual vector led by 2.0), so the audit
    reads it as no change.
    """
    def mutate(doc):
        arr = get(doc)
        a = _array(arr)
        arr["rows"] = int(np.argmax(np.abs(a).reshape(len(a), -1).max(axis=1)))
        arr["data"] = arr["data"][:arr["rows"] * math.prod(arr["shape"][1:])]
    return mutate


def zero_defect_rows(doc):
    doc["defect_vector"]["rows"], doc["defect_vector"]["data"] = 0, []


def _last_row_set(get):
    """The array's last row, past the vectors' support, set to its largest entry.

    The audit reads its row bound off the arrays, never off a stored count,
    so an entry past the zero tail is as visible as one inside it.
    """
    def mutate(doc):
        arr = get(doc)
        a = _array(arr)
        a[-1] = np.max(np.abs(a))
        arr.clear()
        arr.update(ser.encode_array(a))
    return mutate


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


def operator_echo_weight(doc):
    """The echo's weight ratio, or its first explicit [re, im] weight, times 1.1."""
    params = doc["config_echo"]["config"]["operator"]["weights"]["params"]
    if "ratio" in params:
        params["ratio"] *= 1.1
    else:
        params["values"][0] = [1.1 * part for part in params["values"][0]]


def operator_digest(doc):
    digest = doc["operator"]["sha256"]
    doc["operator"]["sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]


def operator_dim(doc):
    doc["operator"]["dim"] += 1


def operator_echo_dim(doc):
    doc["config_echo"]["config"]["operator"]["dim"] += 1


def operator_family(doc):
    doc["operator"]["family"] = "donoghue-backward-shift"


def swapped_functional_indices(doc):
    first, second = doc["functionals"][:2]
    first["k"], second["k"] = second["k"], first["k"]


_BOTH = ("entire", "blaschke")
_ALL = (*_BOTH, "trimmed")
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
    ("hypothesis-flag", flipped_hypothesis_flag, ("blaschke", "unverified")),
    ("hypothesis-norm-sum", scaled_norm_sum, ("blaschke", "unverified")),
    # 7.5 the build's precondition would have refused; 1e-6 is a small forgery
    ("hypothesis-radius-7.5", _radius(7.5), ("blaschke", "unverified")),
    ("hypothesis-radius-1e-6", _radius(1e-6), ("blaschke", "unverified")),
    ("raw-vector-entry", raw_vector_entry, _BOTH),
    ("raw-vector-small-column", small_column_entry, _BOTH),
    ("defect-vector-entry", defect_vector_entry, _BOTH),
    ("dual-vector-entry", dual_vector_entry, _BOTH),
    ("raw-vector-rows-cut", _cut_before_largest_row(lambda doc: doc["raw_vectors"]), _ALL),
    ("dual-vector-rows-cut",
     _cut_before_largest_row(lambda doc: doc["functionals"][0]["dual_vector"]), _ALL),
    ("defect-vector-rows-zero", zero_defect_rows, _ALL),
    ("raw-vector-past-support", _last_row_set(lambda doc: doc["raw_vectors"]), ("trimmed",)),
    ("dual-vector-past-support",
     _last_row_set(lambda doc: doc["functionals"][-1]["dual_vector"]), ("trimmed",)),
    *[(f"metric-{name}", _metric(name), _BOTH)
      for name in (*(n for n in _CHECKS if n != "ai_defect_rank"), "annihilation_scale")],
    ("metric-ai_defect_rank", defect_rank, _BOTH),
    ("metric-lambda_set", lambda_set, _BOTH),
    ("check-value", check_value, _BOTH),
    ("construction", swapped_construction, _BOTH),
    ("operator-echo-weight", operator_echo_weight, _BOTH),
    ("operator-digest", operator_digest, _BOTH),
    ("operator-dim", operator_dim, _BOTH),
    ("operator-echo-dim", operator_echo_dim, _BOTH),
    ("operator-family", operator_family, _BOTH),
    ("m-achieved", _set("m_achieved", -1), _BOTH),
    ("k-max", _set("k_max", 1), _BOTH),
    ("functional-indices", swapped_functional_indices, _BOTH),
]
CASES = [(route, name, mutate) for name, mutate, routes in MUTATIONS for route in routes]


@pytest.mark.parametrize("route", _BOTH)
def test_clean_certificate_passes(docs, route):
    doc, path = docs[route]
    assert _verify(doc, path) == 0


def test_clean_unverified_certificate_exits_two(docs):
    assert _verify(*docs["unverified"]) == 2


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


# --- the agreement rule: a float within tol_audit, anything else exactly ----------

TOL = Tolerances().tol_audit  # 1e-10


@pytest.mark.parametrize("stored, derived, agrees", [
    (0.5 + 1e-11, 0.5, True),  # below 1 the difference is absolute
    (0.5 + 2e-10, 0.5, False),
    (1e-30, 0.0, True),
    (1e6 + 1e-5, 1e6, True),  # above 1 it is relative
    (1e6 * (1 + 2e-10), 1e6, False),
    (math.nan, 0.5, False),
    (0.5, math.nan, False),
    (math.nan, math.nan, False),
    (-0.0, 0.0, True),
    (math.inf, math.inf, False),
], ids=["below-1-agrees", "below-1-differs", "tiny-absolute", "above-1-relative",
        "above-1-differs", "nan-stored", "nan-derived", "nan-both", "signed-zero", "inf"])
def test_a_float_agrees_within_the_drift_rule(stored, derived, agrees):
    assert _agrees(stored, derived, TOL) is agrees


@pytest.mark.parametrize("stored, derived, agrees", [
    (3, 3, True),
    (10**10 + 1, 10**10, False),  # the drift rule would let this pass
    (1e-12, 0, False),
    (True, True, True),
    (False, True, False),
    ("Entire", "Entire", True),
    ("Blaschke", "Entire", False),
    ([1 + 2j], [1 + 2j], True),
    ([1.0 + 1e-12], [1.0], False),
    (["functional-norm-sum-exceeds-cap"], [], False),
], ids=["int", "large-int", "float-against-int", "bool", "bool-differs", "str", "str-differs",
        "list", "list-differs-by-round-off", "list-differs"])
def test_every_other_value_agrees_exactly(stored, derived, agrees):
    assert _agrees(stored, derived, TOL) is agrees


def test_a_dict_agrees_on_the_derived_keys():
    stored = {"value": 0.5 + 1e-11, "threshold": math.nan, "passed": True}
    assert _agrees(stored, {"value": 0.5, "passed": True}, TOL)
    assert not _agrees(stored, {"value": 0.5, "passed": False}, TOL)
    assert not _agrees(stored, {"value": 0.6, "passed": True}, TOL)


# --- the audit's failure list: which names, in which order ---------------------


def _failures(doc, path) -> list:
    """``report["failures"]`` of the audit of ``doc``, with the operator ``verify`` rebuilds."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    cert = ser.read_certificate(path)
    op = cli._operator_for_certificate(cert, argparse.Namespace(config=None, seed=None))
    return halfspace.verify_certificate(op, cert)["failures"]


def _pivoted_qr_residual(op, cert) -> float:
    """ai_residual as it was derived before Y + span{e} grew Y's basis by one
    Gram-Schmidt column: from a pivoted QR of [basis, e] on the support rows."""
    lead, (e, raw, _) = op.on_support(cert.defect_vector.reshape(-1, 1), cert.raw_vectors,
                                      cert.duals)
    basis, _ = qr_basis(unit_columns(raw))
    return containment_residual(lead.apply(basis), qr_basis(unit_columns(np.hstack([basis, e])))[0])


@pytest.mark.parametrize("route", _ALL)
def test_a_certificate_with_the_pivoted_qr_residual_passes_the_audit(docs, route):
    # the two derivations differ in the last bits, far inside tol_audit
    doc, path = docs[route]
    doc = copy.deepcopy(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    cert = ser.read_certificate(path)
    op = cli._operator_for_certificate(cert, argparse.Namespace(config=None, seed=None))
    value = _pivoted_qr_residual(op, cert).hex()
    doc["metrics"]["ai_residual"] = doc["checks"]["ai_residual"]["value"] = value
    assert _failures(doc, path) == []
    assert _verify(doc, path) == 0


def metric_with_its_check(doc):
    """ai_residual claimed as 1.0 in the metrics and in its check, with the verdict it earns."""
    doc["metrics"]["ai_residual"] = (1.0).hex()
    doc["checks"]["ai_residual"].update(value=(1.0).hex(), passed=False)


def _hypothesis(key, value):
    def mutate(doc):
        doc["hypothesis"][key] = value
    return mutate


def tiny_norm_sum_cap(doc):
    """A cap the stored sum exceeds: the derived flag is raised, the stored one is not."""
    doc["hypothesis"]["norm_sum_cap"] = (1e-30).hex()


def every_section(doc):
    raw_vector_entry(doc)
    _metric("ai_residual")(doc)
    _flip("extension_residual_max")(doc)
    scaled_norm_sum(doc)


def _unmet_threshold(threshold):
    """ai_residual's check failed against a stored threshold no residual meets."""
    def mutate(doc):
        doc["checks"]["ai_residual"].update(threshold=threshold, passed=False)
    return mutate


FAILURE_LISTS = [
    ("metric", _metric("ai_residual"), _BOTH, ["ai_residual"]),
    ("metric-ai_defect_rank", defect_rank, _BOTH, ["ai_defect_rank"]),
    ("metric-with-its-check", metric_with_its_check, _BOTH,
     ["ai_residual", "checks.ai_residual"]),
    ("check-passed", _flip("ai_residual"), _BOTH, ["checks.ai_residual"]),
    ("hypothesis-spectral_radius_estimate", _radius(1e-6), ("blaschke",),
     ["hypothesis.spectral_radius_estimate"]),
    ("hypothesis-norm_sum_partial", scaled_norm_sum, ("blaschke",),
     ["hypothesis.norm_sum_partial"]),
    ("hypothesis-unverified", _hypothesis("unverified", True), ("blaschke",),
     ["hypothesis.unverified"]),
    ("hypothesis-flags", _hypothesis("flags", ["functional-norm-sum-exceeds-cap"]),
     ("blaschke",), ["hypothesis.flags"]),
    ("hypothesis-norm_sum_cap", tiny_norm_sum_cap, ("blaschke",),
     ["hypothesis.unverified", "hypothesis.flags"]),
    ("raw-vector-entry", raw_vector_entry, _BOTH, ["raw_vectors"]),
    ("every-section", every_section, ("blaschke",),
     ["raw_vectors", "ai_residual", "checks.extension_residual_max",
      "hypothesis.norm_sum_partial"]),
    # a stored threshold only re-derives its check's verdict (see the README), so a
    # certificate that claims a check failed against an unmeetable one still passes
    ("threshold-nan", _unmet_threshold("nan"), _BOTH, []),
    ("threshold-1e-30", _unmet_threshold((1e-30).hex()), _BOTH, []),
]
FAILURE_CASES = [(route, name, mutate, failures)
                 for name, mutate, routes, failures in FAILURE_LISTS for route in routes]


@pytest.mark.parametrize("route, name, mutate, failures", FAILURE_CASES,
                         ids=[f"{route}-{name}" for route, name, _, _ in FAILURE_CASES])
def test_audit_failure_list(docs, route, name, mutate, failures):
    doc, path = docs[route]
    doc = copy.deepcopy(doc)
    mutate(doc)
    assert _failures(doc, path) == failures


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


def flagged_entire_hypothesis(doc):
    """The entire route has no hypothesis to flag."""
    doc["hypothesis"] = {"unverified": True, "flags": ["functional-norm-sum-exceeds-cap"]}


def functional_without_dual(doc):
    del doc["functionals"][0]["dual_vector"]


def short_dual_vector(doc):
    """One functional's dual vector with dim - 1 entries."""
    f = doc["functionals"][0]
    f["dual_vector"] = ser.encode_array(_array(f["dual_vector"])[:-1])


def integer_array(doc):
    doc["lambdas"]["dtype"] = "int64"


def no_certified_lambda(doc):
    """m_achieved 0 with no raw vector and no lambda: no build writes one."""
    doc["m_achieved"] = 0
    doc["raw_vectors"] = ser.encode_array(np.zeros((doc["operator"]["dim"], 0), complex))
    doc["lambdas"] = ser.encode_array(np.zeros(0, complex))


def no_requested_lambda(doc):
    """m_requested 0: every builder rejects m < 1."""
    doc["m_requested"] = 0


def malformed_exclusion(doc):
    doc["excluded_lambdas"] = [{"reason": "noise-floor"}]


def operator_without_digest(doc):
    del doc["operator"]["sha256"]


def uneven_complex_pairs(doc):
    """A three-entry and a one-entry list in place of two pairs: the count of entries still fits."""
    data = doc["raw_vectors"]["data"]
    data[:2] = [data[0] + data[1][:1], data[1][1:]]


def string_complex_pairs(doc):
    """Two-character strings in place of [re, im] pairs."""
    doc["lambdas"]["data"] = ["11"] * len(doc["lambdas"]["data"])


def _trimmed_raw_vectors(doc) -> dict:
    raw = doc["raw_vectors"]
    assert raw["rows"] < raw["shape"][0]  # the fixture stores a zero tail trimmed
    return raw


def rows_above_shape(doc):
    raw = _trimmed_raw_vectors(doc)
    width = raw["shape"][1]
    raw["data"] += [["0x0.0p+0", "0x0.0p+0"]] * width * (raw["shape"][0] + 1 - raw["rows"])
    raw["rows"] = raw["shape"][0] + 1


def negative_rows(doc):
    _trimmed_raw_vectors(doc)["rows"] = -1


def boolean_rows(doc):
    raw = _trimmed_raw_vectors(doc)
    raw["rows"], raw["data"] = True, raw["data"][:raw["shape"][1]]  # one row's data


def full_length_trimmed_data(doc):
    """The trimmed raw vectors written back with every row, zeros included; rows kept."""
    raw = _trimmed_raw_vectors(doc)
    raw["data"] = [[z.real.hex(), z.imag.hex()] for z in _array(raw).ravel().tolist()]


# these need a certificate whose raw vectors are stored trimmed
ROWS_MALFORMED = [rows_above_shape, negative_rows, boolean_rows, full_length_trimmed_data]
MALFORMED = [transposed_raw_vectors, empty_functionals, string_in_metrics, bad_hex, short_data,
             stored_basis, old_schema, string_rank, array_without_shape, functional_without_dual,
             short_dual_vector, malformed_exclusion, operator_without_digest, uneven_complex_pairs,
             string_complex_pairs, flagged_entire_hypothesis, integer_array, no_certified_lambda,
             no_requested_lambda, *ROWS_MALFORMED]


# the end of the message for the rows that pin it
_PARSE_ERRORS = {
    integer_array: ": unknown array dtype 'int64'\n",
    no_certified_lambda: ": certificate invalid at m_achieved: 0 is less than the minimum of 1\n",
    no_requested_lambda: ": certificate invalid at m_requested: 0 is less than the minimum of 1\n",
}


@pytest.mark.parametrize("mutate", MALFORMED, ids=[m.__name__ for m in MALFORMED])
def test_malformed_certificate_is_a_one_line_error(docs, capsys, mutate):
    doc, path = docs["trimmed" if mutate in ROWS_MALFORMED else "entire"]
    doc = copy.deepcopy(doc)
    mutate(doc)
    capsys.readouterr()
    assert _verify(doc, path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse certificate {path}")
    assert err.count("\n") == 1
    assert err.endswith(_PARSE_ERRORS.get(mutate, "\n"))


@pytest.mark.parametrize("order", [lambda length: length, lambda length: length + 999,
                                   lambda length: 2**41], ids=["L", "L+999", "2^41"])
def test_law_order_past_the_orbit_is_a_one_line_error(docs, capsys, order):
    # b_0..b_{L-1} are all an orbit of L vectors reads; the order is checked
    # before any series is allocated
    doc, path = docs["blaschke"]
    doc = copy.deepcopy(doc)
    doc["law"]["order"] = order(doc["orbit_length"])
    capsys.readouterr()
    assert _verify(doc, path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse certificate {path}") and err.count("\n") == 1


def test_old_schema_is_rejected_by_name(docs, capsys):
    for schema in ("aihs-cert/1", "aihs-cert/2"):
        doc = copy.deepcopy(docs["entire"][0])
        doc["schema"] = schema
        capsys.readouterr()
        assert _verify(doc, docs["entire"][1]) == 1
        assert f"found {schema!r}" in capsys.readouterr().err


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
