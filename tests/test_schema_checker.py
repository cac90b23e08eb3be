"""The config and certificate schema checker against jsonschema.

``config.check_document`` implements the draft-7 keywords the config,
certificate and law schemas use.  jsonschema serves here only as a
reference, the way scipy does for the linear algebra: on valid documents of
every command and on real certificates of both constructions, mutated at
random, the checker must accept exactly what ``Draft7Validator`` accepts and
report the path and message of the error ``jsonschema.exceptions.best_match``
picks.  On the same mutations, its whole list of violations must equal the
reference's ``iter_errors``, as a multiset of (path, message) pairs.
"""

import contextlib
import copy
import io
import json
import math
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aihs import config
from aihs import serialize as ser
from aihs.cli import main
from aihs.errors import ArgumentError

_SHIFT = {"family": "forward-weighted-shift", "dim": 24,
          "weights": {"kind": "explicit", "params": {"values": [0.5, [0.25, -0.5], 1, [1.0, 0]]}}}

RUN = {
    "schema": "aihs-run/1", "operator": _SHIFT, "construction": "blaschke", "m": 3, "k_max": 2,
    "seed_vector": {"kind": "explicit", "values": [1.0, [0.0, 1.0]]},
    "blaschke": {"sequence": {"kind": "explicit", "values": [0.5, [0.1, 0.2], 0.3]},
                 "defect_cap": 1e3},
    "tolerances": {"tol_ai": 1e-8, "tol_audit": 1e-10}, "seed": 3, "label": "run",
}
# the blaschke-orbit256 shape: 300 [re, im] weights, so most mutations land
# in a list of pairs, which the checker accepts unwalked while it stays one
_PHASES = [[math.cos(0.37 * i), math.sin(0.37 * i)] for i in range(300)]
PAIRS_RUN = {
    "schema": "aihs-run/1", "construction": "blaschke", "m": 8, "k_max": 5, "seed": 0,
    "operator": {"family": "forward-weighted-shift", "dim": 301,
                 "weights": {"kind": "explicit", "params": {"values": _PHASES}}},
    "seed_vector": {"kind": "explicit", "values": [[1, 0], [0.5, -0.5], [0, 2], [-0.0, 1e308]]},
    "blaschke": {"sequence": {"kind": "inverse-square"}}, "label": "pairs",
}
DOCUMENTS = {
    "run": (config.RUN_SCHEMA, RUN),
    "pairs": (config.RUN_SCHEMA, PAIRS_RUN),
    "chain": (config.CHAIN_SCHEMA, {
        "schema": "aihs-chain/1", "depth": 4, "witness": True, "codim": 2, "seed": 0,
        "operator": {"family": "dense", "dim": 3, "matrix": {
            "kind": "explicit", "entries": [[1, 0.5, [0, 1]], [0, 2, 0], [0, 0, 3.0]]}},
        "seed_vector": {"kind": "basis", "index": 1}, "label": "chain"}),
    "sweep": (config.SWEEP_SCHEMA, {"schema": "aihs-sweep/1", "label": "sweep", "runs": [
        {**RUN, "construction": "entire", "blaschke": {"sequence": {"kind": "geometric",
                                                                    "ratio": 0.5}}},
        {"operator": {"family": "dense", "dim": 4,
                      "matrix": {"kind": "random-gaussian", "scale": 0.5}},
         "construction": "entire", "m": 2, "k_max": 1}]}),
    "probe": (config.PROBE_SCHEMA, {"schema": "aihs-probe/1", "dim": 6, "k_max": 3,
                                    "n_max": 5, "p": 2.0, "label": "probe"}),
}
# values that break a node: bools and strings for numbers, integral and
# fractional floats for integers, out-of-range numbers, [re, im] pairs of
# the wrong length, empty lists, bad hex floats and laws of neither shape
POOL = [True, False, None, "7", "x", "aihs-run/2", "0x1.8p+1", "0x1.zp+0", "-inf", 0, 1, -1, 2,
        1.0, 2.5, -0.5, 0.0, 1e300, [], [0.5], [0.5, 0.0, 0.0], [[0.5, 0.0]], ["x", 1], {},
        {"zeros": {}, "order": 1}, {"zeros": {}, "order": -1}, {"coefficients": {}},
        {"coefficients": {}, "order": 2}, {"zeros": {}}]


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """One stored certificate per construction: an entire law and a Blaschke law."""
    out = tmp_path_factory.mktemp("certs")
    entire = {"schema": "aihs-run/1", "construction": "entire", "m": 2, "k_max": 1,
              "label": "entire", "operator": {"family": "forward-weighted-shift", "dim": 12,
                                               "weights": {"kind": "geometric",
                                                           "params": {"ratio": 0.5}}}}
    blaschke = {**entire, "construction": "blaschke", "label": "blaschke",
                "operator": {**entire["operator"], "weights": {"kind": "explicit",
                                                                "params": {"values": [1.0] * 11}}}}
    for cfg in (entire, blaschke):
        (out / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["build", "--config", str(out / "run.json"), "--out", str(out)])
    return [json.loads((out / f"{name}.cert.json").read_text()) for name in ("entire", "blaschke")]


def _paths(doc, path=()):
    """Every node of a JSON document, as the key path that reaches it."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(child, path + (key,))


def _mutate(draw, doc):
    """Drop a key, add an unknown key or replace a node, one to three times."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(POOL)))
        if not path:
            if isinstance(doc, dict):
                doc["unknown"] = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["drop", "add", "replace", "replace"]))
        if action == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["unknown", "kind", "values", "order", "zeros"]))] = value
        elif action == "drop" and isinstance(parent, list):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _expected(schema, doc):
    """jsonschema's verdict: None, or the line ``jsonschema.validate`` reports."""
    best = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(schema).iter_errors(doc))
    if best is None:
        return None
    return f"doc invalid at {'/'.join(map(str, best.absolute_path)) or '<root>'}: {best.message}"


def _got(schema, doc):
    try:
        config.check_document(schema, doc, "doc")
    except ArgumentError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_valid_configs_pass_both(name):
    schema, doc = DOCUMENTS[name]
    assert _expected(schema, doc) is None and _got(schema, doc) is None


@settings(max_examples=400, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(DOCUMENTS)))
def test_mutated_configs_match_jsonschema(data, name):
    schema, doc = DOCUMENTS[name]
    doc = _mutate(data.draw, doc)
    assert _got(schema, doc) == _expected(schema, doc)


def _certificate_lines(doc):
    """(checker, jsonschema) lines for a certificate, read as ``aihs verify`` reads it:
    against CERT_SCHEMA, then its law and hypothesis against its construction's schema."""
    got, expected = _got(ser.CERT_SCHEMA, doc), _expected(ser.CERT_SCHEMA, doc)
    if got is None and expected is None:
        schema = ser.CONSTRUCTION_SCHEMAS[doc["construction"]]
        part = {key: doc[key] for key in ("law", "hypothesis")}
        got, expected = _got(schema, part), _expected(schema, part)
    return got, expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.integers(0, 1))
def test_mutated_certificates_match_jsonschema(certificates, data, which):
    got, expected = _certificate_lines(_mutate(data.draw, certificates[which]))
    assert got == expected


_DROP = object()
_VALUES = ("operator", "weights", "params", "values")


@pytest.mark.parametrize("name, path, value, violations", [
    ("run", ("m",), _DROP, 1),
    ("run", ("extra",), 1, 1),
    ("run", ("m",), True, 1),
    ("run", ("m",), "3", 1),
    ("run", ("m",), 3.0, 0),  # an integral float is an integer
    ("run", ("m",), 2.5, 1),
    ("run", ("k_max",), -1, 1),
    ("run", ("tolerances", "tol_ai"), 0, 1),
    ("run", ("seed_vector", "values", 0), False, 1),
    ("run", _VALUES + (1,), [0.25], 1),
    ("run", _VALUES + (1,), [0.25, 0, 1], 1),
    ("run", _VALUES, [], 1),
    ("chain", ("witness",), 1, 1),
    ("probe", ("p",), 0.5, 1),
])
def test_single_mutations_match_jsonschema(name, path, value, violations):
    schema, doc = DOCUMENTS[name]
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    assert len(list(jsonschema.Draft7Validator(schema).iter_errors(doc))) == violations
    assert _got(schema, doc) == _expected(schema, doc)


_LONG = [[math.cos(0.01 * i), math.sin(0.01 * i)] for i in range(4096)]


# the reference validator takes about 0.1 s over 4096 pairs, so each bad
# value goes to one place, and each place gets at least one
@pytest.mark.parametrize("value, index", [
    (True, 0), ("1", 2048), ([1, 2, 3], 4095), ([1], 0), ([[1, 2], 3], 4095),
], ids=["bool-first", "string-middle", "triple-last", "single-first", "nested-last"])
def test_one_bad_entry_in_a_long_pair_list_matches_jsonschema(value, index):
    # one entry that is not an [re, im] pair of numbers sends the list to the
    # full walk, which names that entry as the reference validator does
    doc = copy.deepcopy(PAIRS_RUN)
    values = [list(pair) for pair in _LONG]
    values[index] = value
    doc["operator"]["weights"]["params"]["values"] = values
    got = _got(config.RUN_SCHEMA, doc)
    assert got.startswith(f"doc invalid at operator/weights/params/values/{index}")
    assert got == _expected(config.RUN_SCHEMA, doc)


@pytest.mark.parametrize("field, value", [
    ("functionals", []), ("metrics", "x"), ("m_achieved", 1.5),
])
def test_single_certificate_mutations_match_jsonschema(certificates, field, value):
    doc = {**certificates[0], field: value}
    got = _got(ser.CERT_SCHEMA, doc)
    assert got is not None and got == _expected(ser.CERT_SCHEMA, doc)


def test_bad_hex_float_matches_jsonschema(certificates):
    doc = copy.deepcopy(certificates[0])
    doc["metrics"]["ai_residual"] = "0x1.zp+0"
    got = _got(ser.CERT_SCHEMA, doc)
    assert got.startswith("doc invalid at metrics/ai_residual: '0x1.zp+0' does not match")
    assert got == _expected(ser.CERT_SCHEMA, doc)


@pytest.mark.parametrize("schema, doc", [
    ({"enum": [2, 3], "minimum": 2}, 0),  # two keywords at one node, neither a type
    ({"type": "object", "required": ["a", "b"], "additionalProperties": False}, {"c": 1}),
    ({"minimum": 0, "type": "integer"}, -1.5),  # a keyword before a failed type
    ({"type": "array", "minItems": 2, "maxItems": 0}, [1]),
    ({"type": "integer", "minimum": 0}, -1.5),  # and one after it
    ({"required": ["a"], "additionalProperties": False}, [1]),  # object keywords, no object
    ({"required": ["a"], "additionalProperties": False}, {"a": 1, "b": 2}),
])
def test_small_schemas_match_jsonschema(schema, doc):
    assert _got(schema, doc) == _expected(schema, doc)


def _law_line(certificate, law) -> str:
    """The line for ``certificate`` carrying ``law``, which only its law schema rejects."""
    doc = {**certificate, "law": law}
    assert _got(ser.CERT_SCHEMA, doc) is None
    got, expected = _certificate_lines(doc)
    assert got == expected and got.startswith("doc invalid at law")
    return got


@pytest.mark.parametrize("law, message", [
    ({"coefficients": {}, "order": 2}, "law: 'zeros' is a required property"),
    ({"zeros": {}}, "law: 'order' is a required property"),
    ({"zeros": {}, "order": -1}, "order: -1 is less than the minimum of 0"),
    ({"zeros": {}, "order": 2.5}, "order: 2.5 is not of type 'integer'"),
    # two errors at order, its type and its minimum: the first in schema order
    ({"zeros": {}, "order": -0.5}, "order: -0.5 is not of type 'integer'"),
    ({"zeros": {}, "order": 2, "coefficients": {}},
     "law: Additional properties are not allowed ('coefficients' was unexpected)"),
])
def test_law_of_neither_shape(certificates, law, message):
    assert _law_line(certificates[1], law).endswith(message)


@pytest.mark.parametrize("law, message", [
    ({"zeros": {}, "order": 1}, "law: 'coefficients' is a required property"),
    ({"coefficients": []}, "law/coefficients: [] is not of type 'object'"),
    ({"coefficients": {}, "order": 2},
     "law: Additional properties are not allowed ('order' was unexpected)"),
])
def test_entire_law_of_another_shape(certificates, law, message):
    assert _law_line(certificates[0], law).endswith(message)


# --- the whole violation list ----------------------------------------------


def _violations(schema, doc):
    """(checker, jsonschema): each one's violations of ``doc`` as a multiset of (path, message)."""
    expected = [(tuple(error.absolute_path), error.message)
                for error in jsonschema.Draft7Validator(schema).iter_errors(doc)]
    return Counter(config._checker(schema)(doc) or ()), Counter(expected)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(DOCUMENTS)))
def test_mutated_configs_list_every_violation(data, name):
    schema, doc = DOCUMENTS[name]
    got, expected = _violations(schema, _mutate(data.draw, doc))
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.integers(0, 1))
def test_mutated_certificates_list_every_violation(certificates, data, which):
    doc = _mutate(data.draw, certificates[which])
    got, expected = _violations(ser.CERT_SCHEMA, doc)
    assert got == expected
    part = {key: doc[key] for key in ("law", "hypothesis") if key in doc}
    for schema in ser.CONSTRUCTION_SCHEMAS.values():  # under either construction's schema
        got, expected = _violations(schema, part)
        assert got == expected


@pytest.mark.parametrize("schema, doc", [
    ({"type": "boolean", "const": False}, 0),  # in draft 7, False equals no 0
    ({"const": 1}, True),
    ({"enum": ["a", 1]}, True),
    ({"enum": [False, "x"]}, 0.0),
    ({"enum": [True, 0]}, 0),  # and 0 is 0
    ({"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 3}, [1.5, True]),
])
def test_small_schemas_list_every_violation(schema, doc):
    got, expected = _violations(schema, doc)
    assert got == expected
