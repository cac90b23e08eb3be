import argparse
import csv
import dataclasses
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from aihs import chains, cli, config, halfspace
from aihs import serialize as ser
from aihs.blaschke import blaschke_sequence
from aihs.chains import extend_chain, init_chain, verify_chain
from aihs.cli import main
from aihs.operators import (compute_orbit, geometric_weights, operator_from_config,
                            weights_from_config)
from aihs.resolvent import probe_tail_oracle
from aihs.errors import ArgumentError
from aihs.serialize import (
    CERT_CSV_COLUMNS,
    PROBE_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    read_certificate,
)


def _write(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _entire_cfg(dim=64, m=3, k_max=2, label="run"):
    return {
        "schema": "aihs-run/1",
        "operator": {
            "family": "forward-weighted-shift",
            "dim": dim,
            "weights": {"kind": "geometric", "params": {"ratio": 0.9}},
        },
        "construction": "entire",
        "m": m,
        "k_max": k_max,
        "label": label,
    }


def _with_weight(value):
    cfg = _halved_blaschke_cfg()
    cfg["operator"]["weights"]["params"]["values"][3] = value
    return cfg


def _halved_blaschke_cfg():
    return {
        "schema": "aihs-run/1",
        "operator": {
            "family": "forward-weighted-shift",
            "dim": 128,
            "weights": {"kind": "explicit", "params": {"values": [0.5] * 127}},
        },
        "construction": "blaschke",
        "m": 4,
        "k_max": 3,
        "label": "halved",
    }


@pytest.mark.parametrize(
    "sequence, m, params",
    [
        ({"kind": "inverse-square"}, 4, {}),
        # the last bit of lambda_2 once differed between two geometric formulas
        ({"kind": "geometric", "ratio": 0.8}, 8, {"ratio": 0.8}),
        # ascending in modulus, the order a certificate stores its zeros in
        (
            {"kind": "explicit", "values": [[0.5, 0.25], [-0.3, -0.6], 0.75]},
            3,
            {"values": [0.5 + 0.25j, -0.3 - 0.6j, 0.75]},
        ),
    ],
)
def test_blaschke_lambdas_are_blaschke_sequence(tmp_path, sequence, m, params):
    cfg = dict(_halved_blaschke_cfg(), m=m, k_max=2, blaschke={"sequence": sequence})
    argv = ["build", "--config", _write(tmp_path / "b.json", cfg), "--out", str(tmp_path)]
    assert main(argv) == 2
    cert = read_certificate(tmp_path / "halved.cert.json")
    want = blaschke_sequence(sequence["kind"], m, **params)
    assert cert.lambdas.tobytes() == want.tobytes()


def test_blaschke_geometric_tail_at_one_exits_one(tmp_path, capsys):
    # 1 - 0.01**n rounds to 1.0 from n = 9 on: a zero on the unit circle
    seq = {"kind": "geometric", "ratio": 0.01}
    cfg = dict(_halved_blaschke_cfg(), m=12, blaschke={"sequence": seq})
    argv = ["build", "--config", _write(tmp_path / "b.json", cfg), "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error") and "unit disk" in err
    assert err.count("\n") == 1


def test_build_writes_certificate_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path / "run.json", _entire_cfg())
    code = main(["build", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    cert = read_certificate(tmp_path / "out" / "run.cert.json")
    assert cert.passed and cert.m_achieved == 3
    with (tmp_path / "out" / "run.summary.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CERT_CSV_COLUMNS)
    assert len(rows) == 2


def test_build_deterministic_bytes(tmp_path):
    cfg = _write(tmp_path / "run.json", _entire_cfg())
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "run.cert.json").read_bytes()
    b = (tmp_path / "b" / "run.cert.json").read_bytes()
    assert a == b


def test_build_invalid_m_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.json", _entire_cfg(m=0))
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config invalid" in capsys.readouterr().err


def test_build_stage_error_exits_one(tmp_path, capsys):
    bad = _entire_cfg()
    bad["operator"] = {
        "family": "dense",
        "dim": 8,
        "matrix": {
            "kind": "explicit",
            "entries": [[1.0 if i == j else 0.0 for j in range(8)] for i in range(8)],
        },
    }
    cfg = _write(tmp_path / "ident.json", bad)
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "stage 'orbit'" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [32, 64])
def test_dense_krylov_orbit_minimality_is_exact(tmp_path, capsys, dim):
    # The full-length orbit of a random dense N = 64 matrix is numerically
    # dependent: some vector lies closer than MINIMALITY_RTOL (relative) to the
    # exact span of the others, so the build stops at stage 'orbit'.  At
    # N = 32 the orbit is minimal and the certificate fails its checks.
    run = _entire_cfg(m=4, k_max=3, label="dense")
    run["operator"] = {"family": "dense", "dim": dim,
                       "matrix": {"kind": "random-gaussian", "scale": 1.0}}
    run["seed"] = 0
    cfg = _write(tmp_path / "dense.json", run)
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    cert = tmp_path / "dense.cert.json"
    if dim == 64:
        assert "stage 'orbit'" in err and "orbit is not minimal" in err
        assert not cert.exists()
    else:
        assert not read_certificate(cert).passed


_CONFIG_ERRORS = [
    ("build", {"operator": {}, "construction": "entire", "m": 1, "k_max": 0},
     "operator: 'family' is a required property"),
    ("build", _entire_cfg(m=0), "m: 0 is less than the minimum of 1"),
    ("build", {**_entire_cfg(), "construction": "other", "extra": 1},
     "<root>: Additional properties are not allowed ('extra' was unexpected)"),
    ("sweep", {"runs": [_entire_cfg(), {**_entire_cfg(), "k_max": -1}]},
     "runs/1/k_max: -1 is less than the minimum of 0"),
    ("chain", {"operator": _entire_cfg()["operator"], "depth": "ten"},
     "depth: 'ten' is not of type 'integer'"),
    # a complex entry is a number or an [re, im] pair
    ("build", _with_weight("0.5"),
     "operator/weights/params/values/3: '0.5' is not of type 'number', 'array'"),
    ("build", _with_weight([0.5, 0.0, 0.0]),
     "operator/weights/params/values/3: [0.5, 0.0, 0.0] is too long"),
]


@pytest.mark.parametrize("command, cfg, message", _CONFIG_ERRORS,
                         ids=[f"{case[0]}-cfg{i}" for i, case in enumerate(_CONFIG_ERRORS)])
def test_config_errors_are_one_line(command, cfg, message):
    with pytest.raises(ArgumentError) as got:
        config.validate_config(cfg, command)
    assert str(got.value) == f"config invalid at {message}"


@pytest.mark.parametrize("schema", [config.RUN_SCHEMA, config.CHAIN_SCHEMA, config.SWEEP_SCHEMA,
                                    config.PROBE_SCHEMA, ser.CERT_SCHEMA,
                                    *ser.CONSTRUCTION_SCHEMAS.values()],
                         ids=["run", "chain", "sweep", "probe", "cert", *ser.CONSTRUCTION_SCHEMAS])
def test_schemas_use_only_the_checkers_keywords(schema):
    assert callable(config._compile(schema))  # the compiler raises on any other keyword


@pytest.mark.parametrize("schema", [{"maximum": 3}, {"additionalProperties": True},
                                    {"type": "object", "const": [0]}])
def test_a_keyword_the_checker_does_not_implement_fails_to_compile(schema):
    with pytest.raises(ValueError, match="the schema checker"):
        config._compile(schema)


def test_a_command_with_no_config_schema_is_rejected():
    with pytest.raises(ArgumentError) as got:
        config.validate_config({}, "bogus")
    assert str(got.value) == "no config schema for command 'bogus'"


def test_an_unknown_tolerance_key_is_rejected():
    with pytest.raises(ArgumentError) as got:
        config.tolerances_from_config({"bogus": 1.0})
    assert str(got.value) == "unknown tolerance keys: ['bogus']"


def test_a_complex_entry_of_three_parts_is_rejected():
    # the schema bounds [re, im] pairs, so only a block built past it reaches this
    with pytest.raises(ArgumentError) as got:
        weights_from_config({"kind": "geometric", "params": {"ratio": [0.5, 0, 0]}}, 4)
    assert str(got.value) == "complex entries must be [re, im], got [0.5, 0, 0]"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["tolerance", "ratio"])
def test_non_json_number_in_config_is_a_one_line_error(tmp_path, capsys, literal, where):
    cfg = _entire_cfg()
    if where == "tolerance":
        cfg["tolerances"] = {"tol_ai": "@"}
    else:
        cfg["operator"]["weights"]["params"]["ratio"] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and literal in err
    assert not out.exists()


@pytest.mark.parametrize("digits", [401, 5001])  # 5001 is past int()'s default digit limit
@pytest.mark.parametrize("command", ["build", "verify"])
def test_integer_beyond_the_float_range_is_a_one_line_error(tmp_path, capsys, command, digits):
    # a ratio that JSON reads as an int no float holds, in a config or in a certificate's echo
    cfg = _entire_cfg()
    if command == "build":
        cfg["operator"]["weights"]["params"]["ratio"] = "@"
        path, doc = tmp_path / "run.json", cfg
        argv = ["build", "--config", str(path), "--out", str(tmp_path / "out")]
    else:
        path, doc = _built_certificate(tmp_path, cfg)
        doc["config_echo"]["config"]["operator"]["weights"]["params"]["ratio"] = "@"
        argv = ["verify", str(path)]
    path.write_text(json.dumps(doc).replace('"@"', "1" + "0" * (digits - 1)), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and f"of {digits} digits lies beyond the float range" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["1e309", "-1e309", "Infinity"])
@pytest.mark.parametrize("command", ["probe-dense", "build", "verify"])
def test_number_beyond_the_float_range_is_a_one_line_error(tmp_path, capsys, command, literal):
    # JSON reads 1e309 as inf: a probe with p = inf printed a table of ones, and a
    # Blaschke build with defect_cap = inf ran with no cap and wrote the token
    # Infinity into its certificate's echo, which verify accepted
    if command == "probe-dense":
        doc = {"schema": "aihs-probe/1", "dim": 64, "k_max": 2, "p": "@", "label": "probe"}
    else:
        doc = {**_halved_blaschke_cfg(), "blaschke": {"defect_cap": "@"}}
    path = tmp_path / "run.json"
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "verify":
        doc["blaschke"]["defect_cap"] = 5.0
        path, doc = _built_certificate(tmp_path, doc)
        doc["config_echo"]["config"]["blaschke"]["defect_cap"] = "@"
        argv = ["verify", str(path)]
    path.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    files = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    reason = (f"{literal} is not a JSON number" if literal == "Infinity"
              else f"number literal {literal} lies beyond the float range")
    where = f"cannot parse certificate {path}: " if command == "verify" else ""
    assert out == "" and err == f"error: {where}{reason}\n"
    assert sorted(tmp_path.iterdir()) == files  # nothing written


def _read_configs_as_python_json(monkeypatch):
    """Let the CLI read a config as Python's ``json`` does, a literal such as 1e400 as inf.

    ``load_config`` rejects such a literal (see
    ``test_number_beyond_the_float_range_is_a_one_line_error``), so only a
    Python caller's dict holds an inf; this hands the CLI one, to reach the
    checks behind the parser.
    """
    monkeypatch.setattr(cli, "load_config", lambda path: json.loads(Path(path).read_text()))


@pytest.mark.parametrize("command, flags, in_config", [
    ("build", ["--tol-ai", "-1"], None),
    ("build", ["--tol-ai", "nan"], None),
    ("sweep", ["--tol-ai", "0"], None),
    ("build", [], "1e999"),  # an inf in the config
])
def test_bad_build_tolerance_is_a_one_line_error(tmp_path, capsys, monkeypatch, command, flags,
                                                 in_config):
    cfg = _entire_cfg()
    if in_config:
        cfg["tolerances"] = {"tol_ai": "@"}
        _read_configs_as_python_json(monkeypatch)
    path = tmp_path / "run.json"
    text = json.dumps({"runs": [cfg]} if command == "sweep" else cfg)
    path.write_text(text.replace('"@"', str(in_config)), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance tol_ai must be a finite number > 0")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("tol_ai", ["-1", "0", "inf", "nan"])
def test_verify_bad_tolerance_flag_is_a_one_line_error(tmp_path, capsys, tol_ai):
    cfg = _write(tmp_path / "run.json", _entire_cfg())
    main(["build", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run.cert.json"), "--tol-ai", tol_ai]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: tolerance tol_ai must be a finite number > 0")


def test_build_blaschke_unverified_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path / "half.json", _halved_blaschke_cfg())
    code = main(["build", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "hypothesis" in capsys.readouterr().out
    cert = read_certificate(tmp_path / "out" / "halved.cert.json")
    assert cert.hypothesis_unverified and cert.passed


def test_verify_round_trip(tmp_path):
    cfg = _write(tmp_path / "run.json", _entire_cfg())
    main(["build", "--config", cfg, "--out", str(tmp_path)])
    assert main(["verify", str(tmp_path / "run.cert.json")]) == 0


def test_integer_tolerances_round_trip(tmp_path):
    # thresholds are written as hex floats, so integer tolerances are stored as floats
    cfg = dict(_entire_cfg(), tolerances={"tol_ai": 1, "tol_extension": 1})
    main(["build", "--config", _write(tmp_path / "run.json", cfg), "--out", str(tmp_path)])
    assert read_certificate(tmp_path / "run.cert.json").checks["ai_residual"]["threshold"] == 1.0
    assert main(["verify", str(tmp_path / "run.cert.json")]) == 0


def test_blaschke_order_is_no_config_key(tmp_path, capsys):
    # the order is the orbit length less one: no other coefficient is read
    cfg = dict(_halved_blaschke_cfg(), blaschke={"order": 512})
    out = tmp_path / "out"
    assert main(["build", "--config", _write(tmp_path / "b.json", cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: config invalid at blaschke: Additional properties "
                                       "are not allowed ('order' was unexpected)\n")
    assert not out.exists()


def _blaschke_on(values, **cfg):
    """The halved Blaschke run on a forward shift with these explicit weights."""
    operator = {"family": "forward-weighted-shift", "dim": len(values) + 1,
                "weights": {"kind": "explicit", "params": {"values": values}}}
    return dict(_halved_blaschke_cfg(), operator=operator, m=3, k_max=2, **cfg)


_HALVED, _GEOMETRIC = [0.5] * 31, [0.9] * 31


@pytest.mark.parametrize("cfg, built, verified", [
    (_halved_blaschke_cfg(), 2, 2),
    # an integer cap is stored as the hex float the schema requires
    (_blaschke_on(_HALVED, tolerances={"blaschke_norm_cap": 1000000}), 2, 2),
    # a raised cap clears the build's flag, not the audit's own cap
    (_blaschke_on(_HALVED, tolerances={"blaschke_norm_cap": 1e300}), 0, 2),
    # the geometric norm sum passes the default cap, not a lowered one
    (_blaschke_on(_GEOMETRIC), 0, 0),
    (_blaschke_on(_GEOMETRIC, tolerances={"blaschke_norm_cap": 1.0}), 2, 2),
], ids=["default", "integer-cap", "raised-cap", "geometric", "lowered-cap"])
def test_verify_exit_two_comes_from_the_derived_norm_sum(tmp_path, cfg, built, verified):
    # the build flags the derived sum against its config's cap; verify exits 2 if it
    # passes over either that recorded cap or the audit's own
    assert main(["build", "--config", _write(tmp_path / "h.json", cfg), "--out", str(tmp_path)]) == built
    path = tmp_path / "halved.cert.json"
    assert read_certificate(path).hypothesis_unverified == (built == 2)
    assert main(["verify", str(path)]) == verified


@pytest.mark.parametrize("cfg, code", [
    (_entire_cfg(dim=24), 0),
    # halved weights: the norm sum is about 2^31 / 31, over the cap
    (dict(_halved_blaschke_cfg(), operator={
        "family": "forward-weighted-shift", "dim": 32,
        "weights": {"kind": "explicit", "params": {"values": [0.5] * 31}}}, m=3, k_max=2), 2),
], ids=["entire", "blaschke"])
def test_explicit_seed_builds_and_verifies(tmp_path, cfg, code):
    # two nonzero entries make the orbit dense: build and audit each factor it
    dim = cfg["operator"]["dim"]
    cfg = dict(cfg, seed_vector={"kind": "explicit", "values": [1.0, [0.0, 0.5]] + [0] * (dim - 2)},
               label="seeded")
    assert main(["build", "--config", _write(tmp_path / "s.json", cfg), "--out", str(tmp_path)]) == code
    assert main(["verify", str(tmp_path / "seeded.cert.json")]) == code


@pytest.mark.parametrize("command, cfg, message", [
    ("chain", {"operator": _entire_cfg(dim=8)["operator"], "depth": 2, "codim": 8},
     "codim must be below the operator dimension"),
    ("build", dict(_entire_cfg(dim=24), seed_vector={"kind": "basis", "index": 24}),
     "seed_vector basis index out of range"),
    ("build", dict(_entire_cfg(dim=24), seed_vector={"kind": "explicit"}),
     "explicit seed_vector requires 'values'"),
    ("build", dict(_entire_cfg(dim=24), seed_vector={"kind": "explicit", "values": [1, 0]}),
     "explicit seed vector needs 24 entries, got 2"),
    ("build", dict(_halved_blaschke_cfg(), k_max=0),
     "blaschke construction needs k_max >= 1 functionals"),
    ("build", dict(_halved_blaschke_cfg(), blaschke={"sequence": {"kind": "geometric", "ratio": 1.5}}),
     "geometric blaschke sequence needs ratio in (0, 1)"),
    ("build", dict(_halved_blaschke_cfg(), blaschke={"sequence": {"kind": "explicit", "values": [0.5]}}),
     "explicit blaschke sequence needs exactly m values"),
], ids=["codim", "basis-index", "explicit-no-values", "explicit-length", "blaschke-k_max",
        "geometric-ratio", "explicit-count"])
def test_config_rules_past_the_schema_are_one_line_errors(tmp_path, capsys, command, cfg, message):
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_that_is_not_json_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{", encoding="utf-8")
    assert main(["build", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not valid JSON") and err.count("\n") == 1


def test_non_integer_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--config", "c.json", "--seed", "abc"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "aihs build: error: argument --seed: invalid int value: 'abc'\n")


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
def test_orbit_vector_beyond_the_float_range_is_one_line(tmp_path, capsys):
    # ||e|| = sqrt(24) * 1e308: finite entries, a norm past the float range
    cfg = dict(_entire_cfg(dim=24), seed_vector={"kind": "explicit", "values": [1e308] * 24})
    assert main(["build", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error at stage 'orbit': orbit vector 0 has a norm beyond the float range\n")


@pytest.mark.parametrize("field, value", [("functionals", 5), ("lambdas", "x")])
def test_verify_malformed_certificate_is_a_one_line_error(tmp_path, capsys, field, value):
    cfg = _write(tmp_path / "run.json", _entire_cfg())
    main(["build", "--config", cfg, "--out", str(tmp_path)])
    path = tmp_path / "run.cert.json"
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse certificate")
    assert err.count("\n") == 1


def _built_certificate(tmp_path, cfg: dict) -> tuple[Path, dict]:
    """The certificate ``aihs build`` writes for ``cfg``, and its document."""
    main(["build", "--config", _write(tmp_path / "run.json", cfg), "--out", str(tmp_path)])
    path = tmp_path / f"{cfg['label']}.cert.json"
    return path, json.loads(path.read_text())


def _verify_error(capsys, path, doc, *flags) -> str:
    """The one stderr line of ``aihs verify`` on ``doc``, which must exit 1."""
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return err


_OVERFLOW = "geometric weights overflow: |ratio|**63 with |ratio| = 1e+300 leaves the float range"


_RATIO = "config invalid at operator/weights/params/ratio: "


@pytest.mark.parametrize("weight, message", [
    ("oops", _RATIO + "'oops' is not of type 'number', 'array'"),
    ([0.5, 0.0, 0.0], _RATIO + "[0.5, 0.0, 0.0] is too long"),
    (1e300, _OVERFLOW),
], ids=["string", "three-element-pair", "overflowing-ratio"])
def test_verify_bad_stored_weight_is_a_one_line_error(tmp_path, capsys, weight, message):
    # the config echo stores the weights, and verify checks it as it does a --config file
    path, doc = _built_certificate(tmp_path, _entire_cfg())
    doc["config_echo"]["config"]["operator"]["weights"]["params"]["ratio"] = weight
    assert _verify_error(capsys, path, doc) == f"error: {message}\n"


def _explicit_cfg():
    phases = [0.37 * (i + 1) for i in range(15)]  # no weight is 1, which True would be
    cfg = _entire_cfg(dim=16)
    cfg["operator"]["weights"] = {"kind": "explicit",
                                  "params": {"values": [[np.cos(p), np.sin(p)] for p in phases]}}
    cfg.update(construction="blaschke", m=2, k_max=1)
    return cfg


@pytest.mark.parametrize("index", [0, 7, 14], ids=["first", "middle", "last"])
@pytest.mark.parametrize("weight, message", [
    ([0.5, 0.0, 0.0], "[0.5, 0.0, 0.0] is too long"),
    ("oops", "'oops' is not of type 'number', 'array'"),
    (True, "True is not of type 'number', 'array'"),
], ids=["three-element-pair", "string", "bool"])
def test_verify_bad_explicit_weight_in_the_echo_is_a_one_line_error(tmp_path, capsys, index,
                                                                     weight, message):
    # the checker passes a list of pairs unwalked; any other entry sends it
    # down the list, which names that entry
    path, doc = _built_certificate(tmp_path, _explicit_cfg())
    assert main(["verify", str(path)]) == 0
    doc["config_echo"]["config"]["operator"]["weights"]["params"]["values"][index] = weight
    assert _verify_error(capsys, path, doc) == (
        f"error: config invalid at operator/weights/params/values/{index}: {message}\n")


def _overflowing(cfg: dict) -> dict:
    cfg["operator"]["weights"]["params"]["ratio"] = 1e300  # ratio**2 already overflows
    return cfg


def test_build_with_overflowing_weights_is_a_one_line_error(tmp_path, capsys):
    cfg = _write(tmp_path / "run.json", _overflowing(_entire_cfg()))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {_OVERFLOW}\n"
    assert not (tmp_path / "out").exists()


def test_chain_with_overflowing_weights_is_a_one_line_error(tmp_path, capsys):
    operator = _overflowing(_entire_cfg())["operator"]
    cfg = _write(tmp_path / "chain.json", {"operator": operator, "depth": 4, "label": "chain"})
    assert main(["chain", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {_OVERFLOW}\n"


def test_sweep_run_with_overflowing_weights_is_an_error_row(tmp_path):
    runs = [_overflowing(_entire_cfg(label="overflow")), _entire_cfg(label="fine")]
    cfg = _write(tmp_path / "sweep.json", {"runs": runs, "label": "over"})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    with (tmp_path / "over.sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == f"error: {_OVERFLOW}"
    assert rows[1]["status"] == "pass"


_HUGE_DENSE = {"family": "dense", "dim": 4, "matrix": {
    "entries": [[1e300 if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)]}}


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
@pytest.mark.parametrize("command, cfg, message", [
    ("chain", {"operator": _HUGE_DENSE, "depth": 3},
     "error: chain step to depth 2 left the float range"),
    ("chain", {"operator": {"family": "forward-weighted-shift", "dim": 8,
                            "weights": {"kind": "geometric", "params": {"ratio": 0.5}}},
               "depth": 3, "seed_vector": {"kind": "explicit", "values": [1e160] + [0.0] * 7}},
     "error: chain step to depth 1 left the float range"),
    ("build", dict(_entire_cfg(), operator=_HUGE_DENSE, m=1, k_max=0,
                   seed_vector={"kind": "explicit", "values": [1.0] * 4}),
     "error at stage 'orbit': orbit supports only 2 vectors"),
    ("build", dict(_entire_cfg(), m=1, k_max=0, operator={
        "family": "forward-weighted-shift", "dim": 6,
        "weights": {"kind": "explicit", "params": {"values": [1e200] * 5}}}),
     "error at stage 'orbit': orbit supports only 2 vectors"),
], ids=["chain-dense-entry", "chain-seed", "build-dense-entry", "build-weights"])
def test_huge_finite_input_is_one_line_without_a_warning(tmp_path, capsys, command, cfg,
                                                          message):
    path = _write(tmp_path / "huge.json", dict(cfg, label="huge"))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _short_orbit_blaschke_cfg():
    # the orbit of e_6 at dim 8 is e_6, e_7: L = 2, and f_j reads b_{n-j} for n < L
    return {
        "schema": "aihs-run/1",
        "operator": {"family": "forward-weighted-shift", "dim": 8,
                     "weights": {"kind": "geometric", "params": {"ratio": 1.0}}},
        "construction": "blaschke",
        "m": 2,
        "k_max": 5,
        "seed_vector": {"kind": "basis", "index": 6},
        "label": "zc",
    }


def test_blaschke_build_needs_an_orbit_vector_per_functional(tmp_path, capsys):
    cfg = _write(tmp_path / "zc.json", _short_orbit_blaschke_cfg())
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error at stage 'orbit': orbit supports only 2 vectors; need m_max + 1 = 6\n"
    assert not (tmp_path / "out").exists()


def test_verify_fails_a_certificate_with_a_zero_dual_vector(tmp_path, capsys):
    # the certificate the build wrote before it needed L >= m_max + 1: f_2..f_5
    # read only zero orbit values, so their dual vectors are zero, and the
    # stored functional independence read 1.0 with those columns dropped
    cfg = _short_orbit_blaschke_cfg()
    op = operator_from_config(cfg["operator"])
    e = config.seed_vector_from_config(cfg["seed_vector"], op.dim)
    orbit = compute_orbit(op, e, op.dim)
    tol = config.Tolerances()
    lambdas = blaschke_sequence("inverse-square", cfg["m"])
    hypothesis = halfspace._blaschke_hypothesis(op, orbit, tol.blaschke_norm_cap)
    law = halfspace.BlaschkeLaw(lambdas, orbit.length - 1)
    cert = halfspace._certify(op, e, orbit, lambdas, cfg["m"], law, cfg["k_max"], tol,
                              hypothesis=hypothesis)
    name = "functional_independence_sigma_min"
    assert sum(not np.any(dual) for dual in cert.duals.T) == 4
    assert cert.metrics[name] == 0.0 and not cert.checks[name]["passed"]
    stored = dataclasses.replace(
        cert, metrics={**cert.metrics, name: 1.0},
        checks={**cert.checks, name: {**cert.checks[name], "value": 1.0, "passed": True}},
        config_echo={"config": cfg, "seed": 0, "label": cfg["label"]})
    path = tmp_path / "zc.cert.json"
    ser.write_certificate(path, stored)
    assert main(["verify", str(path)]) == 1
    assert f"audit FAIL: {name}; {name}:threshold" in capsys.readouterr().out


def _drop_last_weight(operator):
    values = [[w.real, w.imag] for w in geometric_weights(operator["dim"], 0.9)]
    operator["weights"] = {"kind": "explicit", "params": {"values": values[:-1]}}


@pytest.mark.parametrize("tamper, message", [
    (_drop_last_weight, "forward-weighted-shift at dim 64 needs 63 weights, got 62"),
    (lambda operator: operator.pop("weights"),
     "forward-weighted-shift requires a 'weights' entry"),
    (lambda operator: operator.update(weights="oops"),
     "config invalid at operator/weights: 'oops' is not of type 'object'"),
], ids=["wrong-length", "missing", "not-an-object"])
def test_verify_stored_weights_of_the_wrong_shape_are_a_one_line_error(tmp_path, capsys, tamper,
                                                                       message):
    path, doc = _built_certificate(tmp_path, _entire_cfg())
    tamper(doc["config_echo"]["config"]["operator"])
    assert _verify_error(capsys, path, doc) == f"error: {message}\n"


def _dense_cfg(matrix: dict, dim: int = 16) -> dict:
    return {"schema": "aihs-run/1", "operator": {"family": "dense", "dim": dim, "matrix": matrix},
            "construction": "entire", "m": 2, "k_max": 1, "seed": 3, "label": "dense"}


def _shift_matrix(dim: int, ratio: float) -> dict:
    """A forward geometric shift written out as an explicit dense matrix."""
    return {"kind": "explicit", "entries": [[ratio ** (j + 1) if i == j + 1 else 0.0
                                             for j in range(dim)] for i in range(dim)]}


def _write_inf(monkeypatch, path, cfg) -> str:
    """``cfg`` written with each "@" as the JSON literal 1e400, which the CLI then reads as inf."""
    path.write_text(json.dumps(cfg).replace('"@"', "1e400"), encoding="utf-8")
    _read_configs_as_python_json(monkeypatch)
    return str(path)


def _inf_matrix(dim: int) -> dict:
    return {"entries": [["@" if i == j == 0 else float(i == j) for j in range(dim)]
                        for i in range(dim)]}


_INF_ENTRY = "matrix entry [0, 0] is (inf+0j); all entries must be finite"
# (command, config, the one error line); each input parses with an inf in it
_NON_FINITE = {
    "build-dense-entry": ("build", _dense_cfg(_inf_matrix(4), dim=4), _INF_ENTRY),
    "build-gaussian-scale": ("build", _dense_cfg({"kind": "random-gaussian", "scale": "@"}, dim=8),
                             "matrix entry [0, 0] is (inf-infj); all entries must be finite"),
    "chain-dense-entry": ("chain", {"schema": "aihs-chain/1", "depth": 2, "label": "t",
                                    "operator": _dense_cfg(_inf_matrix(4), dim=4)["operator"]},
                          _INF_ENTRY),
    "chain-seed-vector": ("chain", {"operator": _entire_cfg(dim=8)["operator"], "depth": 2,
                                    "seed_vector": {"kind": "explicit", "values": ["@"] + [0] * 7},
                                    "label": "s"},
                          "z1 must be a finite nonzero vector of the operator dimension"),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE))
def test_non_finite_input_is_a_one_line_error(tmp_path, capsys, monkeypatch, name):
    command, cfg, message = _NON_FINITE[name]
    out = tmp_path / "out"
    path = _write_inf(monkeypatch, tmp_path / "c.json", cfg)
    assert main([command, "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_sweep_run_with_a_non_finite_matrix_entry_is_an_error_row(tmp_path, monkeypatch):
    runs = [_dense_cfg(_inf_matrix(4), dim=4), _entire_cfg(label="fine")]
    cfg = _write_inf(monkeypatch, tmp_path / "sweep.json", {"runs": runs, "label": "inf"})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    with (tmp_path / "inf.sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == [f"error: {_INF_ENTRY}", "pass"]


def test_verify_config_with_a_non_finite_matrix_entry_is_a_one_line_error(tmp_path, capsys,
                                                                          monkeypatch):
    path, doc = _built_certificate(tmp_path, _dense_cfg({"kind": "random-gaussian"}, dim=8))
    other = _write_inf(monkeypatch, tmp_path / "other.json", _dense_cfg(_inf_matrix(8), dim=8))
    assert _verify_error(capsys, path, doc, "--config", other) == f"error: {_INF_ENTRY}\n"


def test_verify_holds_the_derived_spectral_radius_to_its_own_slack(tmp_path, capsys):
    # a build under a slack of 5 admits this radius above 1; the audit's default slack does not
    cfg = dict(_dense_cfg({"kind": "random-gaussian", "scale": 2.0}, dim=8),
               construction="blaschke", tolerances={"spectral_radius_slack": 5.0})
    path, _ = _built_certificate(tmp_path, cfg)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "hypothesis.spectral_radius_estimate:threshold" in capsys.readouterr().out


def _del_echo_dim(doc):
    del doc["config_echo"]["config"]["operator"]["dim"]


def _string_echo(doc):
    doc["config_echo"] = {"config": "oops"}


def _negative_echo_seed(doc):
    doc["config_echo"]["seed"] = -1


@pytest.mark.parametrize("tamper, message", [
    (_del_echo_dim, "config invalid at operator: 'dim' is a required property"),
    (_string_echo, "config invalid at <root>: 'oops' is not of type 'object'"),
    (_negative_echo_seed, "config invalid at seed: -1 is less than the minimum of 0"),
    (lambda doc: doc.update(config_echo={}),
     "the certificate has no config echo; pass --config to rebuild the operator"),
], ids=["no-dim", "string-config", "negative-seed", "no-echo"])
@pytest.mark.parametrize("family", ["shift", "dense"])
def test_verify_malformed_config_echo_is_a_one_line_error(tmp_path, capsys, family, tamper,
                                                          message):
    cfg = _entire_cfg() if family == "shift" else _dense_cfg(_shift_matrix(16, 0.9))
    path, doc = _built_certificate(tmp_path, cfg)
    assert main(["verify", str(path)]) == 0
    tamper(doc)
    assert _verify_error(capsys, path, doc) == f"error: {message}\n"


def test_verify_takes_the_config_of_a_certificate_whose_echo_no_longer_checks(tmp_path, capsys):
    # a certificate written while blaschke.sequence.count was a config key
    cfg = dict(_halved_blaschke_cfg(), blaschke={"sequence": {"kind": "inverse-square"}})
    path, doc = _built_certificate(tmp_path, cfg)
    doc["config_echo"]["config"]["blaschke"]["sequence"]["count"] = cfg["m"]
    assert "('count' was unexpected)" in _verify_error(capsys, path, doc)
    assert main(["verify", str(path), "--config", _write(tmp_path / "now.json", cfg)]) == 2


@pytest.mark.parametrize("construction", ["entire", "blaschke"])
def test_verify_a_certificate_with_the_other_constructions_law(tmp_path, capsys, construction):
    entire, _ = _built_certificate(tmp_path, _entire_cfg(label="entire"))
    blaschke, _ = _built_certificate(tmp_path, _halved_blaschke_cfg())
    path, other = (entire, blaschke) if construction == "entire" else (blaschke, entire)
    doc = json.loads(path.read_text())
    doc["law"] = json.loads(other.read_text())["law"]
    err = _verify_error(capsys, path, doc)
    missing = "coefficients" if construction == "entire" else "zeros"
    assert err == (f"error: cannot parse certificate {path}: certificate invalid at law: "
                   f"{missing!r} is a required property\n")


def _mismatch(source) -> str:
    return (f"error: the operator rebuilt from {source} does not match "
            "the stored family and digest\n")


def test_verify_cross_checks_the_shift_operator_of_a_config(tmp_path, capsys):
    # the benchmark's seed-0 entire-n1024 input; its orbit dies by row 91, so
    # weights past row 300 never reach a certified value
    cfg = _entire_cfg(dim=1024, m=8, k_max=5, label="entire-n1024")
    cfg["operator"]["weights"]["params"]["ratio"] = 0.9175
    path, doc = _built_certificate(tmp_path, cfg)
    values = [[w.real, w.imag] for w in geometric_weights(1024, 0.9175)[:300]]
    cfg["operator"]["weights"] = {"kind": "explicit",
                                  "params": {"values": values + [0.5] * 723}}
    other = _write(tmp_path / "other.json", cfg)
    assert main(["verify", str(path)]) == 0
    assert _verify_error(capsys, path, doc, "--config", other) == _mismatch(other)


def test_verify_cross_checks_the_seed_of_a_dense_operator(tmp_path, capsys):
    cfg = _dense_cfg({"kind": "random-gaussian", "scale": 0.5}, dim=8)
    path, doc = _built_certificate(tmp_path, cfg)
    same = _write(tmp_path / "same.json", cfg)
    capsys.readouterr()
    main(["verify", str(path), "--config", same])
    assert capsys.readouterr().err == ""  # the audit runs: the operator is the certified one
    cfg["seed"] = 4
    other = _write(tmp_path / "other.json", cfg)
    assert _verify_error(capsys, path, doc, "--config", other) == _mismatch(other)
    # --seed overrides the echo's seed as it does the config's
    assert _verify_error(capsys, path, doc, "--seed", "4") == _mismatch("the config echo")


@pytest.mark.parametrize("flags, seed", [(["--seed", "7"], 7), ([], 3)], ids=["flag", "config"])
def test_build_chain_and_verify_draw_the_operator_from_one_seed(tmp_path, capsys, monkeypatch,
                                                                flags, seed):
    # --seed, else the config's seed: each command hands the operator a generator seeded so
    states = []

    def spy(cfg, rng=None):
        states.append(rng.bit_generator.state)
        return operator_from_config(cfg, rng)

    monkeypatch.setattr(cli, "operator_from_config", spy)
    run = dict(_dense_cfg({"kind": "random-gaussian", "scale": 0.5}, dim=8), label="run")
    chain = {"schema": "aihs-chain/1", "operator": run["operator"], "depth": 2, "seed": 3,
             "label": "chain"}
    run_path, chain_path = _write(tmp_path / "run.json", run), _write(tmp_path / "chain.json", chain)
    out = ["--out", str(tmp_path)]
    main(["build", "--config", run_path, *out, *flags])  # the random matrix fails a check
    assert main(["chain", "--config", chain_path, *out, *flags]) == 0
    capsys.readouterr()
    main(["verify", str(tmp_path / "run.cert.json"), "--config", run_path, *flags])
    assert capsys.readouterr().err == ""  # the audit runs: the operator is the certified one
    assert states == [np.random.default_rng(seed).bit_generator.state] * 3


def test_tiny_tol_zero_fails_the_zeros_stage(tmp_path, capsys):
    # polished zero residuals sit far below the 1e-10 default, not below 1e-300
    cfg = _write(tmp_path / "run.json", _entire_cfg())
    assert main(["build", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["build", "--config", cfg, "--out", str(tmp_path), "--tol-zero", "1e-300"]) == 1
    assert "error at stage 'zeros'" in capsys.readouterr().err


def _geometric_run(ratio, dim, m, k_max, **tolerances):
    cfg = _entire_cfg(dim=dim, m=m, k_max=k_max)
    cfg["operator"]["weights"]["params"]["ratio"] = ratio
    return dict(cfg, tolerances=tolerances) if tolerances else cfg


@pytest.mark.parametrize("cfg, message", [
    # ratio 0.1 ends the orbit at 17 vectors: degree min(16 // 2, 16, 64) = 8 < m
    (_geometric_run(0.1, 64, 9, 0), "error at stage 'zeros': degree 8 yields fewer than m = 9 zeros"),
    (_geometric_run(0.9, 256, 8, 5, noise_guard_fraction=1e-300),
     "error at stage 'selection': no zero survives the conditioning and noise guards; "
     "raise the truncation or lower k_max"),
    (_geometric_run(0.9, 256, 8, 5, resolvent_defect_tol=1e-300),
     "error at stage 'resolvent': every resolvent solve failed the defect check"),
], ids=["zeros", "selection", "resolvent"])
def test_a_stage_with_nothing_left_is_a_one_line_error(tmp_path, capsys, cfg, message):
    path = _write(tmp_path / "run.json", cfg)
    assert main(["build", "--config", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_verify_of_an_infinite_lambda_is_an_audit_error(tmp_path, capsys):
    path, doc = _built_certificate(tmp_path, _entire_cfg())
    doc["lambdas"]["data"][0] = ["inf", "0x0.0p+0"]
    assert _verify_error(capsys, path, doc) == (
        "error at stage 'audit': stored lambda (inf+0j) fails its resolvent-defect: "
        "resolvent solve failed at lambda = (inf+0j): z - T is singular at z = 0\n")


def test_out_naming_a_file_is_a_one_line_io_error(tmp_path, capsys):
    cfg = _write(tmp_path / "run.json", _entire_cfg())
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main(["build", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"io error: [Errno 17] File exists: {str(out)!r}\n"
    assert out.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "taken"]


def test_factorial_decay_weights_build_and_verify(tmp_path, capsys):
    cfg = _entire_cfg(dim=64, m=4, k_max=2)
    cfg["operator"]["weights"] = {"kind": "factorial-decay"}
    assert main(["build", "--config", _write(tmp_path / "run.json", cfg),
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith("\nPASS\n")
    assert main(["verify", str(tmp_path / "run.cert.json")]) == 0


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_chain_identity_terminates(tmp_path):
    cfg = _write(
        tmp_path / "chain.json",
        {
            "schema": "aihs-chain/1",
            "operator": {
                "family": "dense",
                "dim": 6,
                "matrix": {
                    "kind": "explicit",
                    "entries": [
                        [1.0 if i == j else 0.0 for j in range(6)] for i in range(6)
                    ],
                },
            },
            "depth": 4,
            "label": "ident",
        },
    )
    assert main(["chain", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "ident.transcript.json").read_text())
    assert doc["outcome"]["branch"] == "invariant-subspace"
    assert doc["outcome"]["verified"] is True


def test_chain_transcript_records_properties(tmp_path):
    cfg = _write(
        tmp_path / "chain.json",
        {
            "schema": "aihs-chain/1",
            "operator": {
                "family": "donoghue-backward-shift",
                "dim": 32,
                "weights": {"kind": "geometric", "params": {"ratio": 0.5}},
            },
            "depth": 6,
            "witness": True,
            "codim": 2,
            "label": "chain",
        },
    )
    assert main(["chain", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "chain.transcript.json").read_text())
    assert doc["outcome"] == {"branch": "deep-chain", "depth_reached": 6}
    assert [s["depth"] for s in doc["steps"]] == list(range(1, 7))
    for step in doc["steps"][1:]:
        props = step["properties"]
        for key in ("z_in_previous", "recurrence_norm", "adjoint_map", "biorthogonality_off"):
            assert float.fromhex(props[key]) < 1e-8
        assert props["codim_exact"] is True
    assert doc["witness"]["ranks"] == [1, 2, 3]
    assert doc["codim"]["n"] == 2 and doc["codim"]["dim_y"] == 30


@pytest.mark.parametrize(
    "operator, seed_index, branch",
    [
        ({"family": "donoghue-backward-shift", "dim": 48,
          "weights": {"kind": "geometric", "params": {"ratio": 0.5}}}, 0, "deep-chain"),
        ({"family": "forward-weighted-shift", "dim": 16,
          "weights": {"kind": "explicit", "params": {"values": [1.0] * 15}}}, 0,
         "invariant-subspace"),
    ],
)
def test_chain_transcript_folds_each_level_once(tmp_path, monkeypatch, operator, seed_index, branch):
    # the transcript at depth n is the worst value over levels 1..n; the
    # walk derives each level's report once and grows Q_n by one column per
    # level, and the transcript writes the walk's own reports
    depth = 10
    cfg = _write(tmp_path / "chain.json", {
        "schema": "aihs-chain/1", "operator": operator, "depth": depth,
        "seed_vector": {"kind": "basis", "index": seed_index}, "label": "chain",
    })
    calls = {"_derive_level": 0, "extend_basis": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(chains, name, counted(name, getattr(chains, name)))
    assert main(["chain", "--config", cfg, "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    doc = ser.decode_value(ser.read_json(tmp_path / "chain.transcript.json"))
    assert doc["outcome"]["branch"] == branch
    reached = doc["outcome"]["depth_reached"]
    assert calls == {"_derive_level": reached, "extend_basis": reached}
    assert reached <= depth

    op = operator_from_config(operator)
    state = init_chain(op, z1=np.eye(op.dim)[seed_index])
    folded = [verify_chain(op, state)]  # the full fold, level by level
    for _ in range(reached - 1):
        state = extend_chain(op, state)
        folded.append(verify_chain(op, state))
    assert [step["properties"] for step in doc["steps"]] == folded


@pytest.mark.parametrize(
    "operator, depth, extended_at, outcome",
    [
        ({"family": "donoghue-backward-shift", "dim": 32,
          "weights": {"kind": "geometric", "params": {"ratio": 0.5}}}, 7, [1, 2, 3, 4, 5, 6],
         {"branch": "deep-chain", "depth_reached": 7}),
        ({"family": "forward-weighted-shift", "dim": 16,
          "weights": {"kind": "explicit", "params": {"values": [1.0] * 15}}}, 5, [1],
         {"branch": "invariant-subspace", "depth_reached": 1}),
    ],
    ids=["deep", "terminated"],
)
def test_chain_with_witness_walks_its_chain_once(tmp_path, monkeypatch, operator, depth,
                                                 extended_at, outcome):
    # the witness reads the chain the transcript was written from
    real = chains.extend_chain
    extended = []

    def counted(op, state):
        extended.append(state.depth)
        return real(op, state)

    for module in (chains, cli):  # wherever the name is looked up
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
    cfg = _write(tmp_path / "chain.json",
                 {"operator": operator, "depth": depth, "witness": True, "label": "chain"})
    assert main(["chain", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert extended == extended_at
    doc = ser.decode_value(ser.read_json(tmp_path / "chain.transcript.json"))
    assert {key: doc["outcome"][key] for key in outcome} == outcome
    if outcome["branch"] == "deep-chain":
        assert doc["witness"]["ranks"] == [1, 2, 3]
    else:
        assert doc["witness"] == {"branch": "invariant-subspace", "depth_reached": 1,
                                  "invariance_residual": doc["outcome"]["invariance_residual"]}


_DONOGHUE = {"family": "donoghue-backward-shift", "dim": 128,
             "weights": {"kind": "geometric", "params": {"ratio": 0.5}}}
_UNIT_SHIFT = {"family": "forward-weighted-shift", "dim": 16,
               "weights": {"kind": "explicit", "params": {"values": [1.0] * 15}}}


@pytest.mark.parametrize("operator, seed_vector, codim, extensions", [
    (_DONOGHUE, None, 8, 9),  # the walk to depth 10 already holds the depth-8 chain
    (_DONOGHUE, {"kind": "basis", "index": 0}, 12, 11),  # two steps past where the walk stopped
    (_DONOGHUE, {"kind": "basis", "index": 3}, 8, 16),  # codim's chain starts at e_1, not here
    # the walk ends at depth 1; only the recursion on the invariant Y_1 extends again
    (_UNIT_SHIFT, None, 3, 2),
], ids=["e1", "e1-deeper", "index-3", "terminated"])
def test_chain_with_codim_continues_the_walk_from_e1(tmp_path, monkeypatch, operator,
                                                     seed_vector, codim, extensions):
    real = chains.extend_chain
    calls = []

    def counted(op, state):
        calls.append(state.depth)
        return real(op, state)

    monkeypatch.setattr(chains, "extend_chain", counted)
    cfg = {"operator": operator, "depth": 10, "codim": codim, "label": "chain"}
    if seed_vector is not None:
        cfg["seed_vector"] = seed_vector
    assert main(["chain", "--config", _write(tmp_path / "chain.json", cfg),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == extensions
    monkeypatch.undo()
    doc = ser.decode_value(ser.read_json(tmp_path / "chain.transcript.json"))
    basis_y, _, residual = chains.codim_n_subspace(operator_from_config(operator), codim)
    assert doc["codim"] == {"n": codim, "dim_y": basis_y.shape[1], "residual": residual}


def test_sweep_three_dims_three_rows(tmp_path):
    runs = [_entire_cfg(dim=n, label=f"shift-{n}") for n in (64, 128, 256)]
    cfg = _write(
        tmp_path / "sweep.json",
        {"schema": "aihs-sweep/1", "runs": runs, "label": "sweep"},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    with (tmp_path / "sweep.sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [r["dim"] for r in rows] == ["64", "128", "256"]
    assert all(r["status"] == "pass" for r in rows)
    assert (tmp_path / "shift-128.cert.json").is_file()


def test_sweep_continues_past_failure(tmp_path):
    broken = _entire_cfg(label="broken")
    broken["operator"] = {
        "family": "dense",
        "dim": 8,
        "matrix": {
            "kind": "explicit",
            "entries": [[1.0 if i == j else 0.0 for j in range(8)] for i in range(8)],
        },
    }
    runs = [broken, _entire_cfg(label="fine")]
    cfg = _write(tmp_path / "sweep.json", {"runs": runs, "label": "mixed"})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    with (tmp_path / "mixed.sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["status"].startswith("error:")
    assert rows[1]["status"] == "pass"
    assert set(rows[0]) == set(SWEEP_CSV_COLUMNS)


def test_sweep_checks_every_run_before_writing(tmp_path, capsys):
    # a dense run without its matrix passes the schema but not the semantic check
    malformed = _entire_cfg(label="no-matrix")
    malformed["operator"] = {"family": "dense", "dim": 8}
    cfg = _write(tmp_path / "sweep.json", {"runs": [_entire_cfg(label="fine"), malformed]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'matrix'" in err
    assert not out.exists()


def _with_weights(weights: dict) -> dict:
    cfg = _entire_cfg(label="bad")
    cfg["operator"]["weights"] = weights
    return cfg


# operator blocks that pass the schema but cannot build an operator
_MALFORMED_OPERATORS = {
    "explicit-weights-without-values": (_with_weights({"kind": "explicit"}),
                                        "explicit weights require params.values"),
    "geometric-weights-without-ratio": (_with_weights({"kind": "geometric", "params": {}}),
                                        "geometric weights require params.ratio"),
    "explicit-matrix-without-entries": (_dense_cfg({"kind": "explicit"}, dim=2),
                                        "an explicit matrix requires 'entries'"),
    "ragged-matrix-rows": (_dense_cfg({"entries": [[1.0, 0.0], [0.5]]}, dim=2),
                           "the rows of operator/matrix/entries differ in length"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_OPERATORS))
def test_malformed_operator_block_is_a_one_line_error(tmp_path, capsys, name):
    cfg, message = _MALFORMED_OPERATORS[name]
    out = tmp_path / "out"
    assert main(["build", "--config", _write(tmp_path / "bad.json", cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(_MALFORMED_OPERATORS))
def test_sweep_with_a_malformed_operator_block_writes_nothing(tmp_path, capsys, name):
    # the earlier run would have written its certificate before the crash
    cfg, message = _MALFORMED_OPERATORS[name]
    sweep = _write(tmp_path / "sweep.json", {"runs": [_entire_cfg(label="fine"), cfg]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", sweep, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _entire_with_blaschke() -> dict:
    return dict(_entire_cfg(label="bad"), blaschke={"sequence": {"kind": "geometric", "ratio": 2}})


@pytest.mark.parametrize("command", ["build", "sweep"])
def test_blaschke_block_on_an_entire_run_is_a_one_line_error(tmp_path, capsys, command):
    cfg = _entire_with_blaschke()
    if command == "sweep":
        cfg = {"runs": [_entire_cfg(label="fine"), cfg]}
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: config key blaschke has no effect on "
                                       "entire construction\n")
    assert not out.exists()


@pytest.mark.parametrize("labels, message", [
    (["x/y", "fine", "x-y"], "sweep runs 0 and 2 would both write x-y.cert.json"),
    (["fine", "run-002", None], "sweep runs 1 and 2 would both write run-002.cert.json"),
    ([None, "", "run.000"], "sweep runs 0 and 2 would both write run-000.cert.json"),
], ids=["sanitised-labels", "label-and-fallback", "fallbacks"])
def test_sweep_runs_that_would_write_one_certificate_are_an_error(tmp_path, capsys, labels,
                                                                  message):
    runs = [_entire_cfg(label=label) for label in labels]
    for run in runs:
        if run["label"] is None:
            del run["label"]
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path / "sweep.json", {"runs": runs}),
                 "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def _blaschke_sequence_cfg(sequence: dict) -> dict:
    return dict(_halved_blaschke_cfg(), m=2, blaschke={"sequence": sequence})


def _seed_vector_cfg(seed_vector: dict) -> dict:
    return dict(_entire_cfg(), seed_vector=seed_vector)


_PAIRS = [[1.0, 0.0]] * 64
# (config, the key it carries that its family or kind never reads, what reads none)
_UNREAD_KEYS = [
    (dict(_entire_cfg(), operator={**_entire_cfg()["operator"], "matrix": {"scale": 1.0}}),
     "operator/matrix", "forward-weighted-shift operator"),
    (dict(_dense_cfg({"kind": "random-gaussian"}),
          operator={"family": "dense", "dim": 16, "matrix": {"kind": "random-gaussian"},
                    "weights": {"kind": "factorial-decay"}}),
     "operator/weights", "dense operator"),
    (_with_weights({"kind": "explicit", "params": {"values": [0.5] * 63, "ratio": 0.5}}),
     "operator/weights/params/ratio", "explicit weights"),
    (_with_weights({"kind": "geometric", "params": {"ratio": 0.9, "values": [0.5]}}),
     "operator/weights/params/values", "geometric weights"),
    (_with_weights({"kind": "factorial-decay", "params": {}}),
     "operator/weights/params", "factorial-decay weights"),
    (_dense_cfg({"kind": "random-gaussian", "entries": [[1.0]]}),
     "operator/matrix/entries", "random-gaussian matrix"),
    (_dense_cfg(dict(_shift_matrix(16, 0.5), scale=2.0)),
     "operator/matrix/scale", "explicit matrix"),
    (_seed_vector_cfg({"kind": "basis", "index": 1, "values": _PAIRS}),
     "seed_vector/values", "basis seed_vector"),
    (_seed_vector_cfg({"kind": "explicit", "index": 1, "values": _PAIRS}),
     "seed_vector/index", "explicit seed_vector"),
    (_blaschke_sequence_cfg({"kind": "inverse-square", "ratio": 0.5}),
     "blaschke/sequence/ratio", "inverse-square sequence"),
    (_blaschke_sequence_cfg({"kind": "geometric", "ratio": 0.5, "values": [0.5, 0.25]}),
     "blaschke/sequence/values", "geometric sequence"),
    (_blaschke_sequence_cfg({"kind": "explicit", "ratio": 0.5, "values": [0.5, 0.25]}),
     "blaschke/sequence/ratio", "explicit sequence"),
    (_entire_with_blaschke(), "blaschke", "entire construction"),
]


@pytest.mark.parametrize("cfg, key, what", _UNREAD_KEYS, ids=[case[1] + "-" + case[2].split()[0]
                                                              for case in _UNREAD_KEYS])
def test_a_key_the_config_never_reads_is_rejected(cfg, key, what):
    with pytest.raises(ArgumentError) as got:
        config.validate_config(cfg, "build")
    assert str(got.value) == f"config key {key} has no effect on {what}"
    # without that key the config is valid
    block, name = cfg, key.split("/")
    for part in name[:-1]:
        block = block[part]
    del block[name[-1]]
    config.validate_config(cfg, "build")


def _run_block(*path) -> dict:
    schema = config.RUN_SCHEMA
    for key in path:
        schema = schema["properties"][key]
    return schema


@pytest.mark.parametrize("kinds, path", [
    (config._WEIGHT_KINDS, ("operator", "weights")),
    (config._MATRIX_KINDS, ("operator", "matrix")),
    (config._SEED_VECTOR_KINDS, ("seed_vector",)),
    (config._SEQUENCE_KINDS, ("blaschke", "sequence")),
], ids=["weights", "matrix", "seed_vector", "sequence"])
def test_each_kind_table_matches_its_schema_block(kinds, path):
    # no schema key goes unread by every kind, and no kind reads a key the schema rejects
    block = _run_block(*path)
    assert block["properties"]["kind"] == {"enum": list(kinds)}
    keys = {"kind"}.union(*kinds.values())
    if "params" in block["properties"]:  # a weight kind's keys sit in the weights' params
        assert set(block["properties"]) == {"kind", "params"}
        block, keys = block["properties"]["params"], keys - {"kind"}
    assert set(block["properties"]) == keys


def test_sweep_walks_each_run_schema_once(tmp_path, monkeypatch):
    checked = []
    check_document = config.check_document
    monkeypatch.setattr(config, "check_document",
                        lambda *args: checked.append(args[0]) or check_document(*args))
    runs = [_entire_cfg(label=f"run-{i}") for i in range(3)]
    sweep = _write(tmp_path / "sweep.json", {"runs": runs})
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path)]) == 0
    assert checked == [config.SWEEP_SCHEMA]


def test_blaschke_sequence_count_is_no_config_key():
    cfg = _blaschke_sequence_cfg({"kind": "inverse-square", "count": 2})
    with pytest.raises(ArgumentError) as got:
        config.validate_config(cfg, "build")
    assert "('count' was unexpected)" in str(got.value)


@pytest.mark.parametrize("command", ["build", "chain", "sweep", "verify"])
def test_negative_seed_is_a_usage_error(capsys, command):
    # numpy's generators take only seeds >= 0; before, -1 raised a traceback
    target = ["x.cert.json"] if command == "verify" else ["--config", "c.json"]
    with pytest.raises(SystemExit) as exc:
        main([command, *target, "--seed", "-1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: aihs {command}")
    assert err.endswith(f"aihs {command}: error: argument --seed: must be >= 0, got -1\n")


def test_sweep_run_with_an_infinite_tolerance_is_an_error_row(tmp_path, monkeypatch):
    _read_configs_as_python_json(monkeypatch)
    bad = _entire_cfg(label="inf-tol")
    bad["tolerances"] = {"tol_ai": "@"}
    path = tmp_path / "sweep.json"
    text = json.dumps({"runs": [bad, _entire_cfg(label="fine")], "label": "tol"})
    path.write_text(text.replace('"@"', "1e999"), encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 1
    with (tmp_path / "tol.sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"].startswith("error: tolerance tol_ai must be a finite number > 0")
    assert rows[1]["status"] == "pass"


def test_probe_dense_table(tmp_path):
    cfg = _write(
        tmp_path / "probe.json",
        {"schema": "aihs-probe/1", "dim": 64, "k_max": 2, "n_max": 12, "label": "probe"},
    )
    assert main(["probe-dense", "--config", cfg, "--out", str(tmp_path)]) == 0
    with (tmp_path / "probe.probe.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    assert list(rows[0]) == list(PROBE_CSV_COLUMNS)
    for k in ("1", "2"):
        errs = [float(r["error"]) for r in rows if r["k"] == k]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        diffs = [float(r["diff"]) for r in rows if r["k"] == k]
        assert max(diffs) < 1e-12


# acceptance criterion 8's table, and the largest dim allowed
@pytest.mark.parametrize("dim, k_max, n_max", [(64, 1, 12), (171, 3, 20)])
def test_probe_dense_table_keeps_the_shift_matrix_bytes(tmp_path, dim, k_max, n_max):
    # the shift by slicing against B as a dense matrix
    shift = np.eye(dim, k=1)
    x = np.array([1.0 / math.factorial(j) for j in range(dim)])
    errors = np.empty((k_max, n_max))
    for n in range(1, n_max + 1):
        x = shift @ x
        for k in range(1, k_max + 1):
            z = x.copy()
            z[:k - 1] = 0.0
            z *= float(math.factorial(n + k - 1))
            z[k - 1] -= 1.0
            errors[k - 1, n - 1] = float(np.sum(np.abs(z)))
    ser.write_csv(tmp_path / "want.csv", PROBE_CSV_COLUMNS,
                  ser.probe_rows(errors, lambda k, n: probe_tail_oracle(k, n)))
    cfg = {"schema": "aihs-probe/1", "dim": dim, "k_max": k_max, "n_max": n_max, "label": "p"}
    assert main(["probe-dense", "--config", _write(tmp_path / "p.json", cfg),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "p.probe.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_probe_dense_past_dim_171_is_a_one_line_error(tmp_path, capsys):
    # 1/171! is past the float range
    cfg = {"schema": "aihs-probe/1", "dim": 172, "k_max": 1, "n_max": 3, "label": "p"}
    out = tmp_path / "out"
    assert main(["probe-dense", "--config", _write(tmp_path / "p.json", cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: factorial orbit entry 1/171! leaves the float range; dim must be <= 171\n")
    assert not out.exists()


def test_seed_flag_reproduces_dense_chain(tmp_path):
    cfg = _write(
        tmp_path / "chain.json",
        {
            "operator": {
                "family": "dense",
                "dim": 24,
                "matrix": {"kind": "random-gaussian", "scale": 1.0},
            },
            "depth": 5,
            "label": "rng",
        },
    )
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["chain", "--config", cfg, "--out", str(out1), "--seed", "11"]) == 0
    assert main(["chain", "--config", cfg, "--out", str(out2), "--seed", "11"]) == 0
    assert main(["chain", "--config", cfg, "--out", str(out3), "--seed", "12"]) == 0
    t1 = (out1 / "rng.transcript.json").read_bytes()
    assert t1 == (out2 / "rng.transcript.json").read_bytes()
    assert t1 != (out3 / "rng.transcript.json").read_bytes()


def test_bad_log_level_is_harmless(tmp_path, monkeypatch):
    monkeypatch.setenv("AIHS_LOG", "NOT-A-LEVEL")
    cfg = _write(tmp_path / "probe.json", {"dim": 32, "k_max": 1, "label": "p"})
    assert main(["probe-dense", "--config", cfg, "--out", str(tmp_path)]) == 0


def _readme_synopsis_flags():
    """{subcommand: its --flags} from the synopsis block of the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    flags, name = {}, None
    for line in block.splitlines():
        if line.startswith("aihs "):
            name = line.split()[1]
            flags[name] = set()
        if name:
            flags[name].update(re.findall(r"--[a-z-]+", line))
    return flags


def test_each_subcommand_takes_the_flags_of_its_readme_synopsis():
    (commands,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert accepted == _readme_synopsis_flags()
    assert accepted["chain"] == {"--config", "--out", "--seed"}


def _numeric_constants(module) -> dict:
    """A module's public module-level int and float constants, by name."""
    return {name: value for name, value in vars(module).items()
            if name.isupper() and not name.startswith("_") and type(value) in (int, float)}


def test_readme_fixed_constants_match_the_modules():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("### Fixed constants", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| `(\w+)` \|", table, re.MULTILINE)
    listed = {}
    for name, value, module in rows:
        listed.setdefault(module, {})[name] = float(value)
    chain_list = text.split("fixed constants of `aihs.chains`", 1)[1].split("###", 1)[0]
    listed["chains"] = {name: float(value)
                        for name, value in re.findall(r"^- `(\w+) = ([^`]+)`", chain_list,
                                                      re.MULTILINE)}
    assert sorted(listed) == ["blaschke", "chains", "duality", "entire", "operators"]
    for module in (*listed, "resolvent"):  # resolvent has no fixed constant
        assert (_numeric_constants(importlib.import_module(f"aihs.{module}"))
                == listed.get(module, {})), module


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["build"],
        ["verify", "x.json", "--bogus"],
        ["verify", "x.json", "--out", "d"],
        ["verify", "x.json", "--tol-zero", "1e-3"],
        ["chain", "--config", "c.json", "--tol-ai", "1e-3"],
        ["probe-dense", "--config", "c.json", "--seed", "1"],
    ],
)
def test_usage_error_exits_one(capsys, argv):
    # exit code 2 is reserved for a clean audit with an unverified hypothesis
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: aihs" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
