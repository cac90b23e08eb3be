import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aihs import serialize as ser
from aihs.cli import main
from aihs.errors import ArgumentError
from aihs.halfspace import build_blaschke, build_entire, verify_certificate
from aihs.operators import Family, build_operator, geometric_weights


@pytest.fixture(scope="module")
def small_cert():
    op = build_operator(Family.FORWARD, 64, weights=geometric_weights(64, 0.9))
    e = np.zeros(64, dtype=np.complex128)
    e[0] = 1.0
    return op, build_entire(op, e, m=3, k_max=2)


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 1.5, -math.pi, 1e-300, 7.2e250, math.inf, -math.inf],
)
def test_float_hex_round_trip(value):
    out = ser.decode_value(ser.encode_value(value))
    assert isinstance(out, float)
    assert out == value
    assert math.copysign(1.0, out) == math.copysign(1.0, value)


def test_nan_round_trip():
    out = ser.decode_value(ser.encode_value(float("nan")))
    assert isinstance(out, float) and math.isnan(out)


def test_complex_round_trip():
    z = complex(-1.25e-7, 3.141592653589793)
    out = ser.decode_value(ser.encode_value(z))
    assert isinstance(out, complex)
    assert out == z


def test_array_round_trip_bits():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    b = ser.decode_array(ser.encode_array(a))
    assert b.dtype == np.complex128 and b.shape == (4, 5)
    assert np.array_equal(a.view(np.float64), b.view(np.float64))
    r = rng.standard_normal(7)
    assert np.array_equal(ser.decode_array(ser.encode_array(r)), r)


def test_empty_array_keeps_shape():
    a = np.zeros((0, 3), dtype=np.complex128)
    b = ser.decode_array(ser.encode_array(a))
    assert b.shape == (0, 3) and b.dtype == np.complex128


@st.composite
def _arrays(draw):
    """float64 or complex128 arrays with nan/inf, signed zeros and zero rows."""
    complex_ = draw(st.booleans())
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(), (0,), (n,), (n, k), (0, k)]))
    parts = (*shape, 2) if complex_ else shape
    values = draw(st.lists(st.floats(width=64), min_size=math.prod(parts),
                           max_size=math.prod(parts)))
    real = np.array(values, dtype=np.float64).reshape(parts)
    if shape and shape[0]:
        tail = draw(st.integers(0, shape[0]))  # shape[0] makes the whole array zero
        zero = draw(st.sets(st.integers(0, shape[0] - 1))) | set(range(shape[0] - tail, shape[0]))
        for row in zero:  # each zero keeps the sign of the value it replaces
            real[row] = np.copysign(0.0, real[row])
    return real.view(np.complex128)[..., 0] if complex_ else real


def _bits(x: np.ndarray) -> bytes:
    """The float64 bits of x; float.hex spells every nan "nan", so nans compare as one."""
    parts = x.reshape(-1).view(np.float64)
    return np.where(np.isnan(parts), np.nan, parts).tobytes()


@given(_arrays())
def test_array_round_trip_property(a):
    doc = ser.encode_array(a)
    b = ser.decode_array(json.loads(json.dumps(doc)))
    assert b.dtype == a.dtype and b.shape == a.shape
    assert np.array_equal(a, b, equal_nan=True)  # by value everywhere: -0.0 == +0.0
    rows = doc.get("rows", len(a) if a.ndim else None)
    stored = slice(rows) if a.ndim else ()
    assert _bits(a[stored]) == _bits(b[stored])  # bit for bit on the stored rows
    last_row_zero = a.ndim > 0 and len(a) > 0 and not np.any(a[-1] != 0)
    assert ("rows" in doc) == last_row_zero
    if last_row_zero:
        assert not np.any(a[rows:] != 0) and (rows == 0 or np.any(a[rows - 1] != 0))


def test_untrimmed_array_documents_keep_their_bytes():
    a = np.array([[-0.0, 1.5], [0.0, 0.0], [math.inf, -2.0**-1074]])
    assert ser.encode_array(a) == {"dtype": "float64", "shape": [3, 2], "data": [
        "-0x0.0p+0", "0x1.8000000000000p+0", "0x0.0p+0", "0x0.0p+0", "inf",
        "-0x0.0000000000001p-1022"]}
    z = np.array([complex(0.25, -0.0), complex(math.nan, -3.0)])
    assert ser.encode_array(z) == {"dtype": "complex128", "shape": [2], "data": [
        ["0x1.0000000000000p-2", "-0x0.0p+0"], ["nan", "-0x1.8000000000000p+1"]]}


def test_trailing_zero_rows_are_not_stored():
    doc = ser.encode_array(np.array([[1.0, 0.0], [0.0, -0.0], [-0.0, 0.0]]))
    assert doc == {"dtype": "float64", "shape": [3, 2], "rows": 1,
                   "data": ["0x1.0000000000000p+0", "0x0.0p+0"]}
    back = ser.decode_value(doc)
    assert back.shape == (3, 2) and not np.signbit(back[1:]).any()  # a trimmed zero is +0.0


@pytest.mark.parametrize("rows, data, shape, message", [
    (4, 4, [3], "rows 4"), (1, 1, [0], "rows 1"), (-1, 0, [3], "rows -1"),
    (True, 1, [3], "rows True"), (1.0, 1, [3], "rows 1.0"), ("1", 1, [3], "rows '1'"),
    (None, 0, [3], "rows None"), (0, 0, [], "rows 0"), (1, 3, [3], "3 entries"),
])
def test_bad_rows_is_rejected(rows, data, shape, message):
    doc = {"dtype": "float64", "shape": shape, "rows": rows, "data": ["0x1.0p+0"] * data}
    with pytest.raises(ArgumentError, match=message):
        ser.decode_array(doc)


@pytest.mark.parametrize("data", [
    [["0x1p0", "0x2p0", "0x3p0"], ["0x4p0"]],  # uneven lists, four entries in all
    ["11", "22"],  # strings of two characters
    [["0x1p0", "0x2p0"], ("0x3p0", "0x4p0")],
    [["0x1p0", "0x2p0"], None],
], ids=["uneven", "strings", "tuple", "none"])
def test_complex_data_must_be_pairs(data):
    with pytest.raises(ArgumentError, match=r"complex array data must be \[re, im\] pairs"):
        ser.decode_array({"dtype": "complex128", "shape": [2], "data": data})


# --- the writer against one float.hex per entry --------------------------------


def _reference_array(a) -> dict:
    """The array document spelled entry by entry with float.hex, trimmed row by row."""
    a = np.asarray(a)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    doc = {"dtype": a.dtype.name, "shape": list(a.shape)}
    if a.ndim and a.size:
        with np.errstate(invalid="ignore"):  # a complex nan compares != 0, with a warning
            rows = max((i + 1 for i in range(len(a)) if np.any(a[i] != 0)), default=0)
        if rows < len(a):
            doc["rows"], a = rows, a[:rows]
    if a.dtype == np.complex128:
        doc["data"] = [[z.real.hex(), z.imag.hex()] for z in a.ravel().tolist()]
    else:
        doc["data"] = [x.hex() for x in a.ravel().tolist()]
    return doc


def _reference_value(value):
    if isinstance(value, np.ndarray):
        return _reference_array(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": value.real.hex(), "im": value.imag.hex()}
    if isinstance(value, dict):
        return {key: _reference_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_value(v) for v in value]
    return value


def _reference_document(cert) -> dict:
    names = ("defect_vector", "raw_vectors", "lambdas", "metrics", "checks", "tolerances",
             "hypothesis")
    return {
        "schema": ser.CERT_SCHEMA_ID, "construction": cert.construction,
        "operator": _reference_value(cert.operator_config),
        **{name: _reference_value(getattr(cert, name)) for name in names},
        "excluded_lambdas": [{"lam": _reference_value(complex(lam)), "reason": reason}
                             for lam, reason in cert.excluded_lambdas],
        "functionals": [{"k": k, "dual_vector": _reference_array(dual)}
                        for k, dual in enumerate(cert.duals.T, cert.law.first_index)],
        "law": _reference_value(dataclasses.asdict(cert.law)),
        **{name: getattr(cert, name) for name in ("m_requested", "m_achieved", "k_max",
                                                   "orbit_length")},
        "config_echo": cert.config_echo,
    }


_SPECIAL_BITS = [0, 1 << 63, 1, (1 << 63) | 1, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000,
                 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000, 0x7FF8_0000_0000_0000,
                 0xFFF0_0000_0000_0001, 0x7FEF_FFFF_FFFF_FFFF, 0x3FF0_0000_0000_0000]


@st.composite
def _bit_arrays(draw):
    """float64 or complex128 arrays of any bit patterns, with zero rows of either sign."""
    complex_ = draw(st.booleans())
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(), (0,), (n,), (n, k), (0, k), (k, 0)]))
    parts = (*shape, 2) if complex_ else shape
    words = draw(st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS)),
                          min_size=math.prod(parts), max_size=math.prod(parts)))
    real = np.array(words, dtype=np.uint64).view(np.float64).reshape(parts)
    if shape and shape[0] and real.size:
        tail = draw(st.integers(0, shape[0]))  # shape[0] makes the whole array zero
        for row in range(shape[0] - tail, shape[0]):  # each zero keeps its value's sign
            real[row] = np.copysign(0.0, real[row])
    return real.view(np.complex128)[..., 0] if complex_ else real


@given(st.lists(_bit_arrays(), min_size=1, max_size=6))
def test_one_pass_renders_each_array_as_float_hex_does(arrays):
    texts = ser._array_texts(arrays)
    assert texts == [json.dumps(_reference_array(a), sort_keys=True, separators=(",", ":"))
                     for a in arrays]
    assert ser.encode_array(arrays[0]) == _reference_array(arrays[0])


def _explicit_blaschke_cfg(dim: int = 48) -> dict:
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, dim - 1)
    return {"schema": "aihs-run/1", "construction": "blaschke", "m": 8, "k_max": 5, "seed": 0,
            "label": "blaschke", "blaschke": {"sequence": {"kind": "inverse-square"}},
            "operator": {"family": "forward-weighted-shift", "dim": dim, "weights": {
                "kind": "explicit", "params": {"values": [[math.cos(p), math.sin(p)]
                                                          for p in phases]}}}}


def _geometric_cfg(dim: int, ratio: float, m: int = 4, k_max: int = 3) -> dict:
    return {"schema": "aihs-run/1", "construction": "entire", "m": m, "k_max": k_max, "seed": 0,
            "label": f"n{dim}-r{round(ratio * 100)}", "operator": {
                "family": "forward-weighted-shift", "dim": dim,
                "weights": {"kind": "geometric", "params": {"ratio": ratio}}}}


def _assert_written_as_reference(path: Path) -> None:
    """The file is the reference rendering, and reading and writing it again gives its bytes."""
    cert = ser.read_certificate(path)
    text = path.read_text(encoding="utf-8")
    assert text == ser.dumps_canonical(_reference_document(cert))
    again = ser.write_certificate(path.with_suffix(".again"), cert)
    assert again.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("command, cfg", [
    ("build", _geometric_cfg(256, 0.9, m=8, k_max=5)),
    ("build", _explicit_blaschke_cfg()),
    ("sweep", {"schema": "aihs-sweep/1", "label": "sweep", "runs": [
        _geometric_cfg(dim, ratio) for dim, ratio in ((64, 0.7), (192, 0.5), (96, 0.9))]}),
], ids=["entire", "blaschke", "sweep"])
def test_written_certificates_match_the_float_hex_reference(tmp_path, command, cfg):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("*.cert.json"))
    assert len(paths) == (3 if command == "sweep" else 1)
    for path in paths:
        _assert_written_as_reference(path)


def test_certificate_with_non_finite_metrics_matches_the_reference(small_cert, tmp_path):
    _, cert = small_cert
    metrics = {**cert.metrics, "ai_residual": math.nan, "annihilation_scale": math.inf,
               "extension_residual_max": -math.inf, "independence_sigma_min": -0.0}
    cert = dataclasses.replace(cert, metrics=metrics,
                               excluded_lambdas=((complex(math.inf, math.nan), "noise-floor"),))
    _assert_written_as_reference(ser.write_certificate(tmp_path / "odd.cert.json", cert))


def _entire_certificate(tmp_path, dim: int, ratio: float) -> Path:
    """The certificate ``aihs build`` writes for a forward geometric shift, m = 8, k_max = 5."""
    label = f"n{dim}-r{round(ratio * 1e4)}"
    cfg = {"schema": "aihs-run/1", "construction": "entire", "m": 8, "k_max": 5, "seed": 0,
           "label": label, "operator": {"family": "forward-weighted-shift", "dim": dim, "weights": {
               "kind": "geometric", "params": {"ratio": ratio}}}}
    (tmp_path / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["build", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path)]) == 0
    return tmp_path / f"{label}.cert.json"


def test_certificate_size_grows_with_the_orbit_not_the_dimension(tmp_path):
    # the orbit saturates at L = 81 at both sizes, and the operator is a digest
    small, large = (_entire_certificate(tmp_path, dim, 0.9).stat().st_size for dim in (1024, 4096))
    assert abs(large - small) <= 0.05 * small
    # the benchmark's seed-0 entire-n1024 input: 467 725 bytes with every row and the
    # weights stored, 129 918 with the weights alone
    assert _entire_certificate(tmp_path, 1024, 0.9175).stat().st_size < 95_000


def test_value_walker_mixed_dict():
    src = {
        "name": "entire",
        "count": 4,
        "flag": True,
        "resid": 2.5e-13,
        "lams": [1 + 2j, -0.5j],
        "nested": {"threshold": 1e-8, "reason": "noise-floor"},
        "nothing": None,
    }
    out = ser.decode_value(ser.encode_value(src))
    assert out == src
    assert isinstance(out["count"], int) and isinstance(out["flag"], bool)
    assert all(isinstance(z, complex) for z in out["lams"])


def test_plain_strings_survive():
    # sha-256 digests and diagnostic prose must not be mistaken for numbers
    src = {"matrix_sha256": "ab03f" * 12, "reason": "eigenvalue-gap"}
    assert ser.decode_value(ser.encode_value(src)) == src


def test_dumps_canonical_sorted_and_stable():
    doc = {"b": ser.encode_value(1.5), "a": ser.encode_value(2)}
    text = ser.dumps_canonical(doc)
    assert text == ser.dumps_canonical(json.loads(text))
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_no_written_document_holds_a_non_json_constant(tmp_path, value):
    # a float outside a hex string would be written as Infinity or NaN, not JSON numbers
    with pytest.raises(ValueError, match="not JSON compliant"):
        ser.write_json(tmp_path / "doc.json", {"echo": {"defect_cap": value}})
    assert not (tmp_path / "doc.json").exists()


def test_certificate_document_round_trip(small_cert, tmp_path):
    op, cert = small_cert
    text = ser.write_certificate(tmp_path / "cert.json", cert).read_text(encoding="utf-8")
    back = ser.certificate_from_document(json.loads(text))
    assert ser.write_certificate(tmp_path / "back.json", back).read_text(encoding="utf-8") == text
    assert np.array_equal(back.raw_vectors, cert.raw_vectors)
    assert np.array_equal(back.law.coefficients, cert.law.coefficients)
    assert np.array_equal(back.duals, cert.duals)
    # derived, not stored: a read-back certificate derives the same arrays
    assert np.array_equal(back.basis, cert.basis)
    assert np.array_equal(_references(back), _references(cert))
    assert np.array_equal(back.lambdas, cert.lambdas)
    assert back.metrics == cert.metrics
    assert back.checks == cert.checks
    assert back.m_achieved == cert.m_achieved
    assert back.passed == cert.passed


def _references(cert) -> np.ndarray:
    """f_k(h(lambda_n)) as the certificate's law prescribes, one row per functional."""
    return cert.law.references(cert.law.orbit_values(cert.k_max, cert.orbit_length), cert.lambdas)


def _same(a, b) -> bool:
    """Equal values of equal types; arrays bit for bit, with dtype and shape."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("route", ["entire", "blaschke"])
def test_read_back_certificate_equals_the_build(tmp_path, route):
    op = build_operator(Family.FORWARD, 64, weights=geometric_weights(64, 0.9))
    e = np.zeros(64, dtype=np.complex128)
    e[0] = 1.0
    cert = build_entire(op, e, m=3, k_max=2) if route == "entire" else build_blaschke(op, e, 4, 3)
    back = ser.read_certificate(ser.write_certificate(tmp_path / "cert.json", cert))
    # the derived arrays too: a certificate has one shape, fresh or read back
    for name in [f.name for f in dataclasses.fields(cert)] + ["basis"]:
        assert _same(getattr(back, name), getattr(cert, name)), name
    assert _same(_references(back), _references(cert))


def test_certificate_file_round_trip_and_audit(small_cert, tmp_path):
    op, cert = small_cert
    path = ser.write_certificate(tmp_path / "cert.json", cert)
    again = ser.write_certificate(tmp_path / "cert2.json", cert)
    assert path.read_bytes() == again.read_bytes()
    back = ser.read_certificate(path)
    report = verify_certificate(op, back)
    assert report["passed"], report["failures"]
    assert report["raw_vector_drift"] == 0.0


def test_certificate_schema_checked(small_cert, tmp_path):
    _, cert = small_cert
    doc = ser.read_json(ser.write_certificate(tmp_path / "cert.json", cert))
    doc["schema"] = "aihs-cert/0"
    with pytest.raises(ArgumentError, match="schema"):
        ser.certificate_from_document(doc)


def test_certificate_csv_row_columns(small_cert):
    _, cert = small_cert
    row = ser.certificate_csv_row(cert)
    assert set(row) == set(ser.CERT_CSV_COLUMNS)
    assert row["family"] == "forward-weighted-shift"
    assert row["dim"] == 64
    assert row["passed"] is True


def test_write_csv_formatting(tmp_path):
    rows = [
        {"a": 1.0 / 3.0, "b": 5, "c": True, "d": None, "e": "x,y"},
    ]
    path = ser.write_csv(tmp_path / "t.csv", ("a", "b", "c", "d", "e"), rows)
    with path.open(newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["a", "b", "c", "d", "e"]
    assert got[1] == ["0.33333333333333331", "5", "1", "", "x,y"]
    assert float(got[1][0]) == 1.0 / 3.0


def test_probe_rows_against_callable():
    err = np.array([[1.0, 0.5], [0.25, 0.125]])
    rows = ser.probe_rows(err, lambda k, n: err[k - 1, n - 1])
    assert all(r["diff"] == 0.0 for r in rows)
    assert rows[0]["k"] == 1 and rows[0]["n"] == 1
