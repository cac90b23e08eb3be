"""Deterministic JSON/CSV persistence for certificates and reports.

Every real number inside a JSON document is a hex float (``float.hex``
round-trips bit-exactly); complex scalars are ``{"re": hex, "im": hex}``
and arrays are ``{"dtype", "shape", "data"}`` with flat row-major data.
An array whose trailing rows (along its first axis) are all zero stores
only the rows up to its last nonzero one and says how many in ``rows``.
Documents render compact with sorted keys and no timestamps, so the same
in-memory object always produces the same bytes; certificates are
schema-checked on read.  CSV summaries are the human-readable side:
decimals at ``%.17g``, columns frozen per schema version.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .config import check_document, parse_int
from .errors import ArgumentError
from .halfspace import _CHECKS, BlaschkeLaw, EntireLaw, FunctionalRep, HalfSpaceCertificate
from .operators import Family, _readonly

__all__ = [
    "CERT_SCHEMA_ID",
    "CHAIN_SCHEMA_ID",
    "CERT_CSV_COLUMNS",
    "SWEEP_CSV_COLUMNS",
    "PROBE_CSV_COLUMNS",
    "encode_value",
    "decode_value",
    "encode_array",
    "decode_array",
    "dumps_canonical",
    "write_json",
    "read_json",
    "certificate_to_document",
    "certificate_from_document",
    "write_certificate",
    "read_certificate",
    "certificate_csv_row",
    "probe_rows",
    "write_csv",
]

CERT_SCHEMA_ID = "aihs-cert/3"
CHAIN_SCHEMA_ID = "aihs-chain-transcript/1"


def _fhex(x) -> str:
    return float(x).hex()


def _complex_doc(z: complex) -> dict:
    return {"re": _fhex(z.real), "im": _fhex(z.imag)}


def encode_array(a: np.ndarray) -> dict:
    """Tagged, shape-carrying, bit-exact array document.

    Rows along the first axis after the last row holding a nonzero value are
    not stored; ``rows`` then counts the stored ones.  A row is zero when
    every entry compares ``== 0``, so a trimmed ``-0.0`` reads back as
    ``+0.0``; every stored entry but a nan round-trips bit for bit.
    """
    a = np.asarray(a)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    doc = {"dtype": a.dtype.name, "shape": list(a.shape)}
    if a.ndim and a.size:
        nonzero = np.flatnonzero(a.any(axis=tuple(range(1, a.ndim))))
        rows = int(nonzero[-1]) + 1 if nonzero.size else 0
        if rows < len(a):
            doc["rows"], a = rows, a[:rows]
    if np.iscomplexobj(a):
        doc["data"] = list(map(list, zip(map(float.hex, a.real.ravel().tolist()),
                                         map(float.hex, a.imag.ravel().tolist()))))
    else:
        doc["data"] = list(map(float.hex, a.ravel().tolist()))
    return doc


# an array document's keys, without and with the trimmed-row count
_ARRAY_KEYS = ({"dtype", "shape", "data"}, {"dtype", "shape", "data", "rows"})


def decode_array(doc: dict) -> np.ndarray:
    if not isinstance(doc, dict) or doc.keys() not in _ARRAY_KEYS:
        raise ArgumentError("an array document has the keys dtype, shape, data and maybe rows")
    shape = tuple(doc["shape"])
    rows = doc.get("rows", shape[0] if shape else 1)
    if "rows" in doc and not (shape and type(rows) is int and 0 <= rows <= shape[0]):
        raise ArgumentError(f"array rows {rows!r} is not a count of rows in shape {shape}")
    if len(doc["data"]) != rows * math.prod(shape[1:]):
        raise ArgumentError(f"array data has {len(doc['data'])} entries for {rows} rows of {shape}")
    if doc["dtype"] == "complex128":
        parts = np.fromiter(map(float.fromhex, itertools.chain.from_iterable(doc["data"])), float)
        if parts.size != 2 * len(doc["data"]):
            raise ArgumentError("complex array data must be [re, im] pairs")
        flat = parts.view(np.complex128)
    elif doc["dtype"] == "float64":
        flat = np.array([float.fromhex(x) for x in doc["data"]], dtype=np.float64)
    else:
        raise ArgumentError(f"unknown array dtype {doc['dtype']!r}")
    out = np.zeros(shape, flat.dtype)
    out.reshape(-1)[:flat.size] = flat  # the rows not stored are zero
    return out


def encode_value(value):
    """Recursive encoder: floats to hex, complex to re/im docs, arrays tagged.

    bool is checked before the numeric branches (it is an int subclass);
    dict keys are left untouched.
    """
    if value is None or isinstance(value, (str, bool, np.bool_)):
        return bool(value) if isinstance(value, np.bool_) else value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _fhex(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _complex_doc(complex(value))
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    raise ArgumentError(f"cannot encode {type(value).__name__} into a document")


def decode_value(value):
    """Inverse of :func:`encode_value` for aihs documents.

    Hex-float strings are recognized by their mandatory ``0x`` digits
    (plus the inf/nan spellings ``float.hex`` emits); all other strings
    pass through unchanged.
    """
    if isinstance(value, str):
        low = value.lower()
        if "0x" in low or low in ("inf", "-inf", "+inf", "nan"):
            try:
                return float.fromhex(value)
            except ValueError:
                return value
        return value
    if isinstance(value, dict):
        if value.keys() == {"re", "im"}:
            return complex(float.fromhex(value["re"]), float.fromhex(value["im"]))
        if value.keys() in _ARRAY_KEYS:
            return decode_array(value)
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, doc: dict) -> Path:
    path = Path(path)
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    return path


# one decoder for every read: ``json.loads`` with a keyword builds a new one per call
_DECODER = json.JSONDecoder(parse_int=parse_int)


def read_json(path) -> dict:
    return _DECODER.decode(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------------
# certificates


_LAWS = {law.construction: law for law in (EntireLaw, BlaschkeLaw)}


def _record(**properties) -> dict:
    """An object schema that requires exactly these properties."""
    return {"type": "object", "required": list(properties), "properties": properties,
            "additionalProperties": False}


# Structure only, and cheap: check_document spends about 2 us a node, so the
# schema stops at arrays and lists, and decode_array checks each array as it
# parses it.
_HEX = {"type": "string", "pattern": r"^-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[-+]?[0-9]+|inf|nan)$"}
_INT = {"type": "integer", "minimum": 0}
_OBJECT, _LIST = {"type": "object"}, {"type": "array"}
_METRICS = dict.fromkeys(_CHECKS, _HEX) | {
    "construction": {"enum": list(_LAWS)}, "lambda_set": _LIST,
    "ai_defect_rank": {"type": "integer"}, "annihilation_scale": _HEX,
}
# the document's fields besides its law, operator, functionals and exclusions
_SHAPED = ("defect_vector", "raw_vectors", "lambdas")
_ENCODED = _SHAPED + ("metrics", "checks", "tolerances", "hypothesis")
_COUNTS = ("m_requested", "m_achieved", "k_max", "orbit_length")

CERT_SCHEMA = _record(
    schema={"const": CERT_SCHEMA_ID},
    construction={"enum": list(_LAWS)},
    operator=_record(family={"enum": [family.value for family in Family]},
                     dim={"type": "integer", "minimum": 2},
                     sha256={"type": "string", "pattern": "^[0-9a-f]{64}$"}),
    **dict.fromkeys(_SHAPED, _OBJECT),
    excluded_lambdas=_LIST,
    functionals={"type": "array", "minItems": 1},
    law=_OBJECT,
    **dict.fromkeys(_COUNTS, _INT),
    metrics=_record(**_METRICS),
    checks=_record(**{name: _record(value=_METRICS[name], threshold=_METRICS[name],
                                    passed={"type": "boolean"}) for name in _CHECKS}),
    tolerances=_OBJECT,
    hypothesis={"type": "object", "required": ["unverified", "flags"],
                "properties": {"unverified": {"type": "boolean"}, "flags": _LIST}},
    config_echo=_OBJECT,
)
# the law as its construction writes it, checked once CERT_SCHEMA has passed
LAW_SCHEMAS = {"Entire": _record(law=_record(coefficients=_OBJECT)),
               "Blaschke": _record(law=_record(zeros=_OBJECT, order=_INT))}


def certificate_to_document(cert: HalfSpaceCertificate) -> dict:
    return {
        "schema": CERT_SCHEMA_ID,
        "construction": cert.construction,
        "operator": encode_value(cert.operator_config),
        **{name: encode_value(getattr(cert, name)) for name in _ENCODED},
        "excluded_lambdas": [
            {"lam": _complex_doc(complex(lam)), "reason": reason}
            for lam, reason in cert.excluded_lambdas
        ],
        "functionals": [
            {"k": f.k, "dual_vector": encode_array(f.dual_vector)} for f in cert.functionals
        ],
        "law": encode_value(dataclasses.asdict(cert.law)),
        **{name: getattr(cert, name) for name in _COUNTS},
        # config echo is the user's own JSON, kept verbatim (decimals and all)
        "config_echo": cert.config_echo,
    }


def _shaped(doc: dict, name: str, shape: tuple) -> np.ndarray:
    a = decode_array(doc)
    if a.shape != shape:
        raise ArgumentError(f"{name} has shape {a.shape}, expected {shape}")
    return _readonly(a)


def certificate_from_document(doc: dict) -> HalfSpaceCertificate:
    """The certificate a document holds.

    A malformed document raises ArgumentError, KeyError, TypeError or ValueError.
    """
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != CERT_SCHEMA_ID:
        raise ArgumentError(f"expected schema {CERT_SCHEMA_ID!r}, found {found!r}")
    check_document(CERT_SCHEMA, doc, "certificate")
    check_document(LAW_SCHEMAS[doc["construction"]], {"law": doc["law"]}, "certificate")
    law_cls = _LAWS[doc["construction"]]
    indices = [f["k"] for f in doc["functionals"]]
    if indices != list(range(law_cls.first_index, doc["k_max"] + 1)):
        raise ArgumentError(f"functional indices {indices} do not run "
                            f"{law_cls.first_index}..k_max = {doc['k_max']}")
    dim, m = doc["operator"]["dim"], doc["m_achieved"]
    return HalfSpaceCertificate(
        law=law_cls(**{key: value if key == "order" else decode_array(value)
                       for key, value in doc["law"].items()}),
        operator_config=doc["operator"],
        defect_vector=_shaped(doc["defect_vector"], "defect_vector", (dim,)),
        raw_vectors=_shaped(doc["raw_vectors"], "raw_vectors", (dim, m)),
        lambdas=_shaped(doc["lambdas"], "lambdas", (m,)),
        excluded_lambdas=tuple(
            (decode_value(entry["lam"]), entry["reason"]) for entry in doc["excluded_lambdas"]
        ),
        functionals=tuple(
            FunctionalRep(k=f["k"], dual_vector=_shaped(f["dual_vector"], "dual_vector", (dim,)))
            for f in doc["functionals"]
        ),
        **{name: decode_value(doc[name]) for name in _ENCODED if name not in _SHAPED},
        **{name: doc[name] for name in (*_COUNTS, "config_echo")},
    )


def write_certificate(path, cert: HalfSpaceCertificate) -> Path:
    return write_json(path, certificate_to_document(cert))


def read_certificate(path) -> HalfSpaceCertificate:
    return certificate_from_document(read_json(path))


# ----------------------------------------------------------------------------
# CSV summaries (human-readable decimals; columns frozen per schema version)

CERT_CSV_COLUMNS = (
    "schema",
    "label",
    "construction",
    "family",
    "dim",
    "m_requested",
    "m_achieved",
    "k_max",
    "orbit_length",
    "degree",
    "independence_sigma_min",
    "ai_defect_rank",
    "ai_residual",
    "max_annihilation_residual",
    "functional_independence_sigma_min",
    "extension_residual_max",
    "passed",
    "hypothesis_unverified",
)

SWEEP_CSV_COLUMNS = ("index", "status") + CERT_CSV_COLUMNS

PROBE_CSV_COLUMNS = ("k", "n", "error", "oracle", "diff")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def certificate_csv_row(cert: HalfSpaceCertificate) -> dict:
    """One CSV row: the certificate's counts, its metrics and its verdicts."""
    row = {"schema": CERT_SCHEMA_ID, "label": cert.config_echo.get("label", ""),
           "family": cert.operator_config["family"], "dim": cert.operator_config["dim"]}
    for col in CERT_CSV_COLUMNS:
        if col not in row:
            row[col] = cert.metrics[col] if col in cert.metrics else getattr(cert, col)
    return row


def probe_rows(errors: np.ndarray, oracle) -> list:
    """(k, n, error, oracle, diff) rows; ``oracle(k, n)`` is the tail sum."""
    rows = []
    for k0 in range(errors.shape[0]):
        for n0 in range(errors.shape[1]):
            want = float(oracle(k0 + 1, n0 + 1))
            got = float(errors[k0, n0])
            rows.append(
                {
                    "k": k0 + 1,
                    "n": n0 + 1,
                    "error": got,
                    "oracle": want,
                    "diff": abs(got - want),
                }
            )
    return rows


def write_csv(path, columns, rows) -> Path:
    """Write dict rows under a frozen column tuple; missing keys are blank."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(col)) for col in columns])
    return path
