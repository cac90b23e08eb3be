"""Deterministic JSON/CSV persistence for certificates and reports.

Every real number inside a JSON document is a hex float (``float.hex``
round-trips bit-exactly); complex scalars are ``{"re": hex, "im": hex}``
and arrays are ``{"dtype", "shape", "data"}`` with flat row-major data.
Documents render with sorted keys, two-space indent, and no timestamps,
so the same in-memory object always produces the same bytes.  CSV
summaries are the human-readable side: decimals at ``%.17g``, columns
frozen per schema version.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ArgumentError
from .halfspace import FunctionalRep, HalfSpaceCertificate
from .operators import _readonly

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

CERT_SCHEMA_ID = "aihs-cert/1"
CHAIN_SCHEMA_ID = "aihs-chain-transcript/1"


def _fhex(x) -> str:
    return float(x).hex()


def _complex_doc(z: complex) -> dict:
    return {"re": _fhex(z.real), "im": _fhex(z.imag)}


def encode_array(a: np.ndarray) -> dict:
    """Tagged, shape-carrying, bit-exact array document."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        data = [[_fhex(z.real), _fhex(z.imag)] for z in a.ravel()]
        dtype = "complex128"
    else:
        data = [_fhex(x) for x in a.ravel()]
        dtype = "float64"
    return {"dtype": dtype, "shape": list(a.shape), "data": data}


def decode_array(doc: dict) -> np.ndarray:
    shape = tuple(doc["shape"])
    if doc["dtype"] == "complex128":
        flat = np.array(
            [complex(float.fromhex(re), float.fromhex(im)) for re, im in doc["data"]],
            dtype=np.complex128,
        )
    elif doc["dtype"] == "float64":
        flat = np.array([float.fromhex(x) for x in doc["data"]], dtype=np.float64)
    else:
        raise ArgumentError(f"unknown array dtype {doc['dtype']!r}")
    return flat.reshape(shape)


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


def _is_array_doc(d: dict) -> bool:
    return set(d.keys()) == {"dtype", "shape", "data"}


def _is_complex_doc(d: dict) -> bool:
    return set(d.keys()) == {"re", "im"}


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
        if _is_complex_doc(value):
            return complex(float.fromhex(value["re"]), float.fromhex(value["im"]))
        if _is_array_doc(value):
            return decode_array(value)
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc: dict) -> Path:
    path = Path(path)
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    return path


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------------
# certificates


def certificate_to_document(cert: HalfSpaceCertificate) -> dict:
    return {
        "schema": CERT_SCHEMA_ID,
        "construction": cert.construction,
        "operator": encode_value(cert.operator_config),
        "defect_vector": encode_array(cert.defect_vector),
        "basis": encode_array(cert.basis),
        "raw_vectors": encode_array(cert.raw_vectors),
        "lambdas": encode_array(cert.lambdas),
        "excluded_lambdas": [
            {"lam": _complex_doc(complex(lam)), "reason": reason}
            for lam, reason in cert.excluded_lambdas
        ],
        "functionals": [
            {
                "k": f.k,
                "orbit_values": encode_array(f.orbit_values),
                "dual_vector": encode_array(f.dual_vector),
                "norm_bound": _fhex(f.norm_bound),
                "extension_residual": _fhex(f.extension_residual),
            }
            for f in cert.functionals
        ],
        "reference_values": encode_array(cert.reference_values),
        "metrics": encode_value(cert.metrics),
        "checks": encode_value(cert.checks),
        "tolerances": encode_value(cert.tolerances),
        "hypothesis": encode_value(cert.hypothesis),
        "m_requested": cert.m_requested,
        "m_achieved": cert.m_achieved,
        "k_max": cert.k_max,
        "orbit_length": cert.orbit_length,
        "degree": cert.degree,
        "picard_shift": _complex_doc(complex(cert.picard_shift)),
        # config echo is the user's own JSON, kept verbatim (decimals and all)
        "config_echo": cert.config_echo,
    }


def certificate_from_document(doc: dict) -> HalfSpaceCertificate:
    if doc.get("schema") != CERT_SCHEMA_ID:
        raise ArgumentError(
            f"expected schema {CERT_SCHEMA_ID!r}, found {doc.get('schema')!r}"
        )
    functionals = tuple(
        FunctionalRep(
            k=int(f["k"]),
            orbit_values=_readonly(decode_array(f["orbit_values"])),
            dual_vector=_readonly(decode_array(f["dual_vector"])),
            norm_bound=float.fromhex(f["norm_bound"]),
            extension_residual=float.fromhex(f["extension_residual"]),
        )
        for f in doc["functionals"]
    )
    excluded = tuple(
        (decode_value(entry["lam"]), entry["reason"])
        for entry in doc["excluded_lambdas"]
    )
    return HalfSpaceCertificate(
        construction=doc["construction"],
        operator_config=decode_value(doc["operator"]),
        defect_vector=_readonly(decode_array(doc["defect_vector"])),
        basis=_readonly(decode_array(doc["basis"])),
        raw_vectors=_readonly(decode_array(doc["raw_vectors"])),
        lambdas=_readonly(decode_array(doc["lambdas"])),
        excluded_lambdas=excluded,
        functionals=functionals,
        reference_values=_readonly(decode_array(doc["reference_values"])),
        metrics=decode_value(doc["metrics"]),
        checks=decode_value(doc["checks"]),
        tolerances=decode_value(doc["tolerances"]),
        hypothesis=decode_value(doc["hypothesis"]),
        m_requested=int(doc["m_requested"]),
        m_achieved=int(doc["m_achieved"]),
        k_max=int(doc["k_max"]),
        orbit_length=int(doc["orbit_length"]),
        degree=None if doc["degree"] is None else int(doc["degree"]),
        picard_shift=decode_value(doc["picard_shift"]),
        config_echo=doc.get("config_echo", {}),
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
    m = cert.metrics
    return {
        "schema": CERT_SCHEMA_ID,
        "label": cert.config_echo.get("label", ""),
        "construction": cert.construction,
        "family": cert.operator_config.get("family", ""),
        "dim": cert.operator_config.get("dim", ""),
        "m_requested": cert.m_requested,
        "m_achieved": cert.m_achieved,
        "k_max": cert.k_max,
        "orbit_length": cert.orbit_length,
        "degree": cert.degree,
        "independence_sigma_min": m["independence_sigma_min"],
        "ai_defect_rank": m["ai_defect_rank"],
        "ai_residual": m["ai_residual"],
        "max_annihilation_residual": m["max_annihilation_residual"],
        "functional_independence_sigma_min": m["functional_independence_sigma_min"],
        "extension_residual_max": m["extension_residual_max"],
        "passed": cert.passed,
        "hypothesis_unverified": cert.hypothesis_unverified,
    }


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
