"""Deterministic JSON/CSV persistence for certificates and reports.

Every real number inside a JSON document is a hex float, spelled as
``float.hex`` spells it (it round-trips bit-exactly); complex scalars are
``{"re": hex, "im": hex}`` and arrays are ``{"dtype", "shape", "data"}``
with flat row-major data, complex entries as ``[re, im]`` pairs.  An array
whose trailing rows (along its first axis) are all zero stores only the rows
up to its last nonzero one and says how many in ``rows``.  Documents render
compact with sorted keys and no timestamps, so the same in-memory object
always produces the same bytes; certificates are schema-checked on read.
Array data is rendered straight from the IEEE-754 bits: every array of a
certificate goes through one numpy pass that writes the same text as
``float.hex`` and ``json`` would.  CSV summaries are the human-readable
side: decimals at ``%.17g``, columns frozen per schema version.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .config import _COUNT, JSON_DECODER, _record, check_document
from .errors import ArgumentError
from .halfspace import _CHECKS, BlaschkeLaw, EntireLaw, HalfSpaceCertificate
from ._linalg import used_rows
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


def _bytes(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint8)


def _render_tables() -> tuple:
    """Word tables of the hex-float text, with byte 0 as padding (dropped from the text).

    Each word is 8 bytes, read as a little-endian uint64.  The head, indexed
    by (punctuation, top 12 bits), is the punctuation before the entry,
    ``"``, the sign and ``0x1`` (``0x0`` for exponent field 0, ``inf`` for
    2047).  The suffix, indexed by the top 12 bits, is ``p±E"`` (only ``"``
    for 2047).  The digits are a byte's two hex digits.
    """
    top = np.arange(4096, dtype=np.int16)
    sign, field = top >> 11, top & 0x7FF
    # the punctuation: "," (a real entry or an imaginary part), "],[" (a real part),
    # and "|[" or "|[[" before an array's first entry ("|" marks where each array starts)
    head = np.zeros((4, 4096, 8), np.uint8)
    head[..., :3] = _bytes(b",\0\0],[|[\0|[[").reshape(4, 1, 3)
    head[..., 3], head[..., 4] = ord('"'), sign * ord("-")
    head[..., 5:] = _bytes(b"0x10x0inf").reshape(3, 3)[(field == 0) + 2 * (field == 0x7FF)]
    nan_head = head[:, 0].copy()
    nan_head[:, 4:] = _bytes(b"nan\0")  # every nan is "nan", whatever its sign
    power = np.where(field == 0, -1022, field - 1023)  # a subnormal's exponent is -1022
    magnitude = np.abs(power)[:, None]
    digits = magnitude // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")
    suffix = np.zeros((4096, 8), np.uint8)
    suffix[:, 0] = ord("p")
    suffix[:, 1] = np.where(power < 0, ord("-"), ord("+"))
    suffix[:, 2:6] = np.where(magnitude >= np.array([1000, 100, 10, 0], np.int16), digits, 0)
    suffix[:, 6] = ord('"')
    suffix[field == 0x7FF, :6] = 0
    hexdigits = _bytes(b"0123456789abcdef")
    pairs = np.stack([hexdigits[top[:256] >> 4], hexdigits[top[:256] & 15]], axis=1)
    return (head.view("<u8").reshape(-1), nan_head.view("<u8")[:, 0], suffix.view("<u8")[:, 0],
            pairs.view("<u2")[:, 0])


_HEAD, _NAN_HEAD, _SUFFIX, _DIGITS = _render_tables()
# A normal entry's two middle words: two bytes of padding, "." and the 13 mantissa
# digits.  The digit pairs of the big-endian bits put the exponent's in the first three.
_DOT = np.uint64(ord(".") << 16)
_MANTISSA_BYTES = np.uint64(0xFFFF_FFFF_FF00_0000)
_ZERO_MIDDLE = np.uint64(ord(".") << 16 | ord("0") << 24)  # "0x0.0p+0"
_ZERO_SUFFIX = np.frombuffer(b'p+0"\0\0\0\0', "<u8")[0]
_SIGNLESS = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_INF_BITS = np.uint64(0x7FF0_0000_0000_0000)


def _array_texts(arrays) -> list:
    """Each array's document text, in sorted-key compact JSON, from one pass over their bits.

    Every float entry is four words: the head, the mantissa digits in two
    and the suffix.  A zero, an inf and a nan are patched to ``float.hex``'s
    spelling, the padding is dropped, and the text is cut into arrays at
    their start marks.
    """
    tails, chunks, complex_, firsts = [], [], [], []
    start = 0
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
        tail = f',"dtype":"{a.dtype.name}"'
        if a.ndim and a.size and (rows := used_rows(a)) < len(a):
            tail += f',"rows":{rows}'
        else:
            rows = len(a) if a.ndim else 1
        tails.append(tail + f',"shape":[{",".join(map(str, a.shape))}]}}')
        chunks.append(np.ascontiguousarray(a[:rows] if a.ndim else a).reshape(-1).view(np.float64))
        complex_.append(a.dtype == np.complex128)
        firsts.append(start)
        start += chunks[-1].size
    bits = np.concatenate(chunks).view(np.uint64)
    n = bits.size
    lead = np.zeros(n, np.intp)
    for first, chunk, is_complex in zip(firsts, chunks, complex_):
        if chunk.size:
            if is_complex:
                lead[first:first + chunk.size:2] = 1
            lead[first] = 2 + is_complex
    top = (bits >> np.uint64(52)).astype(np.intp)
    words = np.empty((n, 4), "<u8")
    words[:, 0] = _HEAD.take(lead * 4096 + top)
    digits = _DIGITS.take(bits.astype(">u8").view(np.uint8).reshape(n, 8)).view("<u8")
    words[:, 1] = digits[:, 0] & _MANTISSA_BYTES | _DOT
    words[:, 2] = digits[:, 1]
    words[:, 3] = _SUFFIX.take(top)
    signless = bits & _SIGNLESS
    zero = signless == 0
    words[zero, 1:] = [_ZERO_MIDDLE, 0, _ZERO_SUFFIX]
    words[signless >= _INF_BITS, 1:3] = 0  # "inf" or "nan", no digits
    nan = signless > _INF_BITS
    words[nan, 0] = _NAN_HEAD.take(lead[nan])
    pieces = iter(words.tobytes().translate(None, b"\0").decode("ascii").split("|")[1:])
    return [f'{{"data":{next(pieces) + ("]]" if is_complex else "]") if chunk.size else "[]"}{tail}'
            for chunk, is_complex, tail in zip(chunks, complex_, tails)]


def encode_array(a: np.ndarray) -> dict:
    """Tagged, shape-carrying, bit-exact array document.

    Rows along the first axis after the last row holding a nonzero value are
    not stored; ``rows`` then counts the stored ones.  A row is zero when
    every entry compares ``== 0``, so a trimmed ``-0.0`` reads back as
    ``+0.0``; every stored entry but a nan round-trips bit for bit.  The
    document is the one the certificate writer renders.
    """
    return json.loads(_array_texts([a])[0])


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
        try:  # list.__len__ takes nothing but a list, so this checks each entry's type and length
            pairs = set(map(list.__len__, doc["data"])) <= {2}
        except TypeError:
            pairs = False
        if not pairs:
            raise ArgumentError("complex array data must be [re, im] pairs")
        parts = np.fromiter(map(float.fromhex, itertools.chain.from_iterable(doc["data"])), float)
        flat = parts.view(np.complex128)
    elif doc["dtype"] == "float64":
        flat = np.array([float.fromhex(x) for x in doc["data"]], dtype=np.float64)
    else:
        raise ArgumentError(f"unknown array dtype {doc['dtype']!r}")
    out = np.zeros(shape, flat.dtype)
    out.reshape(-1)[:flat.size] = flat  # the rows not stored are zero
    return out


def encode_value(value):
    """Recursive encoder: floats to hex, complex to re/im docs (arrays: :func:`encode_array`).

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


# no NaN or Infinity token, which RFC 8259 has no number for, can reach a written file
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def dumps_canonical(doc: dict) -> str:
    return _ENCODER.encode(doc) + "\n"


def _write_text(path, text: str) -> Path:
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def write_json(path, doc: dict) -> Path:
    return _write_text(path, dumps_canonical(doc))


def read_json(path) -> dict:
    return JSON_DECODER.decode(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------------
# certificates


_LAWS = {law.construction: law for law in (EntireLaw, BlaschkeLaw)}


# Structure only, and cheap: check_document spends about 0.6 us a node (61 nodes of
# a benchmark certificate in 37-40 us on a 2-core Xeon VM), so the schema stops at
# arrays and lists, and decode_array checks each array as it parses it.
_HEX = {"type": "string", "pattern": r"^-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[-+]?[0-9]+|inf|nan)$"}
_OBJECT, _LIST, _BOOLEAN = {"type": "object"}, {"type": "array"}, {"type": "boolean"}
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
    # every builder rejects m < 1, and a build that certifies no lambda fails at its
    # resolvent stage, so neither count is stored as 0
    **(dict.fromkeys(_COUNTS, _COUNT) | dict.fromkeys(("m_requested", "m_achieved"),
                                                      {**_COUNT, "minimum": 1})),
    metrics=_record(**_METRICS),
    checks=_record(**{name: _record(value=_METRICS[name], threshold=_METRICS[name],
                                    passed=_BOOLEAN) for name in _CHECKS}),
    tolerances=_OBJECT,
    hypothesis=_OBJECT,
    config_echo=_OBJECT,
)
# the law and hypothesis as their construction writes them, checked once CERT_SCHEMA has
# passed: the entire route has no hypothesis to flag
CONSTRUCTION_SCHEMAS = {
    "Entire": _record(law=_record(coefficients=_OBJECT),
                      hypothesis=_record(unverified={**_BOOLEAN, "const": False},
                                         flags={"type": "array", "maxItems": 0})),
    "Blaschke": _record(law=_record(zeros=_OBJECT, order=_COUNT),
                        hypothesis=_record(unverified=_BOOLEAN, flags=_LIST,
                                           spectral_radius_estimate=_HEX,
                                           norm_sum_partial=_HEX, norm_sum_cap=_HEX)),
}


class _Rendered(str):
    """JSON text already rendered, spliced into an object as it is."""


def _object(fields: dict) -> _Rendered:
    """Compact JSON text of an object with sorted keys.

    Each run of keys without a rendered value goes through one encoder call.
    The keys are the document's own field names, which need no escaping.
    """
    parts, plain = [], {}
    for key in sorted(fields):
        if isinstance(fields[key], _Rendered):
            if plain:
                parts.append(_ENCODER.encode(plain)[1:-1])
                plain = {}
            parts.append(f'"{key}":{fields[key]}')
        else:
            plain[key] = fields[key]
    if plain:
        parts.append(_ENCODER.encode(plain)[1:-1])
    return _Rendered("{" + ",".join(parts) + "}")


def _certificate_text(cert: HalfSpaceCertificate) -> str:
    """The certificate's compact sorted-key JSON text, its arrays rendered in one pass."""
    law = {f.name: getattr(cert.law, f.name) for f in dataclasses.fields(cert.law)}
    arrays = [getattr(cert, name) for name in _SHAPED]
    arrays += [value for value in law.values() if isinstance(value, np.ndarray)]
    arrays += list(cert.duals.T)
    texts = map(_Rendered, _array_texts(arrays))  # taken below in the order listed
    return _object({
        "schema": CERT_SCHEMA_ID,
        "construction": cert.construction,
        "operator": encode_value(cert.operator_config),
        **{name: next(texts) for name in _SHAPED},
        "law": _object({key: next(texts) if isinstance(value, np.ndarray) else encode_value(value)
                        for key, value in law.items()}),
        "functionals": _Rendered("[" + ",".join(
            _object({"dual_vector": next(texts), "k": k})
            for k in range(cert.law.first_index, cert.k_max + 1)) + "]"),
        **{name: encode_value(getattr(cert, name)) for name in _ENCODED if name not in _SHAPED},
        "excluded_lambdas": [
            {"lam": _complex_doc(complex(lam)), "reason": reason}
            for lam, reason in cert.excluded_lambdas
        ],
        **{name: getattr(cert, name) for name in _COUNTS},
        # config echo is the user's own JSON, kept verbatim (decimals and all)
        "config_echo": cert.config_echo,
    })


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
    check_document(CONSTRUCTION_SCHEMAS[doc["construction"]],
                   {key: doc[key] for key in ("law", "hypothesis")}, "certificate")
    law_cls = _LAWS[doc["construction"]]
    if law_cls is BlaschkeLaw and doc["law"]["order"] != doc["orbit_length"] - 1:
        raise ArgumentError(f"law order {doc['law']['order']} is not orbit_length - 1 "
                            f"= {doc['orbit_length'] - 1}")
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
        duals=_readonly(np.stack([_shaped(f["dual_vector"], "dual_vector", (dim,))
                                  for f in doc["functionals"]], axis=1)),
        **{name: decode_value(doc[name]) for name in _ENCODED if name not in _SHAPED},
        **{name: doc[name] for name in (*_COUNTS, "config_echo")},
    )


def write_certificate(path, cert: HalfSpaceCertificate) -> Path:
    return _write_text(path, _certificate_text(cert) + "\n")


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
