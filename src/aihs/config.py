"""Run configuration: schema checking and tolerance bundles."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = [
    "Tolerances",
    "load_config",
    "parse_int",
    "validate_config",
    "seed_vector_from_config",
    "tolerances_from_config",
    "check_document",
    "RUN_SCHEMA",
    "CHAIN_SCHEMA",
    "SWEEP_SCHEMA",
    "PROBE_SCHEMA",
]


@dataclass(frozen=True)
class Tolerances:
    """Every knob a certificate build or audit consults, with defaults.

    ``tol_annihilation_base`` is the prefactor of the scale-aware bound
    base * (1 + max|lambda|)^(k_max+1) * max|c_i|; certificates store the
    annihilation metric already divided by that scale, so checks compare the
    normalized value against the base directly.
    """

    tol_ai: float = 1e-8
    tol_rank: float = 1e-10
    tol_zero: float = 1e-10
    tol_annihilation_base: float = 1e-8
    tol_extension: float = 1e-9
    tol_audit: float = 1e-10
    eigen_gap_rtol: float = 1e-6
    noise_guard_fraction: float = 0.05
    resolvent_defect_tol: float = 1e-8
    blaschke_norm_cap: float = 1e6
    spectral_radius_slack: float = 1e-9

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ArgumentError(f"complex entries must be [re, im], got {value!r}")
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def _is_pair_list(values) -> bool:
    """Whether every entry is a list ``[re, im]`` of two ints or floats (bools excluded)."""
    return (set(map(type, values)) == {list} and set(map(len, values)) == {2}
            and set(map(type, itertools.chain.from_iterable(values))) <= {int, float})


def _complex_entries(values) -> np.ndarray:
    """Config entries, numbers or ``[re, im]`` pairs, as a complex array.

    A list of pairs converts in one pass; the entries keep the bits that
    :func:`_as_complex` gives each one, which handles every other list.
    """
    if _is_pair_list(values):
        return np.array(values, dtype=np.float64).view(np.complex128).reshape(-1)
    return np.array([_as_complex(v) for v in values], dtype=np.complex128)


# a number or an [re, im] pair; the item keywords apply to arrays only
_COMPLEX = {"type": ["number", "array"], "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

_WEIGHTS = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["explicit", "geometric", "factorial-decay"]},
        "params": {
            "type": "object",
            "properties": {
                "values": {"type": "array", "items": _COMPLEX, "minItems": 1},
                "ratio": _COMPLEX,
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_MATRIX = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["explicit", "random-gaussian"]},
        "entries": {"type": "array", "items": {"type": "array", "items": _COMPLEX}},
        "scale": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

_OPERATOR = {
    "type": "object",
    "required": ["family", "dim"],
    "properties": {
        "family": {
            "enum": ["forward-weighted-shift", "donoghue-backward-shift", "dense"]
        },
        "dim": {"type": "integer", "minimum": 2},
        "weights": _WEIGHTS,
        "matrix": _MATRIX,
    },
    "additionalProperties": False,
}

_SEED_VECTOR = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["basis", "explicit"]},
        "index": {"type": "integer", "minimum": 0},
        "values": {"type": "array", "items": _COMPLEX, "minItems": 1},
    },
    "additionalProperties": False,
}

_TOLERANCES = {
    "type": "object",
    "properties": {
        field.name: {"type": "number", "exclusiveMinimum": 0}
        for field in dataclasses.fields(Tolerances)
    },
    "additionalProperties": False,
}

_BLASCHKE = {
    "type": "object",
    "properties": {
        "sequence": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["inverse-square", "geometric", "explicit"]},
                "ratio": {"type": "number"},
                "values": {"type": "array", "items": _COMPLEX},
            },
            "additionalProperties": False,
        },
        "order": {"type": "integer", "minimum": 1},
        "defect_cap": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

RUN_SCHEMA = {
    "type": "object",
    "required": ["operator", "construction", "m", "k_max"],
    "properties": {
        "schema": {"const": "aihs-run/1"},
        "operator": _OPERATOR,
        "construction": {"enum": ["entire", "blaschke"]},
        "m": {"type": "integer", "minimum": 1},
        "k_max": {"type": "integer", "minimum": 0},
        "seed_vector": _SEED_VECTOR,
        "blaschke": _BLASCHKE,
        "tolerances": _TOLERANCES,
        "seed": {"type": "integer", "minimum": 0},
        "label": {"type": "string"},
    },
    "additionalProperties": False,
}

CHAIN_SCHEMA = {
    "type": "object",
    "required": ["operator", "depth"],
    "properties": {
        "schema": {"const": "aihs-chain/1"},
        "operator": _OPERATOR,
        "depth": {"type": "integer", "minimum": 1},
        "seed_vector": _SEED_VECTOR,
        "witness": {"type": "boolean"},
        "codim": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "label": {"type": "string"},
    },
    "additionalProperties": False,
}

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["runs"],
    "properties": {
        "schema": {"const": "aihs-sweep/1"},
        "runs": {"type": "array", "items": RUN_SCHEMA, "minItems": 1},
        "label": {"type": "string"},
    },
    "additionalProperties": False,
}

PROBE_SCHEMA = {
    "type": "object",
    "required": ["dim", "k_max"],
    "properties": {
        "schema": {"const": "aihs-probe/1"},
        "dim": {"type": "integer", "minimum": 2},
        "k_max": {"type": "integer", "minimum": 1},
        "n_max": {"type": "integer", "minimum": 1},
        "p": {"type": "number", "minimum": 1},
        "label": {"type": "string"},
    },
    "additionalProperties": False,
}

_SCHEMAS = {
    "build": RUN_SCHEMA,
    "verify": RUN_SCHEMA,
    "chain": CHAIN_SCHEMA,
    "sweep": SWEEP_SCHEMA,
    "probe-dense": PROBE_SCHEMA,
}


def parse_int(literal: str) -> int:
    """A JSON integer literal as an int, rejected past the float range.

    Every number field is read as a float, so a larger integer could only
    end in an ``OverflowError`` there.  The digits are counted first, since
    ``int`` refuses literals of more than a few thousand of them.
    """
    if len(literal) > 308:  # a shorter literal stays below 1e308
        digits = len(literal.lstrip("-"))
        if digits > 309 or abs(int(literal)) > sys.float_info.max:
            raise ArgumentError(f"integer literal {literal[:12]}... of {digits} digits "
                                "lies beyond the float range")
    return int(literal)


def load_config(path) -> dict:
    def reject(literal):
        raise ArgumentError(f"config {path} holds {literal}, which is not a JSON number")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject, parse_int=parse_int)
        except json.JSONDecodeError as exc:
            raise ArgumentError(f"config {path} is not valid JSON: {exc}") from exc


# every JSON Schema (draft 7) keyword the checker implements
KEYWORDS = frozenset({"type", "const", "enum", "minimum", "exclusiveMinimum", "pattern", "items",
                      "minItems", "maxItems", "required", "properties", "additionalProperties"})


def _is(doc, kind: str) -> bool:
    if kind in ("number", "integer"):  # draft 7: True is no number, and 1.0 is an integer
        return (isinstance(doc, (int, float)) and not isinstance(doc, bool)
                and (kind == "number" or isinstance(doc, int) or doc.is_integer()))
    return isinstance(doc, {"string": str, "boolean": bool, "array": list, "object": dict}[kind])


def _errors(schema: dict, doc, path: tuple) -> list:
    """Each violation as (path, message), in schema order.

    Every keyword applies, as in draft 7: a failed ``type`` does not end the
    node, so 1.5 against ``{"type": "integer", "minimum": 2}`` fails twice.
    """
    found = []
    is_dict, is_list = isinstance(doc, dict), isinstance(doc, list)
    for key, value in schema.items():
        message = None
        if key == "type":
            kinds = [value] if isinstance(value, str) else value
            if not any(_is(doc, kind) for kind in kinds):
                message = f"{doc!r} is not of type {', '.join(map(repr, kinds))}"
        elif key == "properties" and is_dict:
            for name, sub in value.items():
                if name in doc:
                    found += _errors(sub, doc[name], path + (name,))
        elif key == "items" and is_list:
            if value is _COMPLEX and _is_pair_list(doc):
                continue  # every entry is a valid [re, im] pair
            for index, item in enumerate(doc):
                found += _errors(value, item, path + (index,))
        elif key == "required" and is_dict:
            found += [(path, f"{name!r} is a required property") for name in value
                      if name not in doc]
        elif key == "additionalProperties" and is_dict and value is False:
            extras = [repr(name) for name in sorted(doc, key=str)
                      if name not in schema.get("properties", ())]
            if extras:
                message = (f"Additional properties are not allowed ({', '.join(extras)} "
                           f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "const" and doc != value:
            message = f"{value!r} was expected"
        elif key == "enum" and doc not in value:
            message = f"{doc!r} is not one of {value!r}"
        elif key == "minimum" and _is(doc, "number") and doc < value:
            message = f"{doc!r} is less than the minimum of {value!r}"
        elif key == "exclusiveMinimum" and _is(doc, "number") and doc <= value:
            message = f"{doc!r} is less than or equal to the minimum of {value!r}"
        elif key == "pattern" and isinstance(doc, str) and not re.search(value, doc):
            message = f"{doc!r} does not match {value!r}"
        elif key == "minItems" and is_list and len(doc) < value:
            message = f"{doc!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "maxItems" and is_list and len(doc) > value:
            message = f"{doc!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        if message:
            found.append((path, message))
    return found


def check_document(schema: dict, doc, what: str) -> None:
    """Raise ``<what> invalid at <path>: <message>`` for the most relevant violation.

    That is the shallowest. Among equally shallow ones at different nodes,
    the path that sorts last wins (a later list index, a key later in the
    alphabet); at one node, the first in schema order. Rule and messages are
    those of the draft-7 reference validator, which
    tests/test_schema_checker.py holds this checker to.
    """
    found = _errors(schema, doc, ())
    if found:
        path, message = max(found, key=lambda error: (-len(error[0]), error[0]))
        raise ArgumentError(f"{what} invalid at {'/'.join(map(str, path)) or '<root>'}: {message}")


def _reads(block: dict, keys: tuple, path: str, what: str) -> None:
    """Reject a key of ``block`` outside ``keys``: ``what`` never reads it."""
    extra = sorted(set(block) - set(keys))
    if extra:
        raise ArgumentError(f"config key {path}/{extra[0]} has no effect on {what}")


def _check_operator(op: dict) -> None:
    """Check that an operator block holds the keys its family and kinds need, and no others."""
    family = op["family"]
    if family == "dense":
        if "matrix" not in op:
            raise ArgumentError("dense operator config requires a 'matrix' entry")
        _reads(op, ("family", "dim", "matrix"), "operator", "dense operator")
        matrix = op["matrix"]
        if matrix.get("kind", "explicit") == "random-gaussian":
            _reads(matrix, ("kind", "scale"), "operator/matrix", "random-gaussian matrix")
            return
        _reads(matrix, ("kind", "entries"), "operator/matrix", "explicit matrix")
        if "entries" not in matrix:
            raise ArgumentError("an explicit matrix requires 'entries'")
        if len(set(map(len, matrix["entries"]))) > 1:
            raise ArgumentError("the rows of operator/matrix/entries differ in length")
        return
    if "weights" not in op:
        raise ArgumentError(f"{family} requires a 'weights' entry")
    _reads(op, ("family", "dim", "weights"), "operator", f"{family} operator")
    weights = op["weights"]
    kind = weights["kind"]
    param = {"explicit": "values", "geometric": "ratio"}.get(kind)
    if param is None:
        _reads(weights, ("kind",), "operator/weights", f"{kind} weights")
        return
    params = weights.get("params", {})
    _reads(params, (param,), "operator/weights/params", f"{kind} weights")
    if param not in params:
        raise ArgumentError(f"{kind} weights require params.{param}")


def validate_config(cfg: dict, command: str) -> dict:
    """Schema- and semantics-check a config for the given subcommand.

    Beyond the schema: a key that the chosen family or kind never reads is
    rejected, since it would have no effect.
    """
    if command not in _SCHEMAS:
        raise ArgumentError(f"no config schema for command {command!r}")
    check_document(_SCHEMAS[command], cfg, "config")

    op = cfg.get("operator", {})
    if op:
        _check_operator(op)
    if "codim" in cfg and cfg["codim"] >= op.get("dim", 0):
        raise ArgumentError("codim must be below the operator dimension")
    seed_vec = cfg.get("seed_vector")
    if seed_vec is not None:
        kind = seed_vec["kind"]
        _reads(seed_vec, ("kind", "index" if kind == "basis" else "values"), "seed_vector",
               f"{kind} seed_vector")
        if kind == "basis" and seed_vec.get("index", 0) >= op.get("dim", 0):
            raise ArgumentError("seed_vector basis index out of range")
        if kind == "explicit" and "values" not in seed_vec:
            raise ArgumentError("explicit seed_vector requires 'values'")
    if cfg.get("construction") == "entire" and "blaschke" in cfg:
        raise ArgumentError("config key blaschke has no effect on entire construction")
    if cfg.get("construction") == "blaschke":
        if cfg.get("k_max", 0) < 1:
            raise ArgumentError("blaschke construction needs k_max >= 1 functionals")
        seq = (cfg.get("blaschke") or {}).get("sequence")
        if seq is not None:
            kind = seq["kind"]
            param = {"geometric": ("ratio",), "explicit": ("values",)}.get(kind, ())
            _reads(seq, ("kind",) + param, "blaschke/sequence", f"{kind} sequence")
            if kind == "geometric" and not 0.0 < seq.get("ratio", 0.0) < 1.0:
                raise ArgumentError("geometric blaschke sequence needs ratio in (0, 1)")
            if kind == "explicit" and len(seq.get("values", [])) != cfg["m"]:
                raise ArgumentError("explicit blaschke sequence needs exactly m values")
    return cfg


def seed_vector_from_config(cfg: dict | None, dim: int) -> np.ndarray:
    """Materialize the seed vector e (default: first basis vector)."""
    e = np.zeros(dim, dtype=np.complex128)
    if cfg is None:
        e[0] = 1.0
        return e
    if cfg["kind"] == "basis":
        e[cfg.get("index", 0)] = 1.0
        return e
    values = cfg["values"]
    if len(values) != dim:
        raise ArgumentError(f"explicit seed vector needs {dim} entries, got {len(values)}")
    return _complex_entries(values)


def tolerances_from_config(cfg: dict | None, **overrides) -> Tolerances:
    """Defaults, updated by the config block, updated by CLI overrides; each a finite number > 0."""
    merged = dict(cfg or {})
    merged.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(Tolerances)}
    bad = set(merged) - known
    if bad:
        raise ArgumentError(f"unknown tolerance keys: {sorted(bad)}")
    for name, value in merged.items():
        if not 0 < value < math.inf:
            raise ArgumentError(f"tolerance {name} must be a finite number > 0, got {value!r}")
    return Tolerances(**merged)
