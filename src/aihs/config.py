"""Run configuration: schema validation and tolerance bundles."""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass

import jsonschema
import numpy as np

from .errors import ArgumentError
from .operators import _as_complex

__all__ = [
    "Tolerances",
    "load_config",
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
                "count": {"type": "integer", "minimum": 1},
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
    "$schema": "http://json-schema.org/draft-07/schema#",
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
    "$schema": "http://json-schema.org/draft-07/schema#",
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
    "$schema": "http://json-schema.org/draft-07/schema#",
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
    "$schema": "http://json-schema.org/draft-07/schema#",
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


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ArgumentError(f"config {path} is not valid JSON: {exc}") from exc


@functools.cache
def _validator(command: str):
    """The schema's validator, checked and compiled once per command."""
    schema = _SCHEMAS[command]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def check_document(validator, doc, what: str) -> None:
    """Raise jsonschema's best-match error, the one ``jsonschema.validate`` raises, in one line."""
    exc = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ArgumentError(f"{what} invalid at {path}: {exc.message}") from exc


def validate_config(cfg: dict, command: str) -> dict:
    """Schema- and semantics-check a config for the given subcommand."""
    if command not in _SCHEMAS:
        raise ArgumentError(f"no config schema for command {command!r}")
    check_document(_validator(command), cfg, "config")

    op = cfg.get("operator", {})
    family = op.get("family")
    if family == "dense" and "matrix" not in op:
        raise ArgumentError("dense operator config requires a 'matrix' entry")
    if family in ("forward-weighted-shift", "donoghue-backward-shift") and "weights" not in op:
        raise ArgumentError(f"{family} requires a 'weights' entry")
    if "codim" in cfg and cfg["codim"] >= op.get("dim", 0):
        raise ArgumentError("codim must be below the operator dimension")
    seed_vec = cfg.get("seed_vector")
    if seed_vec is not None:
        if seed_vec["kind"] == "basis" and seed_vec.get("index", 0) >= op.get("dim", 0):
            raise ArgumentError("seed_vector basis index out of range")
        if seed_vec["kind"] == "explicit" and "values" not in seed_vec:
            raise ArgumentError("explicit seed_vector requires 'values'")
    if cfg.get("construction") == "blaschke":
        if cfg.get("k_max", 0) < 1:
            raise ArgumentError("blaschke construction needs k_max >= 1 functionals")
        seq = (cfg.get("blaschke") or {}).get("sequence")
        if seq is not None:
            if seq.get("count", cfg["m"]) != cfg["m"]:
                raise ArgumentError("blaschke sequence count must equal m")
            if seq["kind"] == "geometric" and not 0.0 < seq.get("ratio", 0.0) < 1.0:
                raise ArgumentError("geometric blaschke sequence needs ratio in (0, 1)")
            if seq["kind"] == "explicit" and len(seq.get("values", [])) != cfg["m"]:
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
    return np.array([_as_complex(v) for v in values], dtype=np.complex128)


def tolerances_from_config(cfg: dict | None, **overrides) -> Tolerances:
    """Defaults, updated by the config block, updated by CLI overrides."""
    merged = dict(cfg or {})
    merged.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(Tolerances)}
    bad = set(merged) - known
    if bad:
        raise ArgumentError(f"unknown tolerance keys: {sorted(bad)}")
    return Tolerances(**merged)
