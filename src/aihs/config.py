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
    "parse_float",
    "JSON_DECODER",
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


def _record(required=None, /, **properties) -> dict:
    """A closed object schema: these properties and no others, ``required`` (default: all)
    among them."""
    required = list(properties if required is None else required)
    return {"type": "object", **({"required": required} if required else {}),
            "properties": properties, "additionalProperties": False}


# a number or an [re, im] pair; the item keywords apply to arrays only
_COMPLEX = {"type": ["number", "array"], "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_COMPLEX_LIST = {"type": "array", "items": _COMPLEX}
_VALUES = {**_COMPLEX_LIST, "minItems": 1}
_COUNT = {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_LABEL = {"type": "string"}

# each kind of a block, with the keys past "kind" that it reads: the schema's enum lists
# the kinds, and a key that the chosen kind does not read is rejected as having no effect
# (a weight kind's keys sit in the weights' "params")
_WEIGHT_KINDS = {"explicit": ("values",), "geometric": ("ratio",), "factorial-decay": ()}
_MATRIX_KINDS = {"explicit": ("entries",), "random-gaussian": ("scale",)}
_SEED_VECTOR_KINDS = {"basis": ("index",), "explicit": ("values",)}
_SEQUENCE_KINDS = {"inverse-square": (), "geometric": ("ratio",), "explicit": ("values",)}

_OPERATOR = _record(
    ("family", "dim"),
    family={"enum": ["forward-weighted-shift", "donoghue-backward-shift", "dense"]},
    dim={"type": "integer", "minimum": 2},
    weights=_record(("kind",), kind={"enum": list(_WEIGHT_KINDS)},
                    params=_record((), values=_VALUES, ratio=_COMPLEX)),
    matrix=_record((), kind={"enum": list(_MATRIX_KINDS)},
                   entries={"type": "array", "items": _COMPLEX_LIST}, scale=_POSITIVE),
)
_SEED_VECTOR = _record(("kind",), kind={"enum": list(_SEED_VECTOR_KINDS)}, index=_COUNT,
                       values=_VALUES)

RUN_SCHEMA = _record(
    ("operator", "construction", "m", "k_max"),
    schema={"const": "aihs-run/1"},
    operator=_OPERATOR,
    construction={"enum": ["entire", "blaschke"]},
    m={"type": "integer", "minimum": 1},
    k_max=_COUNT,
    seed_vector=_SEED_VECTOR,
    blaschke=_record((), sequence=_record(("kind",), kind={"enum": list(_SEQUENCE_KINDS)},
                                          ratio={"type": "number"}, values=_COMPLEX_LIST),
                     defect_cap=_POSITIVE),
    tolerances=_record((), **dict.fromkeys((f.name for f in dataclasses.fields(Tolerances)),
                                           _POSITIVE)),
    seed=_COUNT,
    label=_LABEL,
)
CHAIN_SCHEMA = _record(
    ("operator", "depth"),
    schema={"const": "aihs-chain/1"},
    operator=_OPERATOR,
    depth={"type": "integer", "minimum": 1},
    seed_vector=_SEED_VECTOR,
    witness={"type": "boolean"},
    codim={"type": "integer", "minimum": 1},
    seed=_COUNT,
    label=_LABEL,
)
SWEEP_SCHEMA = _record(("runs",), schema={"const": "aihs-sweep/1"},
                       runs={"type": "array", "items": RUN_SCHEMA, "minItems": 1}, label=_LABEL)
PROBE_SCHEMA = _record(
    ("dim", "k_max"),
    schema={"const": "aihs-probe/1"},
    dim={"type": "integer", "minimum": 2},
    k_max={"type": "integer", "minimum": 1},
    n_max={"type": "integer", "minimum": 1},
    p={"type": "number", "minimum": 1},
    label=_LABEL,
)

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


def parse_float(literal: str) -> float:
    """A JSON fraction or exponent literal as a float, rejected past the float range."""
    value = float(literal)
    if math.isinf(value):
        shown = literal if len(literal) <= 24 else literal[:12] + "..."
        raise ArgumentError(f"number literal {shown} lies beyond the float range")
    return value


def _reject_constant(literal: str):
    raise ArgumentError(f"{literal} is not a JSON number")


#: The one reader of configs and certificates; ``json.loads`` with a keyword would build a
#: decoder per call.  RFC 8259 has no number for NaN or Infinity.
JSON_DECODER = json.JSONDecoder(parse_int=parse_int, parse_float=parse_float,
                                parse_constant=_reject_constant)


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return JSON_DECODER.decode(fh.read())
        except json.JSONDecodeError as exc:
            raise ArgumentError(f"config {path} is not valid JSON: {exc}") from exc


_TYPES = {"string": str, "boolean": bool, "array": list, "object": dict}


def _is(doc, kind: str) -> bool:
    if kind in ("number", "integer"):  # draft 7: True is no number, and 1.0 is an integer
        return (isinstance(doc, (int, float)) and not isinstance(doc, bool)
                and (kind == "number" or isinstance(doc, int) or doc.is_integer()))
    return isinstance(doc, _TYPES[kind])


def _members(values: list) -> tuple:
    """(the non-bools, the bools) among the scalars ``values``: in draft 7, unlike in
    Python, ``False`` equals no 0 and ``True`` no 1."""
    if any(isinstance(value, (list, dict)) for value in values):
        raise ValueError(f"the schema checker compares scalars only, not {values!r}")
    return ([value for value in values if type(value) is not bool],
            [value for value in values if type(value) is bool])


def _compile(schema: dict):
    """The checker of one schema node: a function of a document that returns the
    violations as (path, message) pairs in schema order, or a false value when there
    are none.

    Each keyword becomes one test, and ``properties`` and ``items`` call the
    checkers of their sub-schemas (:func:`_checker`), so checking a document
    walks no schema.  Every keyword applies, as in draft 7: a failed ``type``
    does not end the node, so 1.5 against ``{"type": "integer", "minimum": 2}``
    fails twice.  A message is written only when its keyword fails.  A keyword
    the checker does not implement, ``additionalProperties`` other than false,
    or a ``const`` or ``enum`` that holds a list or an object raises
    ``ValueError`` here.
    """
    tests = []
    for key, value in schema.items():
        if key == "type":
            kinds = [value] if isinstance(value, str) else value
            note = f"is not of type {', '.join(map(repr, kinds))}"
            if {"number", "integer"}.isdisjoint(kinds):
                def test(doc, types=tuple(_TYPES[kind] for kind in kinds), note=note):
                    if not isinstance(doc, types):
                        return [((), f"{doc!r} {note}")]
            else:
                def test(doc, kinds=kinds, note=note):
                    if not any(_is(doc, kind) for kind in kinds):
                        return [((), f"{doc!r} {note}")]
        elif key == "const":
            def test(doc, const=value, ok=_members([value])):
                if doc not in ok[type(doc) is bool]:
                    return [((), f"{const!r} was expected")]
        elif key == "enum":
            def test(doc, enum=value, ok=_members(value)):
                if doc not in ok[type(doc) is bool]:
                    return [((), f"{doc!r} is not one of {enum!r}")]
        elif key == "minimum":
            def test(doc, low=value):
                if _is(doc, "number") and doc < low:
                    return [((), f"{doc!r} is less than the minimum of {low!r}")]
        elif key == "exclusiveMinimum":
            def test(doc, low=value):
                if _is(doc, "number") and doc <= low:
                    return [((), f"{doc!r} is less than or equal to the minimum of {low!r}")]
        elif key == "pattern":
            def test(doc, search=re.compile(value).search, pattern=value):
                if isinstance(doc, str) and search(doc) is None:
                    return [((), f"{doc!r} does not match {pattern!r}")]
        elif key == "minItems":
            def test(doc, low=value, note="should be non-empty" if value == 1 else "is too short"):
                if isinstance(doc, list) and len(doc) < low:
                    return [((), f"{doc!r} {note}")]
        elif key == "maxItems":
            def test(doc, high=value, note="is too long" if value else "is expected to be empty"):
                if isinstance(doc, list) and len(doc) > high:
                    return [((), f"{doc!r} {note}")]
        elif key == "items":
            # a list of valid [re, im] pairs is checked in one pass
            def test(doc, item=_checker(value), pairs=value is _COMPLEX):
                if isinstance(doc, list) and not (pairs and _is_pair_list(doc)):
                    found = list(map(item, doc))
                    if any(found):
                        return [((index, *path), message) for index, errors in enumerate(found)
                                if errors for path, message in errors]
        elif key == "properties":
            def test(doc, checks=[(name, _checker(sub)) for name, sub in value.items()]):
                found = None
                for name, check in checks if isinstance(doc, dict) else ():
                    errors = name in doc and check(doc[name])
                    if errors:
                        found = (found or []) + [((name, *path), message)
                                                 for path, message in errors]
                return found
        elif key == "required":
            def test(doc, required=value, keys=frozenset(value)):
                if isinstance(doc, dict) and not doc.keys() >= keys:
                    return [((), f"{name!r} is a required property")
                            for name in required if name not in doc]
        elif key == "additionalProperties" and value is False:
            def test(doc, known=frozenset(schema.get("properties", ()))):
                if isinstance(doc, dict) and not doc.keys() <= known:
                    extras = [repr(name) for name in sorted(doc, key=str) if name not in known]
                    return [((), f"Additional properties are not allowed ({', '.join(extras)} "
                                 f"{'was' if len(extras) == 1 else 'were'} unexpected)")]
        else:
            raise ValueError(f"the schema checker does not implement {key!r}: {value!r}")
        tests.append(test)
    if len(tests) == 1:
        return tests[0]

    def node(doc):
        found = None
        for test in tests:
            errors = test(doc)
            if errors:
                found = errors if found is None else found + errors
        return found
    return node


#: Each schema's checker by the schema's identity, with the schema kept alive beside it.
_CHECKERS: dict[int, tuple] = {}


def _checker(schema: dict):
    """The checker of ``schema``, compiled on its first use; a schema shared by several
    others (the run schema inside the sweep schema, a number rule) is compiled once."""
    entry = _CHECKERS.get(id(schema))
    if entry is None or entry[0] is not schema:
        entry = _CHECKERS[id(schema)] = (schema, _compile(schema))
    return entry[1]


def check_document(schema: dict, doc, what: str) -> None:
    """Raise ``<what> invalid at <path>: <message>`` for the most relevant violation.

    That is the shallowest. Among equally shallow ones at different nodes,
    the path that sorts last wins (a later list index, a key later in the
    alphabet); at one node, the first in schema order. Rule and messages are
    those of the draft-7 reference validator, which
    tests/test_schema_checker.py holds this checker to.
    """
    found = _checker(schema)(doc)
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
        kind = matrix.get("kind", next(iter(_MATRIX_KINDS)))  # the first kind is the default
        _reads(matrix, ("kind", *_MATRIX_KINDS[kind]), "operator/matrix", f"{kind} matrix")
        if "entries" in _MATRIX_KINDS[kind]:
            if "entries" not in matrix:
                raise ArgumentError(f"an {kind} matrix requires 'entries'")
            if len(set(map(len, matrix["entries"]))) > 1:
                raise ArgumentError("the rows of operator/matrix/entries differ in length")
        return
    if "weights" not in op:
        raise ArgumentError(f"{family} requires a 'weights' entry")
    _reads(op, ("family", "dim", "weights"), "operator", f"{family} operator")
    weights = op["weights"]
    kind = weights["kind"]
    keys = _WEIGHT_KINDS[kind]
    _reads(weights, ("kind", "params") if keys else ("kind",), "operator/weights", f"{kind} weights")
    params = weights.get("params", {})
    _reads(params, keys, "operator/weights/params", f"{kind} weights")
    for key in keys:
        if key not in params:
            raise ArgumentError(f"{kind} weights require params.{key}")


def _check_rules(cfg: dict) -> None:
    """The rules of one command's config past its schema."""
    op = cfg.get("operator", {})
    if op:
        _check_operator(op)
    if "codim" in cfg and cfg["codim"] >= op.get("dim", 0):
        raise ArgumentError("codim must be below the operator dimension")
    seed_vec = cfg.get("seed_vector")
    if seed_vec is not None:
        kind = seed_vec["kind"]
        keys = _SEED_VECTOR_KINDS[kind]
        _reads(seed_vec, ("kind", *keys), "seed_vector", f"{kind} seed_vector")
        if "index" in keys and seed_vec.get("index", 0) >= op.get("dim", 0):
            raise ArgumentError(f"seed_vector {kind} index out of range")
        if "values" in keys and "values" not in seed_vec:
            raise ArgumentError(f"{kind} seed_vector requires 'values'")
    if cfg.get("construction") == "entire" and "blaschke" in cfg:
        raise ArgumentError("config key blaschke has no effect on entire construction")
    if cfg.get("construction") == "blaschke":
        if cfg.get("k_max", 0) < 1:
            raise ArgumentError("blaschke construction needs k_max >= 1 functionals")
        seq = (cfg.get("blaschke") or {}).get("sequence")
        if seq is not None:
            kind = seq["kind"]
            keys = _SEQUENCE_KINDS[kind]
            _reads(seq, ("kind", *keys), "blaschke/sequence", f"{kind} sequence")
            if "ratio" in keys and not 0.0 < seq.get("ratio", 0.0) < 1.0:
                raise ArgumentError(f"{kind} blaschke sequence needs ratio in (0, 1)")
            if "values" in keys and len(seq.get("values", [])) != cfg["m"]:
                raise ArgumentError(f"{kind} blaschke sequence needs exactly m values")


def validate_config(cfg: dict, command: str) -> dict:
    """Schema- and semantics-check a config for the given subcommand.

    Beyond the schema: a key that the chosen family or kind never reads is
    rejected, since it would have no effect.  A sweep's schema checks each
    of its runs, and the rules past it apply to each run.
    """
    if command not in _SCHEMAS:
        raise ArgumentError(f"no config schema for command {command!r}")
    check_document(_SCHEMAS[command], cfg, "config")
    for run in cfg["runs"] if command == "sweep" else (cfg,):
        _check_rules(run)
    return cfg


def seed_vector_from_config(cfg: dict | None, dim: int) -> np.ndarray:
    """Materialize the seed vector e (default: first basis vector) of a checked block."""
    if cfg is not None and "values" in cfg:  # only the explicit kind reads values
        if len(cfg["values"]) != dim:
            raise ArgumentError(f"explicit seed vector needs {dim} entries, got {len(cfg['values'])}")
        return _complex_entries(cfg["values"])
    e = np.zeros(dim, dtype=np.complex128)
    e[(cfg or {}).get("index", 0)] = 1.0
    return e


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
    # as floats: certificates write thresholds and the norm-sum cap as hex floats
    return Tolerances(**{name: float(value) for name, value in merged.items()})
