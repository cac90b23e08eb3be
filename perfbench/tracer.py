"""Outside-in span tracer for the aihs package.

The package is not changed.  ``Tracer.install`` replaces each public
function listed in ``TARGETS`` by a recording wrapper at every module-level
name that refers to it, which is the name its callers look up (modules
import by name, so ``aihs.halfspace.compute_orbit`` and
``aihs.operators.compute_orbit`` are both replaced).  Methods are wrapped on
their class.  ``uninstall`` puts the originals back.

Each span records its name (``<layer>.<function>``), start, end, parent
span, operation id and phase (``produce`` or ``audit``), plus a few counters
read from the call's arguments or result.  Spans stay in memory until
``to_json``.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

import numpy as np

# (layer, defining module, public names).  "Class.method" wraps a method.
TARGETS = (
    ("config", "aihs.config",
     ("load_config", "validate_config", "seed_vector_from_config", "tolerances_from_config")),
    ("operators", "aihs.operators",
     ("operator_from_config", "build_operator", "max_orbit_length", "compute_orbit")),
    ("linalg", "aihs._linalg",
     ("distance_to_span", "qr_basis", "min_norm_dual", "null_space", "numerical_rank",
      "smallest_singular_value")),
    ("entire", "aihs.entire",
     ("coefficients_from_norms", "apply_picard_shift", "find_zeros", "shifted_coefficients",
      "poly_eval_normalized")),
    ("blaschke", "aihs.blaschke", ("blaschke_taylor", "fm_coefficient_table")),
    ("resolvent", "aihs.resolvent",
     ("ResolventSolver.__init__", "ResolventSolver.solve", "ResolventSolver.condition_estimate",
      "filter_lambda_gap")),
    ("halfspace", "aihs.halfspace",
     ("build_entire", "build_blaschke", "verify_certificate", "compute_metrics")),
    ("duality", "aihs.duality", ("containment_residual",)),
    ("chains", "aihs.chains",
     ("init_chain", "extend_chain", "verify_chain", "build_chain",
      "build_non_ai_halfspace_witness", "codim_n_subspace")),
    ("serialize", "aihs.serialize",
     ("write_certificate", "read_certificate", "write_json", "read_json", "write_csv",
      "certificate_csv_row", "encode_value", "decode_value")),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _build_info(args, kwargs, cert):
    return {
        "m_requested": cert.m_requested,
        "m_achieved": cert.m_achieved,
        "excluded": len(cert.excluded_lambdas),
        "degree": cert.degree or 0,
    }


def _written(args, kwargs, path):
    return {"bytes": os.stat(path).st_size}


def _read(args, kwargs, result):
    return {"bytes": os.stat(_arg(args, kwargs, 0, "path")).st_size}


def _depth(args, kwargs, state):
    return {"depth": state.depth}


# counters read after a call returns: span name -> f(args, kwargs, result)
PROBES = {
    "operators.compute_orbit": lambda a, kw, r: {"length": r.length},
    "blaschke.blaschke_taylor": lambda a, kw, r: {"order": len(r.taylor) - 1},
    "resolvent.filter_lambda_gap":
        lambda a, kw, r: {"offered": int(np.size(_arg(a, kw, 1, "lams"))), "kept": len(r)},
    "duality.containment_residual":
        lambda a, kw, r: {"columns": int(np.shape(_arg(a, kw, 0, "vectors"))[-1])},
    "halfspace.build_entire": _build_info,
    "halfspace.build_blaschke": _build_info,
    "chains.init_chain": _depth,
    "chains.extend_chain": _depth,
    "serialize.write_certificate": _written,
    "serialize.write_json": _written,
    "serialize.write_csv": _written,
    "serialize.read_certificate": _read,
    "serialize.read_json": _read,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "phase", "info")

    def __init__(self, name, start, parent, op, phase):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.phase, self.info = parent, op, phase, None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``op`` is set; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.phase = ""
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            # same-name recursion (encode_value, decode_value) is one span
            if self.op is None or (stack and self.spans[stack[-1]].name == name):
                return fn(*args, **kwargs)
            span = Span(name, 0.0, stack[-1] if stack else -1, self.op, self.phase)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if (name == "aihs" or name.startswith("aihs.")) and m is not None
        ]
        for layer, modname, names in TARGETS:
            mod = importlib.import_module(modname)
            for qualname in names:
                if "." in qualname:  # a method, looked up on its class
                    cls_name, attr = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    sites = [(cls, attr)]
                else:
                    original = getattr(mod, qualname)
                    sites = [(m, name) for m in modules
                             for name, value in list(vars(m).items()) if value is original]
                wrapper = self.wrap(f"{layer}.{qualname}", original)
                for owner, attr in sites:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def to_json(self) -> list:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name, "start": s.start - t0, "end": s.end - t0,
                "parent": s.parent, "op": s.op, "phase": s.phase, "info": s.info,
            }
            for s in self.spans
        ]


# ----------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, how, span names).  "incl": summed duration of the outermost
# spans of the group; "self": summed self time; "count": number of spans.
_TIMED = {
    "resolvent.factor_s": ("incl", {"resolvent.ResolventSolver.__init__"}),
    "resolvent.solve_self_s": ("self", {"resolvent.ResolventSolver.solve"}),
    "resolvent.condition_s": ("incl", {"resolvent.ResolventSolver.condition_estimate"}),
    "resolvent.gap_filter_s": ("incl", {"resolvent.filter_lambda_gap"}),
    "operators.construct_s": ("incl", {"operators.operator_from_config", "operators.build_operator"}),
    "operators.orbit_s": ("incl", {"operators.compute_orbit", "operators.max_orbit_length"}),
    "linalg.distance_to_span_s": ("incl", {"linalg.distance_to_span"}),
    "linalg.qr_basis_s": ("incl", {"linalg.qr_basis"}),
    "linalg.min_norm_dual_s": ("incl", {"linalg.min_norm_dual"}),
    "entire.coefficients_s": ("incl", {"entire.coefficients_from_norms", "entire.apply_picard_shift",
                                       "entire.shifted_coefficients"}),
    "entire.zeros_s": ("incl", {"entire.find_zeros"}),
    "blaschke.taylor_s": ("incl", {"blaschke.blaschke_taylor", "blaschke.fm_coefficient_table"}),
    "halfspace.build_self_s": ("self", {"halfspace.build_entire", "halfspace.build_blaschke"}),
    "halfspace.verify_self_s": ("self", {"halfspace.verify_certificate"}),
    "halfspace.metrics_s": ("incl", {"halfspace.compute_metrics"}),
    "duality.containment_s": ("incl", {"duality.containment_residual"}),
    "chains.extend_self_s": ("self", {"chains.extend_chain"}),
    "chains.verify_s": ("incl", {"chains.verify_chain"}),
    "config.validate_s": ("incl", {"config.validate_config"}),
    "cli.self_s": ("self", {"cli.main"}),
}
_COUNTED = {
    "resolvent.solves": {"resolvent.ResolventSolver.solve"},
    "linalg.distance_to_span_calls": {"linalg.distance_to_span"},
    "duality.containment_calls": {"duality.containment_residual"},
    "chains.verify_calls": {"chains.verify_chain"},
    "config.validate_calls": {"config.validate_config"},
}

# every per-layer metric in report order, with its unit
LAYER_METRICS = {
    "resolvent.factor_s": "s", "resolvent.solve_self_s": "s", "resolvent.condition_s": "s",
    "resolvent.solves": "count", "resolvent.kept_ratio": "ratio", "resolvent.gap_filter_s": "s",
    "operators.construct_s": "s", "operators.orbit_s": "s", "operators.orbit_length": "count",
    "linalg.distance_to_span_calls": "count", "linalg.distance_to_span_s": "s",
    "linalg.qr_basis_s": "s", "linalg.min_norm_dual_s": "s",
    "entire.coefficients_s": "s", "entire.zeros_s": "s", "entire.degree": "count",
    "blaschke.taylor_s": "s", "blaschke.order": "count",
    "halfspace.build_self_s": "s", "halfspace.verify_self_s": "s", "halfspace.metrics_s": "s",
    "halfspace.lambdas_excluded": "count", "halfspace.m_achieved_ratio": "ratio",
    "duality.containment_s": "s", "duality.containment_calls": "count",
    "duality.containment_columns": "count",
    "chains.extend_self_s": "s", "chains.verify_s": "s", "chains.verify_calls": "count",
    "chains.depth_reached": "count",
    "serialize.write_s": "s", "serialize.read_s": "s", "serialize.bytes_written": "count",
    "serialize.bytes_read": "count",
    "config.validate_s": "s", "config.validate_calls": "count",
    "cli.self_s": "s",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}
LAYERS = ("cli",) + tuple(layer for layer, _, _ in TARGETS)


class _Op:
    """The spans of one operation with their self times and ancestry."""

    def __init__(self, spans: list[Span], index: list[int]):
        self.spans = spans
        self.index = index
        child = {i: 0.0 for i in index}
        for i in index:
            parent = spans[i].parent
            if parent in child:
                child[parent] += spans[i].duration
        self.self_time = {i: spans[i].duration - child[i] for i in index}

    def named(self, names) -> list[int]:
        return [i for i in self.index if self.spans[i].name in names]

    def outermost(self, pick) -> list[int]:
        """Spans accepted by ``pick`` with no accepted ancestor."""
        out = []
        for i in self.index:
            if not pick(self.spans[i]):
                continue
            parent = self.spans[i].parent
            while parent >= 0 and not pick(self.spans[parent]):
                parent = self.spans[parent].parent
            if parent < 0:
                out.append(i)
        return out

    def total(self, idx, key) -> float:
        return sum((self.spans[i].info or {}).get(key, 0) for i in idx)

    def metrics(self) -> dict:
        spans = self.spans
        out = {}
        for name, (how, names) in _TIMED.items():
            if how == "self":
                out[name] = sum(self.self_time[i] for i in self.named(names))
            else:
                out[name] = sum(spans[i].duration for i in self.outermost(lambda s: s.name in names))
        for name, names in _COUNTED.items():
            out[name] = len(self.named(names))

        offered = self.total(self.named({"resolvent.filter_lambda_gap"}), "offered")
        kept = sum(
            1 for i in self.named({"resolvent.ResolventSolver.solve"})
            if spans[i].phase == "produce" and not (spans[i].info or {}).get("error")
        )
        out["resolvent.kept_ratio"] = kept / offered if offered else 0.0
        out["operators.orbit_length"] = self.total(self.named({"operators.compute_orbit"}), "length")
        out["entire.degree"] = self.total(self.named({"halfspace.build_entire"}), "degree")
        out["blaschke.order"] = self.total(self.named({"blaschke.blaschke_taylor"}), "order")
        builds = self.named({"halfspace.build_entire", "halfspace.build_blaschke"})
        out["halfspace.lambdas_excluded"] = self.total(builds, "excluded")
        requested = self.total(builds, "m_requested")
        out["halfspace.m_achieved_ratio"] = (
            self.total(builds, "m_achieved") / requested if requested else 0.0
        )
        out["duality.containment_columns"] = self.total(
            self.named({"duality.containment_residual"}), "columns"
        )
        depths = [self.total([i], "depth") for i in self.named({"chains.init_chain", "chains.extend_chain"})]
        out["chains.depth_reached"] = max(depths, default=0)

        for phase, key in (("produce", "serialize.write_s"), ("audit", "serialize.read_s")):
            top = self.outermost(lambda s, p=phase: s.layer == "serialize" and s.phase == p)
            out[key] = sum(spans[i].duration for i in top)
        writes = self.outermost(lambda s: s.name in (
            "serialize.write_certificate", "serialize.write_json", "serialize.write_csv"))
        out["serialize.bytes_written"] = self.total(writes, "bytes")
        reads = self.outermost(lambda s: s.name in ("serialize.read_certificate", "serialize.read_json"))
        out["serialize.bytes_read"] = self.total(reads, "bytes")

        roots = [i for i in self.named({"cli.main"}) if spans[i].phase == "produce"]
        produce = sum(spans[i].duration for i in roots)
        covered = produce - sum(self.self_time[i] for i in roots)
        out["trace.coverage"] = covered / produce if produce else 0.0
        return out

    def shares(self, phase: str) -> dict:
        """Self time per layer as a share of the phase's root spans."""
        roots = [i for i in self.index if self.spans[i].parent < 0 and self.spans[i].phase == phase]
        whole = sum(self.spans[i].duration for i in roots)
        out = dict.fromkeys(LAYERS, 0.0)
        for i in self.index:
            if self.spans[i].phase == phase:
                out[self.spans[i].layer] += self.self_time[i]
        return {layer: (t / whole if whole else 0.0) for layer, t in out.items()}


def _ops(spans: list[Span], ops) -> list[_Op]:
    by_op: dict = {op: [] for op in ops}
    for i, span in enumerate(spans):
        if span.op in by_op:
            by_op[span.op].append(i)
    return [_Op(spans, index) for index in by_op.values() if index]


def layer_metrics(spans: list[Span], ops) -> dict:
    """Median over the given operations of each per-operation layer metric.

    ``trace.overhead_s`` is not a span measure; the caller adds it.
    """
    per_op = [op.metrics() for op in _ops(spans, ops)]
    if not per_op:
        return {}
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}


def layer_shares(spans: list[Span], ops) -> dict:
    """Median share of each layer's self time in produce and audit calls."""
    per_op = _ops(spans, ops)
    return {
        phase: {
            layer: statistics.median(op.shares(phase)[layer] for op in per_op)
            for layer in LAYERS
        }
        for phase in ("produce", "audit")
    } if per_op else {}
