"""Benchmark workloads: seeded inputs, the stored verdicts, and the gate.

Each workload draws from its seed only the inputs that may vary (a weight
ratio, unimodular phases, a run order).  Every input it can draw certifies,
so the stored verdicts below hold for every seed.  Weight ratios are drawn
from a finite grid on which each value was built and checked, not from an
interval: the verdict can change inside one (the N = 1024 entire build keeps
only 7 of its 8 zeros for ratios below about 0.883).  The gate compares each
produced artifact and each audit against the stored verdicts; any mismatch
is a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class GateError(Exception):
    """An operation whose output does not match the stored verdict."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # the aihs subcommand that produces the artifact
    make_config: Callable[[random.Random, bool], dict]
    expect: dict  # stored verdicts; see the gate functions below


# the grids the ratios are drawn from; every value gives the stored verdict
ENTIRE_RATIOS = tuple(round(0.885 + 0.0025 * i, 4) for i in range(15))  # 0.885 .. 0.92
CHAIN_RATIOS = tuple(round(0.45 + 0.0025 * i, 4) for i in range(41))  # 0.45 .. 0.55


def _forward_geometric(dim: int, ratio: float) -> dict:
    return {
        "family": "forward-weighted-shift",
        "dim": dim,
        "weights": {"kind": "geometric", "params": {"ratio": ratio}},
    }


def _entire_config(rng: random.Random, smoke: bool) -> dict:
    return {
        "schema": "aihs-run/1",
        "operator": _forward_geometric(128 if smoke else 1024, rng.choice(ENTIRE_RATIOS)),
        "construction": "entire",
        "m": 8,
        "k_max": 5,
        "seed": 0,
        "label": "entire-n1024",
    }


def _blaschke_config(rng: random.Random, smoke: bool) -> dict:
    dim = 48 if smoke else 256
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim - 1)]
    weights = [[math.cos(p), math.sin(p)] for p in phases]
    return {
        "schema": "aihs-run/1",
        "operator": {
            "family": "forward-weighted-shift",
            "dim": dim,
            "weights": {"kind": "explicit", "params": {"values": weights}},
        },
        "construction": "blaschke",
        "m": 8,
        "k_max": 5,
        "blaschke": {"sequence": {"kind": "inverse-square"}},
        "seed": 0,
        "label": "blaschke-orbit256",
    }


def _chain_config(rng: random.Random, smoke: bool) -> dict:
    return {
        "schema": "aihs-chain/1",
        "operator": {
            "family": "donoghue-backward-shift",
            "dim": 32 if smoke else 128,
            "weights": {"kind": "geometric", "params": {"ratio": rng.choice(CHAIN_RATIOS)}},
        },
        "depth": 10,
        "seed": 0,
        "label": "chain-depth10",
    }


def _sweep_config(rng: random.Random, smoke: bool) -> dict:
    runs = [
        {
            "schema": "aihs-run/1",
            "operator": _forward_geometric(dim, ratio),
            "construction": "entire",
            "m": 4,
            "k_max": 3,
            "seed": 0,
            "label": f"sweep-n{dim}-r{round(ratio * 100):03d}",
        }
        for dim in (64, 96, 128, 192)
        for ratio in (0.5, 0.7, 0.9)
    ]
    rng.shuffle(runs)
    return {"schema": "aihs-sweep/1", "runs": runs, "label": "sweep-small"}


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "entire-n1024",
            "entire build+verify at N=1024: dense resolvent LU and condition "
            "estimate, 1.6 MB certificate; orbit saturates at L=73..91",
            "build",
            _entire_config,
            {"exit": 0, "passed": True, "m_achieved": 8, "audit_exit": 0},
        ),
        Workload(
            "blaschke-orbit256",
            "Blaschke build+verify at N=256 with unimodular weights: the orbit "
            "never decays (L=N), so O(L^4) distance-to-span work dominates",
            "build",
            _blaschke_config,
            {"exit": 0, "passed": True, "m_achieved": 8, "audit_exit": 0},
        ),
        Workload(
            "chain-depth10",
            "functional-chain recursion to depth 10 at N=128: chain "
            "re-verification and containment residuals, no resolvent work",
            "chain",
            _chain_config,
            {"exit": 0, "branch": "deep-chain", "depth_reached": 10},
        ),
        Workload(
            "sweep-small",
            "12 small entire builds in one sweep, each verified: per-call "
            "Python cost, config validation and serialization dominate",
            "sweep",
            _sweep_config,
            # ratio 0.5 runs keep 3 of the 4 requested zeros at every N
            {"exit": 0, "runs": 12, "pass": 12, "passed": True, "audit_exit": 0,
             "m_achieved": {f"sweep-n{dim}-r{r:03d}": 3 if r == 50 else 4
                            for dim in (64, 96, 128, 192) for r in (50, 70, 90)}},
        ),
    )
}


def make_config(wl: Workload, seed: int, smoke: bool = False) -> dict:
    """The workload's input for this seed; the same seed gives the same input."""
    return wl.make_config(random.Random(seed), smoke)


def artifact_paths(wl: Workload, cfg: dict, outdir: Path) -> list[Path]:
    """Every file one produce call writes, in a fixed order."""
    label = cfg["label"]
    if wl.command == "build":
        return [outdir / f"{label}.cert.json", outdir / f"{label}.summary.csv"]
    if wl.command == "chain":
        return [outdir / f"{label}.transcript.json"]
    certs = [outdir / f"{run['label']}.cert.json" for run in cfg["runs"]]
    return certs + [outdir / f"{label}.sweep.csv"]


def certificates(paths: list[Path]) -> list[Path]:
    return [p for p in paths if p.name.endswith(".cert.json")]


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def check_certificate(path: Path, expect: dict) -> float:
    """Stored verdict of one certificate file; returns its recorded tol_audit."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    passed = all(entry["passed"] for entry in doc["checks"].values())
    _check(passed == expect["passed"], f"{path.name}: passed={passed}, expected {expect['passed']}")
    m_expected = expect["m_achieved"]
    if isinstance(m_expected, dict):  # per certificate, keyed by label
        m_expected = m_expected[path.name.removesuffix(".cert.json")]
    _check(
        doc["m_achieved"] == m_expected,
        f"{path.name}: m_achieved={doc['m_achieved']}, expected {m_expected}",
    )
    return float.fromhex(doc["tolerances"]["tol_audit"])


def check_produce(wl: Workload, code, output: str, paths: list[Path]) -> list[float]:
    """Gate one produce call; returns the tol_audit of each certificate."""
    expect = wl.expect
    _check(code == expect["exit"], f"{wl.command} exited {code!r}, expected {expect['exit']}")
    for path in paths:
        _check(path.is_file(), f"{wl.command} did not write {path.name}")
    if wl.command == "chain":
        check_transcript(json.loads(paths[0].read_text(encoding="utf-8")), expect)
        return []
    if wl.command == "sweep":
        with paths[-1].open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        passes = sum(row["status"] == "pass" for row in rows)
        _check(len(rows) == expect["runs"], f"sweep wrote {len(rows)} rows, expected {expect['runs']}")
        _check(passes == expect["pass"], f"sweep passed {passes} runs, expected {expect['pass']}")
        _check(f"{expect['runs']} runs, {expect['pass']} pass" in output, "sweep summary line mismatch")
    return [check_certificate(p, expect) for p in certificates(paths)]


def check_transcript(doc: dict, expect: dict) -> None:
    outcome = doc["outcome"]
    _check(outcome["branch"] == expect["branch"], f"chain branch {outcome['branch']!r}")
    _check(
        outcome["depth_reached"] == expect["depth_reached"],
        f"chain depth {outcome['depth_reached']}, expected {expect['depth_reached']}",
    )
    _check(len(doc["steps"]) == expect["depth_reached"], "chain transcript step count")


_DRIFT = re.compile(r"audit PASS \(raw vector drift ([^)\s]+)\)")


def check_audit(code, output: str, tol_audit: float, expect: dict) -> None:
    """Gate one ``aihs verify`` call against the certificate's own tol_audit."""
    _check(code == expect["audit_exit"], f"verify exited {code!r}, expected {expect['audit_exit']}")
    match = _DRIFT.search(output)
    _check(match is not None, "verify printed no drift line")
    drift = float(match.group(1))
    _check(drift <= tol_audit, f"verify drift {drift:.3e} exceeds tol_audit {tol_audit:.1e}")
