"""Tests of the benchmark itself: gate, determinism, tracer and output.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the workloads at smoke size (small operators), so the whole file
takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as trc  # noqa: E402
import workloads as wls  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name, main=None, trace=False, seconds=0.1, **expect):
    wl = wls.WORKLOADS[name]
    if expect:
        wl = dataclasses.replace(wl, expect={**wl.expect, **expect})
    return bench.run(wl, seed=0, seconds=seconds, trace=trace, smoke=True, main=main)


def _cli(args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(wls.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in wls.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == trc.LAYER_METRICS


def test_inputs_depend_only_on_the_seed():
    for wl in wls.WORKLOADS.values():
        assert wls.make_config(wl, 7) == wls.make_config(wl, 7)
        assert wls.make_config(wl, 7) != wls.make_config(wl, 8)


def test_ratios_come_from_the_checked_grids():
    for name, grid in (("entire-n1024", wls.ENTIRE_RATIOS), ("chain-depth10", wls.CHAIN_RATIOS)):
        drawn = {wls.make_config(wls.WORKLOADS[name], seed)["operator"]["weights"]["params"]["ratio"]
                 for seed in range(200)}
        assert drawn == set(grid)


@pytest.mark.parametrize("trace, spec_key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, spec_key):
    proc = _cli(["--workload", "chain-depth10", "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert f"{name} " in text and f" {unit} " in text


def test_wrong_stored_verdict_is_a_failed_operation():
    report = _run("chain-depth10", depth_reached=9)
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "chain depth 10, expected 9" in report["failures"][0]


def test_forced_nonzero_exit_is_a_failed_operation():
    real = bench.load_cli(ROOT)

    def failing(argv):
        real(argv)
        return 1

    report = _run("chain-depth10", main=failing)
    assert report["result"]["failed"] == report["result"]["attempted"] >= 1
    assert "exited 1, expected 0" in report["failures"][0]


def test_audit_drift_over_tol_audit_is_a_failed_operation():
    """The certificate records tol_audit = 1e-14 from its config; its raw
    vectors then move by 1e-12.  ``verify`` audits at the default tol_audit
    and passes, but the drift it reports exceeds the recorded one."""
    real = bench.load_cli(ROOT)
    base = wls.WORKLOADS["entire-n1024"]

    def strict(rng, smoke):
        return {**base.make_config(rng, smoke), "tolerances": {"tol_audit": 1e-14}}

    def drifting(argv):
        if argv[0] == "verify":
            path = Path(argv[1])
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["raw_vectors"]["data"] = [
                [(float.fromhex(re) * (1 + 1e-12)).hex(), im]
                for re, im in doc["raw_vectors"]["data"]
            ]
            path.write_text(json.dumps(doc), encoding="utf-8")
        return real(argv)

    wl = dataclasses.replace(base, make_config=strict)
    honest = bench.run(wl, seed=0, seconds=0.1, trace=False, smoke=True)
    assert honest["result"]["correct"], honest["failures"]
    report = bench.run(wl, seed=0, seconds=0.1, trace=False, smoke=True, main=drifting)
    assert report["result"]["failed"] == report["result"]["attempted"] >= 1
    assert "exceeds tol_audit 1.0e-14" in report["failures"][0]


def test_artifacts_repeat_across_runs_and_under_the_tracer():
    plain = _run("sweep-small", seconds=0.1)
    again = _run("sweep-small", seconds=0.1)
    traced = _run("sweep-small", trace=True, seconds=0.1)
    for report in (plain, again, traced):
        assert report["result"]["correct"], report["failures"]
    assert plain["artifact_sha256"] == again["artifact_sha256"] == traced["artifact_sha256"]
    assert len(plain["artifact_sha256"]) == 13  # 12 certificates and the sweep CSV


def test_traced_run_explains_the_produce_call():
    report = _run("entire-n1024", trace=True, seconds=0.1)
    assert report["result"]["correct"], report["failures"]
    metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    assert metrics["trace.coverage"] > 0.9
    assert metrics["resolvent.solves"] >= 16  # m solves in build, m re-solves in verify
    assert metrics["halfspace.m_achieved_ratio"] == 1.0
    assert metrics["serialize.bytes_written"] > 0 and metrics["serialize.bytes_read"] > 0
    assert 0.0 < metrics["resolvent.kept_ratio"] <= 1.0
    spans = report["spans"]
    names = {s["name"] for s in spans}
    assert {"cli.main", "halfspace.build_entire", "operators.compute_orbit",
            "resolvent.ResolventSolver.solve", "serialize.write_certificate"} <= names
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            assert spans[span["parent"]]["op"] == span["op"]


def test_tracer_restores_the_package():
    bench.load_cli(ROOT)
    import aihs.cli
    import aihs.halfspace
    import aihs.resolvent

    before = (aihs.halfspace.compute_orbit, aihs.cli.validate_config,
              aihs.resolvent.ResolventSolver.__dict__["solve"])
    tracer = trc.Tracer()
    tracer.install()
    assert aihs.halfspace.compute_orbit is not before[0]
    tracer.uninstall()
    after = (aihs.halfspace.compute_orbit, aihs.cli.validate_config,
             aihs.resolvent.ResolventSolver.__dict__["solve"])
    assert after == before


def test_tail_is_never_below_the_median():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, "max of n=3 (fewer than 21 samples)")
    samples = [float(i) for i in range(1, 41)]
    value, label = bench.tail(samples)
    assert value == 30.0 and label == "p75 of n=40"
    assert sum(s > value for s in samples) == 10


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "entire-n1024", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
