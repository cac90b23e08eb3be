"""The public surface: the top-level names and what the benchmark relies on.

The benchmark tracer looks up each of its ``TARGETS`` by name and fails on a
missing one, and the benchmark gate reads certificate fields and the
``verify`` drift line.  Tier-1 does not run the benchmark's own tests, so a
rename, a deletion or a format change in the package is caught here.  The
benchmark's modules are imported, never changed.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import aihs
from aihs.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(module: str):
    sys.path.append(str(ROOT))
    try:
        return importlib.import_module(f"perfbench.{module}")
    finally:
        sys.path.remove(str(ROOT))


def _tracer_targets():
    return [(module, name) for _, module, names in _perfbench("tracer").TARGETS for name in names]


def test_top_level_names_resolve():
    for name in aihs.__all__:
        assert getattr(aihs, name) is not None, name


TARGETS = _tracer_targets()


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_tracer_target_resolves(module, name):
    owner = importlib.import_module(module)
    if "." in name:  # a method, which the tracer reads from its class dict
        cls_name, attr = name.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, name))


@pytest.mark.parametrize("name", ["entire-n1024", "blaschke-orbit256", "sweep-small"])
def test_certificate_workloads_pass_the_benchmark_gate(tmp_path, capsys, name):
    # the gate reads checks, m_achieved, tolerances.tol_audit and the drift line
    wls = _perfbench("workloads")
    wl = wls.WORKLOADS[name]
    cfg = wls.make_config(wl, 0, smoke=True)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([wl.command, "--config", str(cfg_path), "--out", str(out)])
    paths = wls.artifact_paths(wl, cfg, out)
    tolerances = wls.check_produce(wl, code, capsys.readouterr().out, paths)
    assert len(tolerances) == len(wls.certificates(paths)) >= 1
    for cert, tol_audit in zip(wls.certificates(paths), tolerances):
        code = main(["verify", str(cert)])
        wls.check_audit(code, capsys.readouterr().out, tol_audit, wl.expect)
