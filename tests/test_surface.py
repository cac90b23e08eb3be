"""The public surface: the top-level names and what the benchmark relies on.

The benchmark tracer looks up each of its ``TARGETS`` by name and fails on a
missing one, and the benchmark gate reads certificate fields and the
``verify`` drift line.  Tier-1 does not run the benchmark's own tests, so a
rename, a deletion or a format change in the package is caught here.  The
benchmark's modules are imported, never changed.
"""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import aihs
from aihs import serialize as ser
from aihs.cli import main
from aihs.operators import operator_digest, operator_from_config

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
    # and every module's __all__, so that a deleted name cannot linger there
    modules = [aihs] + [importlib.import_module(f"aihs.{info.name}")
                        for info in pkgutil.iter_modules(aihs.__path__)]
    assert len(modules) > 10
    for module in modules:
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_workload_passes_the_benchmark_gate(tmp_path, capsys, seed):
    # the benchmark audits a transcript by reading it back through aihs.serialize
    wls = _perfbench("workloads")
    wl = wls.WORKLOADS["chain-depth10"]
    cfg = wls.make_config(wl, seed, smoke=True)
    cfg_path = tmp_path / "chain.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([wl.command, "--config", str(cfg_path), "--out", str(out)])
    paths = wls.artifact_paths(wl, cfg, out)
    assert wls.check_produce(wl, code, capsys.readouterr().out, paths) == []
    wls.check_transcript(ser.decode_value(ser.read_json(paths[0])), wl.expect)


# operator.sha256 of each seed-0 certificate the benchmark writes; a
# certificate's digest pins the bits of the weights its config describes
SEED0_DIGESTS = {
    "entire-n1024": ["9d4ebca44d4c16b17fbca9072901b8c1200a31fc3f32adcf53f94128694cf2c2"],
    "blaschke-orbit256": ["8c9123ccd92fc8394e7c6fcbbdce97777920eb3f9ccfe8bd8c34cc85dea691a2"],
    "sweep-small": sorted([
        "d26131e8bb81002630c0690437d044c87cfd2a08324d658b3fa55b5a57a3cd50",
        "111a540e4de7e47848346623317a15ab28d0d39b426d66b7b3df800dc99b519d",
        "9ce8afd7257664d176e676f419abf7d101f057dfa646927fbdb1a42fe1d1bccd",
        "1d94de9b12c7a72ecb249d6ab7ffb8af3d675eb60c4b61feac118c4cc94871db",
        "f86ab9b5afe41d9c3caa1c3f933a5b0f2f60e098f79395ce8fb5ff8467bcdb04",
        "7372aeb6d480d995bb9c0e977fc7bc09185a11463727057aacacc2c8b1447330",
        "86b8740c4585bd1bc7683372a9e2a11fe53eded878aefeac638f237fbc3c4c31",
        "6dac79d57f856e79751e993d57e422402c34cd16704dd3e44ae94ff7a253c051",
        "3412f027aff814d04ea5f3ebea4db46cdfa1c092acf912d3b6380daf5d8e3869",
        "bf25800a1acd2e280f8f7a240e6faa53db8e5cd5658ac17b0930c88246fabf8e",
        "470069c33c2b22aa6e42310e460008d39fe53fe7f35cc3ca0821540939497f44",
        "f201924813dbeb2ac61e9c5bf34f35e735c9fab9424980ab702d99bfd8a47c52",
    ]),
}


@pytest.mark.parametrize("name", sorted(SEED0_DIGESTS))
def test_seed_zero_certificates_keep_their_operator_digest(name):
    wls = _perfbench("workloads")
    cfg = wls.make_config(wls.WORKLOADS[name], 0)
    runs = cfg["runs"] if "runs" in cfg else [cfg]
    digests = sorted(operator_digest(operator_from_config(run["operator"])) for run in runs)
    assert digests == SEED0_DIGESTS[name]
