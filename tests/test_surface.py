"""The public surface: the top-level names and the benchmark tracer's targets.

The benchmark tracer looks up each of its ``TARGETS`` by name and fails on a
missing one, and tier-1 does not run the benchmark's own tests, so a rename
or a deletion in the package is caught here.
"""

import importlib
import sys
from pathlib import Path

import pytest

import aihs

ROOT = Path(__file__).resolve().parents[1]


def _tracer_targets():
    sys.path.append(str(ROOT))
    try:
        from perfbench.tracer import TARGETS
    finally:
        sys.path.remove(str(ROOT))
    return [(module, name) for _, module, names in TARGETS for name in names]


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
