"""The traced benchmark run patches package attributes by name.  Removing or
renaming one of them fails here in milliseconds; the benchmark's own smoke
test (`perfbench/test_smoke.py`) would catch it only in a slow run."""

import importlib
from pathlib import Path

import varw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_finds_every_attribute_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("traced")
    before = varw.simulator.validate_model
    with traced.patched(varw, traced.Tracer(0, False)):
        assert varw.simulator.validate_model is not before
    assert varw.simulator.validate_model is before
