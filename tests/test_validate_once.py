"""A model is checked once, when its ModelParams is built; no call checks it
again.  Only the continuum side asks for subcriticality, once per run."""

import json
import sys

import numpy as np
import pytest

from helpers import two_village_params

from varw import (
    ConcentrationConfig,
    LLNConfig,
    StackSource,
    run_concentration,
    run_kappa_equivalence,
    run_lln,
    single_loop,
    single_loop_tilde,
    single_loop_trials,
    stabilize,
)
from varw.cli import main


@pytest.fixture
def checks(monkeypatch):
    """Count the calls of the structural check and of validate_model through
    every varw module that binds them, as ("_check_structure",) or
    ("validate_model",)."""
    monkeypatch.setenv("VARW_THREADS", "1")  # keep every run in this process
    calls = []

    def counting(name, real):
        def counted(params, *args, **kwargs):
            calls.append((name, *args, *kwargs.values()))
            return real(params, *args, **kwargs)

        return counted

    modules = [m for name, m in list(sys.modules.items()) if name == "varw" or name.startswith("varw.")]
    for mod in modules:
        for name in ("validate_model", "_check_structure"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls


SUBCRITICAL = [("validate_model",)]


def test_library_calls_trust_a_built_model(checks):
    params = two_village_params()
    assert checks == [("_check_structure",)]  # construction checks, once
    n, M = 20, np.array([8, 6])
    src = StackSource(params, n, 1)
    runs = {
        "stabilize": (lambda: stabilize(params, n, src), []),
        "single_loop": (lambda: single_loop(params, n, src, M), []),
        "single_loop_tilde": (lambda: single_loop_tilde(params, n, src, M, 2), []),
        "single_loop_trials": (lambda: single_loop_trials(params, n, [1, 2, 3], M, [4, 5, 6]), []),
        "run_kappa_equivalence": (lambda: run_kappa_equivalence(params, n, M, 200, seed=3), []),
        "run_concentration": (
            lambda: run_concentration(ConcentrationConfig(params=params, n=n, M=M, a=0.5, trials=30)),
            SUBCRITICAL,
        ),
        "run_lln": (lambda: run_lln(LLNConfig(params=params, n_values=[20, 40], seeds=[1, 2])), SUBCRITICAL),
    }
    for name, (run, want) in runs.items():
        checks.clear()
        run()
        assert checks == want, name


def test_cli_commands_check_the_model_once(checks, tmp_path):
    model = tmp_path / "two_village.json"
    model.write_text(
        json.dumps({"kernel": [[0.0, 0.5], [0.4, 0.0]], "lambda": [1.0, 1.0], "sigma": [0.2, 0.3], "nu": [0.5, 0.3]})
    )
    out = str(tmp_path / "out")
    structure = [("_check_structure",)]
    commands = [
        (["validate"], structure),
        (["validate", "--strict"], structure + SUBCRITICAL),
        (["solve"], structure + SUBCRITICAL),
        (["simulate", "--n", "30"], structure),
        (["single-loop", "--n", "30", "--M", "9,7"], structure),
        (["lln", "--n", "30", "--num-seeds", "4", "--out", out], structure + SUBCRITICAL),
        (["concentration", "--n", "30", "--M", "9,7", "--a", "0.5", "--trials", "30", "--out", out],
         structure + SUBCRITICAL),
        (["kappa-test", "--n", "30", "--M", "9,7", "--trials", "200", "--out", out], structure),
    ]
    for argv, want in commands:
        checks.clear()
        assert main([argv[0], "--model", str(model), *argv[1:]]) == 0, argv
        assert checks == want, argv

