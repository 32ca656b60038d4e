"""The traced benchmark run patches package attributes by name.  Removing or
renaming one of them fails here in milliseconds; the benchmark's own smoke
test (`perfbench/test_smoke.py`) would catch it only in a slow run."""

import importlib
from pathlib import Path

import numpy as np

from helpers import two_village_params

import varw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("traced")


def test_traced_run_finds_every_attribute_it_patches(monkeypatch):
    traced = _traced(monkeypatch)
    before = varw.simulator.validate_model
    with traced.patched(varw, traced.Tracer(0, False)):
        assert varw.simulator.validate_model is not before
    assert varw.simulator.validate_model is before


def test_traced_counts_of_a_chunked_lln_equal_per_seed_runs(monkeypatch):
    traced = _traced(monkeypatch)
    monkeypatch.setenv("VARW_THREADS", "1")
    params, n, seeds = two_village_params(), 100, [1, 2, 3, 4, 5]
    assert varw.simulator._trials_per_chunk(params.num_villages, n) >= len(seeds)  # one chunk
    chunked = traced.Tracer(0, False)
    with traced.patched(varw, chunked):
        varw.run_lln(varw.LLNConfig(params=params, n_values=[n], seeds=seeds))
    per_seed = traced.Tracer(0, False)
    with traced.patched(varw, per_seed):  # the calls one (n, seed) run made before chunking
        for seed in seeds:
            src = varw.StackSource(params, n, seed)
            sim = varw.experiments.stabilize(params, n, src)
            varw.experiments.single_loop(params, n, src, sim.M_star)
    families = ("airplane_tickets", "taxi_tickets", "landlord_notices")
    for key in ("simulator.instructions", *(f"stacks.{f}" for f in families)):
        assert chunked.counts[key] == per_seed.counts[key] > 0, key
    # the probes re-run the first single_loop call on a source of its seed
    _, _, seed, M, _ = chunked.first_loop
    assert seed == seeds[0] and M.shape == (params.num_villages,)


def test_traced_probes_run_on_the_first_loop_of_a_kappa_test(monkeypatch):
    """The probe calls the traced run makes on a workload that never
    stabilizes (`trials_small`), on a tiny kappa test."""
    traced = _traced(monkeypatch)
    tracer = traced.Tracer(0, False)
    with traced.patched(varw, tracer):
        varw.run_kappa_equivalence(two_village_params(), 20, [8, 6], 40, seed=3)
    p0, n0, seed0, M0, I0 = tracer.first_loop
    assert isinstance(seed0, int) and n0 == 20
    src = varw.StackSource(p0, n0, seed0)
    numbers = [*varw.single_loop_tilde(p0, n0, src, M0, 1)]
    numbers += traced.stack_probes(varw, p0, n0, seed0, M0, I0).values()
    numbers.append(traced.single_loop_peak_mb(varw, p0, n0, seed0, M0))
    numbers += traced.stabilize_probe(varw, p0, n0, seed0).values()
    assert np.all(np.isfinite(np.array(numbers, dtype=float)))
