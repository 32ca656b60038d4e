"""Workload definitions: every input a run uses is generated here from the seed.

A workload spec is a plain JSON document that names model files and the
arguments of the experiment calls; the benchmark's child processes read it
and pass only these generated inputs to the library.  This module imports
nothing from the package under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 1

# Why each workload exists (BENCHMARK.json carries a one-line form of each):
#   trials_small   thousands of tiny single_loop trials.  Per-call overhead
#                  (validation, stack chunks, per-j loops) dominates and
#                  stabilize never runs.
#   villages_wide  run_lln: the scalar stabilize loop and its landlord
#                  notices do most of the work, single_loop most of the rest.
#                  On a 128-village kernel these are many small per-village
#                  batches and short streams, and 4 tasks share 2 workers.
# A "full" size is one round, which the benchmark repeats for the whole run.
# Each round takes about two seconds on a 2-vCPU Xeon at 2.1 GHz.
WORKLOADS = ("trials_small", "villages_wide")

SIZES = {
    "full": {
        "trials_small": {"conc_trials": 1200, "kappa_trials": 1200},
        "villages_wide": {"villages": 128, "n": 500, "seeds": 4},
    },
    "tiny": {
        "trials_small": {"conc_trials": 60, "kappa_trials": 60},
        "villages_wide": {"villages": 12, "n": 60, "seeds": 2},
    },
}


def _one_village(sigma: float) -> dict:
    return {"kernel": [[0.5]], "lambda": [1.0], "sigma": [sigma], "nu": [0.5]}


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """`count` draws of U(lo, hi), one from each of `count` equal strata, shuffled.

    Each draw is still uniform on [lo, hi], but the multiset hardly changes
    from seed to seed, so neither does the total work of the instance.
    """
    step = (hi - lo) / count
    values = [lo + step * (k + rng.random()) for k in range(count)]
    rng.shuffle(values)
    return values


def villages_kernel(rng: random.Random, V: int) -> dict:
    """Ring plus 4 random out-edges per village, row sums U(0.6, 0.95).

    The ring makes the support irreducible; sigma is drawn below the
    critical density lambda/(1+lambda), so the instance is subcritical.
    """
    row_sums = _stratified(rng, 0.6, 0.95, V)
    kernel = [[0.0] * V for _ in range(V)]
    for x in range(V):
        ring = (x + 1) % V
        others = [y for y in range(V) if y not in (x, ring)]
        targets = [ring] + rng.sample(others, min(4, len(others)))
        weights = [rng.uniform(0.1, 1.0) for _ in targets]
        total = sum(weights)
        for y, w in zip(targets, weights):
            kernel[x][y] = row_sums[x] * w / total
    lam = _stratified(rng, 0.5, 2.0, V)
    sigma = [f * lx / (1.0 + lx) for f, lx in zip(_stratified(rng, 0.3, 0.9, V), lam)]
    nu = _stratified(rng, 0.1, 0.6, V)
    return {"kernel": kernel, "lambda": lam, "sigma": sigma, "nu": nu}


def make_spec(workload: str, seed: int, size: str, out_dir: Path) -> dict:
    """Generate the workload's inputs from `seed`, write its model files into
    `out_dir`, and return the spec the child processes execute."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {sorted(WORKLOADS)}")
    sz = SIZES[size][workload]
    rng = random.Random(f"varw-bench:{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)

    def model_file(name: str, doc: dict) -> str:
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    spec = {"workload": workload, "seed": seed, "size": size, "sizes": sz}
    if workload == "villages_wide":
        doc = villages_kernel(rng, sz["villages"])
        spec["calls"] = [{
            "kind": "lln",
            "model": model_file("villages_wide", doc),
            "n": [sz["n"]],
            "seeds": [rng.randrange(2**31) for _ in range(sz["seeds"])],
        }]
    else:
        spec["calls"] = [
            {
                "kind": "concentration",
                "model": model_file("concentration", _one_village(0.2)),
                "n": 200, "M": [100], "a": 0.1,
                "trials": sz["conc_trials"], "seed": rng.randrange(2**31),
            },
            {
                "kind": "kappa",
                "model": model_file("kappa", _one_village(0.3)),
                "n": 50, "M": [20],
                "trials": sz["kappa_trials"], "seed": rng.randrange(2**31),
            },
        ]
    return spec


def call_ops(call: dict) -> int:
    """Ops one experiment call attempts: a stabilized (n, seed) run, or a trial."""
    if call["kind"] == "lln":
        return len(call["n"]) * len(call["seeds"])
    return call["trials"]


def output_names(call: dict) -> list[str]:
    """Files the call writes, named as the CLI names them."""
    if call["kind"] == "lln":
        return ["lln_rows.csv", "lln_summary.csv"]
    if call["kind"] == "concentration":
        return [f"concentration_a{call['a']!r}.txt"]
    return ["kappa_test.txt"]
