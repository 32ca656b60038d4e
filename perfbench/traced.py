"""Traced run: per-layer numbers for one workload, in one process.

    python3 perfbench/traced.py SPEC.json OUT_DIR

The workload's experiment calls run three times, each writing its outputs
into its own directory under OUT_DIR:

  r0  one worker, untraced: the calls into each layer only feed exact counts
      (instructions, solver iterations, tickets per stack family) and read
      no clock.  Its wall time is the untraced reference.
  r1  one worker, traced: every call from the benchmark and from the package's
      own modules into a layer's public function records a span (name,
      start, end, parent, run id).  Spans stay in memory and are written to
      OUT_DIR/spans.jsonl at exit.  Counts must repeat r0's exactly.
  p   untraced with the workload's worker count, for parallel efficiency
      (only for experiments that use a worker pool).

Then probes time single layers on the workload's own inputs: the stack
families, tracemalloc's peak over one single_loop, the model and solver
calls, and the CLI's start-up.  A layer call the workload never makes
(stabilize in trials_small, for instance) is probed on the workload's first
model and stack seed, and listed under "probed" in the output.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from child import SRC, execute, import_varw, load_params
from workloads import call_ops

COUNT_KEYS = (
    "simulator.instructions",
    "limit.solve_iterations",
    "stacks.airplane_tickets",
    "stacks.taxi_tickets",
    "stacks.landlord_notices",
)
LAYERS = ("model", "limit", "stacks", "simulator", "experiments")
TASK_SPANS = ("stacks.StackSource", "simulator.stabilize", "simulator.single_loop",
              "simulator.single_loop_tilde")
CLI_STARTUP_REPS = 3


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and exact counts at the calls into each layer.

    With spans off it keeps only the counts and reads no clock, except the
    process's peak RSS around the first stabilize call.
    """

    def __init__(self, run_id: int, spans_on: bool):
        self.run_id = run_id
        self.spans_on = spans_on
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self._open: list[int] = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.first_loop = None  # (params, n, seed, M, I) of the first single_loop call
        self.stabilize_rss_mb = None

    def span(self, name: str, fn, *args, **kwargs):
        if not self.spans_on:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    # -- count hooks, called with each layer call's arguments and result --------

    def on_solve(self, result, params, *args, **kwargs):
        self.counts["limit.solve_iterations"] += result.iterations

    def on_stabilize(self, result, params, n, src, *args, **kwargs):
        c = result.consumed
        air, taxi, land = int(c.airplane.sum()), int(c.taxi.sum()), int(c.landlord.sum())
        self.counts["simulator.instructions"] += air + taxi + land
        self.counts["stacks.airplane_tickets"] += air
        self.counts["stacks.taxi_tickets"] += taxi
        self.counts["stacks.landlord_notices"] += land

    def on_single_loop(self, result, params, n, src, M, *args, **kwargs):
        M = np.asarray(M, dtype=np.int64)
        self.counts["stacks.airplane_tickets"] += int(M.sum())
        self.counts["stacks.taxi_tickets"] += int(result.I.sum())
        if self.first_loop is None:
            self.first_loop = (params, n, src.master_seed, M, result.I.copy())

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            rss0 = None
            if name == "simulator.stabilize" and self.stabilize_rss_mb is None:
                rss0 = _maxrss_mb()
            result = self.span(name, fn, *args, **kwargs)
            if rss0 is not None:
                self.stabilize_rss_mb = _maxrss_mb() - rss0
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced


@contextmanager
def patched(varw, tracer: Tracer):
    """Route the package's calls into each layer through the tracer."""
    exp, sim, lim = varw.experiments, varw.simulator, varw.limit
    table = [
        (exp, "validate_model", "model.validate_model", None),
        (sim, "validate_model", "model.validate_model", None),
        (lim, "validate_model", "model.validate_model", None),
        (exp, "compute_spectral", "model.compute_spectral", None),
        (exp, "solve_fixed_point", "limit.solve_fixed_point", tracer.on_solve),
        (exp, "phi", "limit.phi", None),
        (exp, "sleep_profile", "limit.sleep_profile", None),
        (exp, "StackSource", "stacks.StackSource", None),
        (exp, "stabilize", "simulator.stabilize", tracer.on_stabilize),
        (exp, "single_loop", "simulator.single_loop", tracer.on_single_loop),
        (exp, "single_loop_tilde", "simulator.single_loop_tilde", None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in table]
    for mod, attr, name, hook in table:
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), hook))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


@contextmanager
def worker_env(count: int):
    old = os.environ.get("VARW_THREADS")
    os.environ["VARW_THREADS"] = str(count)
    try:
        yield
    finally:
        if old is None:
            del os.environ["VARW_THREADS"]
        else:
            os.environ["VARW_THREADS"] = old


def run_calls(varw, spec, params, out_dir: Path, tracer: Tracer | None):
    """Execute the workload's calls once; return (wall, ops, failed, errors)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = failed = 0
    errors: list[str] = []
    t0 = time.perf_counter()
    for call, p in zip(spec["calls"], params):
        if tracer is None:
            o, f, e = execute(varw, call, p, out_dir)
        else:
            o, f, e = tracer.span(f"experiments.{call['kind']}", execute, varw, call, p, out_dir)
        ops += o
        failed += f
        errors += e
    return time.perf_counter() - t0, ops, failed, errors


# -- span arithmetic -----------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def durations(spans: list[list], name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- probes ----------------------------------------------------------------------


def stack_probes(varw, params, n: int, seed: int, M: np.ndarray, I: np.ndarray) -> dict:
    """Time each stack family on fresh sources built from the workload's inputs."""
    V = params.num_villages
    out = {}
    out["stacks.source_init_us"] = 1e6 * median_time(lambda: varw.StackSource(params, n, seed), 50)

    def small_prefix():
        src = varw.StackSource(params, n, seed)
        t0 = time.perf_counter()
        src.airplane_prefix(0, 100)
        src.taxi_prefix(0, 100)
        return time.perf_counter() - t0

    out["stacks.small_prefix_us"] = 1e6 * statistics.median(small_prefix() for _ in range(50))

    k = min(n, 20_000)

    def first_touch():
        src = varw.StackSource(params, n, seed)
        t0 = time.perf_counter()
        for i in range(1, k + 1):
            src.landlord(0, i, 1)
        return time.perf_counter() - t0

    out["stacks.landlord_ns_per_notice"] = 1e9 * statistics.median(first_touch() for _ in range(3)) / k

    houses = np.arange(1, min(n, 1 << 20) + 1, dtype=np.int64)
    src = varw.StackSource(params, n, seed)
    reps = max(5, min(200, 200_000 // houses.size))
    out["stacks.landlord_batch_ns_per_notice"] = (
        1e9 * median_time(lambda: src.landlord_batch(0, houses, 1), reps) / houses.size
    )

    def bulk(prefix_name: str, counts: np.ndarray):
        fresh = varw.StackSource(params, n, seed)
        prefix = getattr(fresh, prefix_name)
        t0 = time.perf_counter()
        for x in range(V):
            prefix(x, int(counts[x]))
        return time.perf_counter() - t0

    out["stacks.airplane_ns_per_ticket"] = (
        1e9 * statistics.median(bulk("airplane_prefix", M) for _ in range(3)) / max(int(M.sum()), 1)
    )
    out["stacks.taxi_ns_per_ticket"] = (
        1e9 * statistics.median(bulk("taxi_prefix", I) for _ in range(3)) / max(int(I.sum()), 1)
    )
    return out


def single_loop_peak_mb(varw, params, n: int, seed: int, M: np.ndarray) -> float:
    src = varw.StackSource(params, n, seed)
    tracemalloc.start()
    try:
        varw.single_loop(params, n, src, M)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def stabilize_probe(varw, params, n: int, seed: int) -> dict:
    """stabilize on 20 stack seeds derived from the workload's first one."""
    times, instr = [], 0
    rss0 = _maxrss_mb()
    for k in range(20):
        src = varw.StackSource(params, n, varw.derive_seed(seed, 3, k))
        t0 = time.perf_counter()
        sim = varw.stabilize(params, n, src)
        times.append(time.perf_counter() - t0)
        c = sim.consumed
        instr += int(c.airplane.sum() + c.taxi.sum() + c.landlord.sum())
    return {
        "simulator.stabilize_s": statistics.median(times),
        "simulator.stabilize_ns_per_instr": 1e9 * sum(times) / instr,
        "simulator.instructions": instr,
        "simulator.stabilize_peak_mb": _maxrss_mb() - rss0,
    }


def cli_startup_s(model_path: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "varw.cli", "validate", "--model", model_path]

    def once():
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)

    return median_time(once, CLI_STARTUP_REPS)


# -- the run ---------------------------------------------------------------------


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    out_dir = Path(argv[1])
    varw = import_varw()
    params = load_params(varw, spec)
    workers = int(os.environ.get("VARW_THREADS", "1"))

    tracer0 = Tracer(run_id=0, spans_on=False)
    with worker_env(1), patched(varw, tracer0):
        wall0, ops0, failed0, errors0 = run_calls(varw, spec, params, out_dir / "r0", None)
    tracer1 = Tracer(run_id=1, spans_on=True)
    with worker_env(1), patched(varw, tracer1):
        wall1, ops1, failed1, errors1 = run_calls(varw, spec, params, out_dir / "r1", tracer1)
    spans = tracer1.spans
    ops, failed, errors = ops0 + ops1, failed0 + failed1, errors0 + errors1

    m: dict[str, float] = {}
    probed: list[str] = []
    own = self_times(spans)
    for layer in LAYERS:
        picked = [i for i, s in enumerate(spans) if s[0].startswith(layer + ".")]
        m[f"{layer}.self_s"] = sum(own[i] for i in picked)
        m[f"{layer}.calls"] = len(picked)
    m.update(tracer1.counts)
    m["trace.overhead_s"] = wall1 - wall0

    # Task time: the layer calls an experiment makes per task or per trial.
    exp_idx = {i for i, s in enumerate(spans) if s[0].startswith("experiments.")}
    task_s = sum(s[2] - s[1] for s in spans if s[3] in exp_idx and s[0] in TASK_SPANS)
    pooled = [(c, p) for c, p in zip(spec["calls"], params) if c["kind"] == "lln"]
    if pooled:
        used = min(workers, sum(call_ops(c) for c, _ in pooled))
        with worker_env(workers):
            wall_p, o, f, e = run_calls(varw, {"calls": [c for c, _ in pooled]},
                                        [p for _, p in pooled], out_dir / "p", None)
        ops, failed, errors = ops + o, failed + f, errors + e
        m["experiments.parallel_efficiency"] = task_s / (used * wall_p)
    else:
        exp_s = sum(spans[i][2] - spans[i][1] for i in exp_idx)
        m["experiments.parallel_efficiency"] = task_s / exp_s

    m["model.validate_us"] = 1e6 * statistics.median(durations(spans, "model.validate_model"))
    p0, n0, seed0, M0, I0 = tracer1.first_loop
    loops = durations(spans, "simulator.single_loop")
    m["simulator.single_loop_s"] = statistics.median(loops)
    m["simulator.single_loop_us_p50"] = 1e6 * statistics.median(loops)
    m["simulator.single_loop_us_p99"] = 1e6 * float(np.percentile(loops, 99))

    stab = durations(spans, "simulator.stabilize")
    if stab:
        m["simulator.stabilize_s"] = statistics.median(stab)
        m["simulator.stabilize_ns_per_instr"] = 1e9 * sum(stab) / tracer1.counts["simulator.instructions"]
        m["simulator.stabilize_peak_mb"] = tracer0.stabilize_rss_mb
    else:
        probe = stabilize_probe(varw, p0, n0, seed0)
        m.update(probe)
        probed += sorted(probe)

    tilde = durations(spans, "simulator.single_loop_tilde")
    if not tilde:
        src = varw.StackSource(p0, n0, seed0)
        tilde = [median_time(lambda: varw.single_loop_tilde(p0, n0, src, M0, 1), 3)]
        probed.append("simulator.single_loop_tilde_us_p50")
    m["simulator.single_loop_tilde_us_p50"] = 1e6 * statistics.median(tilde)

    solves = durations(spans, "limit.solve_fixed_point")
    spectral = durations(spans, "model.compute_spectral")
    if not solves:
        sol = varw.solve_fixed_point(p0, varw.compute_spectral(p0))
        m["limit.solve_iterations"] = sol.iterations
        solves = [median_time(lambda: varw.solve_fixed_point(p0, varw.compute_spectral(p0)), 5)]
        spectral = [median_time(lambda: varw.compute_spectral(p0), 5)]
        probed += ["limit.solve_ms", "limit.solve_iterations", "model.spectral_ms"]
    m["limit.solve_ms"] = 1e3 * statistics.median(solves)
    m["model.spectral_ms"] = 1e3 * statistics.median(spectral)

    m.update(stack_probes(varw, p0, n0, seed0, M0, I0))
    m["simulator.single_loop_peak_mb"] = single_loop_peak_mb(varw, p0, n0, seed0, M0)
    m["cli.startup_s"] = cli_startup_s(spec["calls"][0]["model"])

    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, run_id) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "run": run_id}) + "\n")
    print(json.dumps({
        "metrics": m, "counts": [tracer0.counts, tracer1.counts], "probed": probed,
        "walls": {"untraced": wall0, "traced": wall1}, "spans": len(spans),
        "ops": ops, "failed": failed, "errors": errors,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
