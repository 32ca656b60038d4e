import errno
import hashlib
import math
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_reaped,
    fail_os_call,
    kill_forked_workers,
    needs_fork,
    one_village_params,
    record_forks,
    two_village_params,
)

import varw.experiments as exp_mod
import varw.simulator as simulator_mod
from varw import (
    AcceptanceCheckError,
    ConcentrationConfig,
    LLNConfig,
    StepCapError,
    ValidationError,
    WorkerLostError,
    run_concentration,
    run_kappa_equivalence,
    run_lln,
)
from varw.experiments import (
    LLN_ROWS_HEADER,
    LLN_SUMMARY_HEADER,
    _pooled_chi_square,
    concentration_bounds,
    worker_count,
)


def test_run_lln_no_actives_floor_error_only(tmp_path):
    params = one_village_params(q=0.5, lam=1.0, sigma=0.35, nu=0.0)
    config = LLNConfig(params=params, n_values=[10, 100], seeds=[1, 2], tol=1e-12)
    report = run_lln(config, out_dir=tmp_path)
    for row in report.rows:
        assert row["m_n"] == 0.0
        n = row["n"]
        assert row["s_n"] == math.floor(0.35 * n) / n
        assert row["err_m_inf"] == 0.0
        assert row["err_s_inf"] <= 1.0 / n


def test_run_lln_row_shape(default_params):
    config = LLNConfig(params=default_params, n_values=[50], seeds=[3])
    report = run_lln(config)
    assert len(report.rows) == default_params.num_villages
    assert [r["village"] for r in report.rows] == [0, 1]
    assert len(report.summary) == 3  # one per metric for the single n


def test_run_lln_csv_headers_and_determinism(default_params, tmp_path):
    config = LLNConfig(params=default_params, n_values=[50, 100], seeds=[1, 2, 3])
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_lln(config, out_dir=a_dir)
    run_lln(config, out_dir=b_dir)
    rows_a = (a_dir / "lln_rows.csv").read_bytes()
    rows_b = (b_dir / "lln_rows.csv").read_bytes()
    assert rows_a == rows_b
    assert rows_a.decode().splitlines()[0] == LLN_ROWS_HEADER
    summary_a = (a_dir / "lln_summary.csv").read_bytes()
    assert summary_a == (b_dir / "lln_summary.csv").read_bytes()
    assert summary_a.decode().splitlines()[0] == LLN_SUMMARY_HEADER


def test_run_lln_parallel_matches_serial(default_params, tmp_path, monkeypatch):
    config = LLNConfig(params=default_params, n_values=[40, 80], seeds=[5, 6])
    monkeypatch.setenv("VARW_THREADS", "1")
    serial = run_lln(config, out_dir=tmp_path / "serial")
    monkeypatch.setenv("VARW_THREADS", "2")
    parallel = run_lln(config, out_dir=tmp_path / "parallel")
    assert serial.rows == parallel.rows
    assert (tmp_path / "serial/lln_rows.csv").read_bytes() == (
        tmp_path / "parallel/lln_rows.csv"
    ).read_bytes()


def test_run_lln_fails_sweep_on_broken_identity(default_params, monkeypatch):
    import varw.experiments as exp_mod
    from varw import AcceptanceCheckError
    from varw.simulator import SingleLoopResult

    def wrong_loop(params, n, src, M):
        z = np.zeros(params.num_villages, dtype=np.int64)
        return SingleLoopResult(Phi=z - 1, S=z, I=z, A=z, Q=z, J=z)

    monkeypatch.setenv("VARW_THREADS", "1")
    monkeypatch.setattr(exp_mod, "single_loop", wrong_loop)
    with pytest.raises(AcceptanceCheckError, match="fixed-point identity"):
        run_lln(LLNConfig(params=default_params, n_values=[10], seeds=[1]))


def test_run_lln_rejects_empty_grids(default_params):
    with pytest.raises(ValidationError):
        run_lln(LLNConfig(params=default_params, n_values=[], seeds=[1]))
    with pytest.raises(ValidationError):
        run_lln(LLNConfig(params=default_params, n_values=[10], seeds=[]))


def test_run_lln_requires_subcritical():
    params = one_village_params(lam=1.0, sigma=0.9, nu=0.1)
    with pytest.raises(ValidationError, match="not subcritical"):
        run_lln(LLNConfig(params=params, n_values=[10], seeds=[1]))


def test_concentration_bounds_formulas(default_params):
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    n, a = 200, 0.1
    M = np.array([100])
    bound_s, bound_phi = concentration_bounds(params, n, M, a)
    assert abs(bound_s - 2.0 * math.exp(-2.0 * (a * n - 2) ** 2 / 100.0)) < 1e-15
    t = a * n - 0.5 - 100 / 200 - 2
    denom = 81.0 * (200 + 0.5 * 200 + a * 200 + 100)
    assert abs(bound_phi - 4.0 * math.exp(-2.0 * t**2 / denom)) < 1e-15


def test_concentration_vacuous_bound_never_violates():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    config = ConcentrationConfig(params=params, n=20, M=np.array([10]), a=5.0, trials=50)
    report = run_concentration(config)
    assert report.freq_s == 0.0
    assert report.freq_phi == 0.0
    assert not report.violated


def test_concentration_empty_dynamics():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.35, nu=0.0)
    config = ConcentrationConfig(params=params, n=10, M=np.array([0]), a=0.5, trials=25)
    report = run_concentration(config)
    assert report.freq_s == 0.0
    assert report.freq_phi == 0.0
    assert report.bound_s == 0.0  # zero-mass odometer with a*n > 2
    assert not report.violated


def test_concentration_report_file(tmp_path):
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    config = ConcentrationConfig(params=params, n=50, M=np.array([25]), a=0.3, trials=40)
    path = tmp_path / "report.txt"
    report = run_concentration(config, out_path=path)
    text = path.read_text()
    assert "experiment: concentration" in text
    assert f"freq_s: {report.freq_s!r}" in text
    assert f"bound_phi: {report.bound_phi!r}" in text
    assert "violated: false" in text


def test_concentration_argument_validation():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    with pytest.raises(ValidationError):
        run_concentration(ConcentrationConfig(params=params, n=10, M=np.array([1]), a=0.0, trials=5))
    with pytest.raises(ValidationError):
        run_concentration(ConcentrationConfig(params=params, n=10, M=np.array([1]), a=0.1, trials=0))


@pytest.mark.parametrize("a", [1e308, float("inf")])
def test_concentration_refuses_a_level_past_the_float_range(a):
    """At n = 20, a*n is not finite, and the bounds would read NaN."""
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    with pytest.raises(ValidationError, match="a and a\\*n must be finite"):
        run_concentration(ConcentrationConfig(params=params, n=20, M=np.array([5]), a=a, trials=5))


def test_concentration_bounds_vanish_at_a_huge_finite_level():
    """Past a*n = 1e150 both bounds are 0, as the formulas give just below
    that level, where they still evaluate, and no squared deviation
    overflows."""
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    M = np.array([2**60 - 1])
    assert concentration_bounds(params, 20, M, 0.99e150 / 20) == (0.0, 0.0)
    assert concentration_bounds(params, 20, M, 1e200) == (0.0, 0.0)
    report = run_concentration(ConcentrationConfig(params=params, n=20, M=np.array([5]), a=1e200, trials=5))
    assert (report.bound_s, report.bound_phi, report.violated) == (0.0, 0.0, False)


def test_lln_refuses_a_tol_that_is_not_finite():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    with pytest.raises(ValidationError, match="tol must be positive and finite"):
        run_lln(LLNConfig(params=params, n_values=[10], seeds=[1], tol=float("inf")))


def test_lln_refuses_a_tol_below_float_resolution():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    with pytest.raises(ValidationError, match=r"^tol=1e-17 is below the float64 resolution"):
        run_lln(LLNConfig(params=params, n_values=[10], seeds=[1], tol=1e-17))


def test_kappa_zero_rate_gives_p_one():
    params = one_village_params(q=0.5, lam=0.0, sigma=0.0, nu=0.5)
    report = run_kappa_equivalence(params, 50, [20], trials=300, seed=4)
    assert report.p_values == [1.0]


def test_kappa_rejects_zero_trials(default_params):
    with pytest.raises(ValidationError, match="trials"):
        run_kappa_equivalence(default_params, 50, [20, 20], trials=0)


def test_kappa_insufficient_pooling():
    # no actives and no odometer: the outflux is constant, pooling collapses to one bin
    params = one_village_params(q=0.5, lam=1.0, sigma=0.4, nu=0.0)
    with pytest.raises(ValidationError, match="insufficient"):
        run_kappa_equivalence(params, 20, [0], trials=30)


def test_kappa_report_file(tmp_path):
    params = one_village_params(q=0.5, lam=1.0, sigma=0.3, nu=0.5)
    path = tmp_path / "kappa.txt"
    report = run_kappa_equivalence(params, 30, [12], trials=400, seed=8, out_path=path)
    text = path.read_text()
    assert "experiment: kappa-test" in text
    assert f"village_0_p_value: {report.p_values[0]!r}" in text
    assert report.bins[0] >= 2


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("VARW_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("VARW_THREADS", "0")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.setenv("VARW_THREADS", "many")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.delenv("VARW_THREADS")
    assert worker_count() >= 1


# sha256 of the report files written by the per-trial implementation (one
# single_loop call per trial) for the calls in the two tests below.
PER_TRIAL_DIGESTS = {
    ("concentration", 3): "6c35fc54b8dd6340b658480ba0cdd2d4afe848d4993ea705fb743efec85032a4",
    ("concentration", 2**63 + 11): "12d3b3c06026f231635a1e6689a93b8b65c9fec775dde393786da39bc8de1dd4",
    ("kappa-test", 3): "639bd471972fa3bc61377f1e936195ae28fc92333d37fbe6e4eb1c6176757535",
    ("kappa-test", 2**63 + 11): "4f5ddf5317dec29b53158346de384529bb456a20573fcf99950bd7eb3bc1aa52",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("budget", [simulator_mod._TRIAL_HOUSES, 100])
@pytest.mark.parametrize("seed", [3, 2**63 + 11])
def test_batched_reports_are_byte_identical_to_per_trial(tmp_path, monkeypatch, seed, budget):
    monkeypatch.setattr(simulator_mod, "_TRIAL_HOUSES", budget)  # 100 houses: one trial per chunk
    params = two_village_params()
    path = tmp_path / "concentration.txt"
    config = ConcentrationConfig(params=params, n=40, M=np.array([20, 10]), a=0.1, trials=60, seed=seed)
    run_concentration(config, out_path=path)
    assert _digest(path) == PER_TRIAL_DIGESTS[("concentration", seed)]
    path = tmp_path / "kappa.txt"
    run_kappa_equivalence(params, 30, [12, 8], trials=150, seed=seed, out_path=path)
    assert _digest(path) == PER_TRIAL_DIGESTS[("kappa-test", seed)]


# sha256 of the LLN CSVs written with one stabilize call per (n, seed) run.
# At the default budget of 2^17 houses each n takes all 20 seeds in one
# chunk on one worker, 10 per chunk on two and 7 on three: 3, 6 and 9 tasks.
# A budget of 8000 houses puts 7, 4 and 1 seeds in the chunks of n=50, 1000
# and 3000 on three workers: 28 tasks.  One house is one seed per chunk.
LLN_SEEDS = [7 + k for k in range(18)] + [-5, 2**64 + 9]
PER_SEED_LLN_DIGESTS = {
    "lln_rows.csv": "cc78b53ef4fa1a9869739db52bd9e32d44eb231b3d50d00fa731926f6e3df624",
    "lln_summary.csv": "d6bb2b901b911bfa23732eac3c40e7c931f7f6abf2b46428337a73962c6e52ef",
}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("budget", [simulator_mod._TRIAL_HOUSES, 8000, 1])
def test_chunked_lln_is_byte_identical_to_per_seed_runs(tmp_path, monkeypatch, budget, threads):
    monkeypatch.setattr(simulator_mod, "_TRIAL_HOUSES", budget)
    monkeypatch.setenv("VARW_THREADS", threads)
    config = LLNConfig(params=two_village_params(), n_values=[50, 1000, 3000], seeds=LLN_SEEDS)
    report = run_lln(config, out_dir=tmp_path)
    assert [(r["n"], r["seed"]) for r in report.rows[::2]] == [(n, s) for n in (50, 1000, 3000) for s in LLN_SEEDS]
    for name, digest in PER_SEED_LLN_DIGESTS.items():
        assert _digest(tmp_path / name) == digest, name


def test_run_lln_gives_every_worker_a_chunk(monkeypatch, tmp_path):
    """Two workers and four seeds that fit in one engine: two chunks of two,
    seeds 1-2 for the calling process and 3-4 for the one process it forks."""
    log = tmp_path / "chunks"
    real_task = exp_mod._lln_task

    def task(args):
        with log.open("a") as f:  # one short append per task, from either process
            f.write(f"{os.getpid()} {list(args[2])}\n")
        return real_task(args)

    monkeypatch.setattr(exp_mod, "_lln_task", task)
    monkeypatch.setenv("VARW_THREADS", "2")
    params = two_village_params()
    assert simulator_mod._trials_per_chunk(params.num_villages, 50) >= 4
    run_lln(LLNConfig(params=params, n_values=[50], seeds=[1, 2, 3, 4]))
    chunks = {}
    for line in log.read_text().splitlines():
        pid, chunk = line.split(" ", 1)
        chunks.setdefault(int(pid), []).append(chunk)
    assert chunks.pop(os.getpid()) == ["[1, 2]"]
    assert list(chunks.values()) == ([["[3, 4]"]] if exp_mod._FORKS else [])




@pytest.mark.parametrize(
    "failing, threads",
    [
        ({50: 1}, "3"),
        pytest.param({50: 4}, "3", marks=needs_fork),
        ({50: 4, 60: 1}, "1"),
        pytest.param({50: 4, 60: 1}, "2", marks=needs_fork),
        pytest.param({50: 4, 60: 1}, "3", marks=needs_fork),
    ],
    ids=["parent", "forked", "two-on-1-worker", "two-on-2-workers", "two-on-3-workers"],
)
def test_run_lln_propagates_a_failed_task(monkeypatch, failing, threads):
    """An invariant failure in a chunk ends the sweep, whether the parent or
    a forked worker ran it, and leaves no worker process behind.  Stabilize
    fails at each n of `failing` on the chunk holding the seed it maps to.
    On three workers the chunks are seeds 1-2, 3-4 and 5 per n, and the
    parent runs tasks 0 and 3 (seeds 1-2 at each n); on two workers they
    are 1-3 and 4-5, and the parent runs tasks 0 and 2.  When two chunks
    fail, every worker count raises the error of the first in task order,
    the forked one at n=50, although the parent meets its own failure at
    n=60 first."""
    real = exp_mod.stabilize

    def stabilize(params, n, src, *args):
        if failing.get(n) in src.master_seed:
            raise AcceptanceCheckError(f"mass balance violated (n={n}, seed={failing[n]})")
        return real(params, n, src, *args)

    monkeypatch.setattr(exp_mod, "stabilize", stabilize)  # forked workers inherit it
    monkeypatch.setenv("VARW_THREADS", threads)
    forks = record_forks(monkeypatch)
    config = LLNConfig(params=two_village_params(), n_values=[50, 60], seeds=[1, 2, 3, 4, 5])
    with pytest.raises(AcceptanceCheckError, match=rf"^mass balance violated \(n=50, seed={failing[50]}\)$"):
        run_lln(config)
    assert len(forks) == (int(threads) - 1 if exp_mod._FORKS else 0)
    assert_reaped(forks)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_lln_raises_a_fixed_point_failure_before_a_later_chunks_error(monkeypatch, threads):
    """The fixed point of seed 1 at n=50, in task 0, fails its cross-check,
    and stabilize raises StepCapError on every chunk at n=60, later in task
    order: the fixed-point failure raises, on one worker (tasks n=50 and
    n=60 of seeds 1-4) and on two (the caller runs seeds 1-2 at each n)."""
    real_loop, real_stabilize = exp_mod.single_loop, exp_mod.stabilize

    def single_loop(params, n, src, M):
        res = real_loop(params, n, src, M)
        return replace(res, Phi=res.Phi + 1) if (n, src.master_seed) == (50, 1) else res

    def stabilize(params, n, src, *args):
        if n == 60:
            raise StepCapError(f"step cap reached at n={n}")
        return real_stabilize(params, n, src, *args)

    monkeypatch.setattr(exp_mod, "single_loop", single_loop)  # forked workers inherit both
    monkeypatch.setattr(exp_mod, "stabilize", stabilize)
    monkeypatch.setenv("VARW_THREADS", threads)
    config = LLNConfig(params=two_village_params(), n_values=[50, 60], seeds=[1, 2, 3, 4])
    with pytest.raises(AcceptanceCheckError, match=r"^lln: single-loop fixed-point identity failed at n=50, seed=1, village 0: Phi="):
        run_lln(config)


def test_run_lln_starts_no_more_workers_than_memory_holds_engines(monkeypatch, tmp_path):
    """On a machine of 4 KiB, one engine of the largest chunk fits and two
    do not: two seeds of two villages at n=50 are 200 houses, 3200 B at
    16 B each.  So two workers fork no process, and the CSV bytes are those
    of one worker."""
    config = LLNConfig(params=two_village_params(), n_values=[50], seeds=[1, 2, 3, 4])
    monkeypatch.setenv("VARW_THREADS", "1")
    run_lln(config, out_dir=tmp_path / "one")  # one chunk of 400 houses, which 4 KiB would refuse
    real, memory = os.sysconf, {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: memory[name] if name in memory else real(name))
    monkeypatch.setenv("VARW_THREADS", "2")
    forks = record_forks(monkeypatch)
    run_lln(config, out_dir=tmp_path / "two")
    assert forks == []
    for name in ("lln_rows.csv", "lln_summary.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@needs_fork
@pytest.mark.parametrize(
    "call, error",
    [
        ("pipe", OSError(errno.EMFILE, os.strerror(errno.EMFILE))),
        ("fork", BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))),
    ],
)
def test_run_lln_reports_a_worker_it_could_not_start(monkeypatch, call, error):
    """The second worker's pipe or fork fails: the sweep raises
    WorkerLostError naming that worker and the OS error, leaves no file
    descriptor open, and kills and reaps the worker it did start."""
    monkeypatch.setenv("VARW_THREADS", "3")
    forks = record_forks(monkeypatch)
    fail_os_call(monkeypatch, call, 2, error)
    open_fds = len(os.listdir("/proc/self/fd"))
    config = LLNConfig(params=two_village_params(), n_values=[50], seeds=[1, 2, 3, 4, 5])
    with pytest.raises(WorkerLostError, match=rf"^worker 2 of 2 could not be started: {re.escape(str(error))}$"):
        run_lln(config)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert len(forks) == 1
    assert_reaped(forks)


@needs_fork
def test_run_lln_reports_a_killed_worker(monkeypatch):
    """A worker that dies without a result, here by SIGKILL, fails its first
    task with WorkerLostError naming the signal, n and the chunk's seeds;
    the sweep still reaps every child."""
    kill_forked_workers(monkeypatch, 3)
    monkeypatch.setenv("VARW_THREADS", "2")
    forks = record_forks(monkeypatch)
    config = LLNConfig(params=two_village_params(), n_values=[50], seeds=[1, 2, 3, 4])
    with pytest.raises(WorkerLostError, match=r"killed by signal SIGKILL without a result; its first task was n=50, seeds \[3, 4\]$"):
        run_lln(config)
    assert len(forks) == 1
    assert_reaped(forks)


@needs_fork
def test_run_lln_raises_a_failure_before_a_killed_worker_in_task_order(monkeypatch):
    """Task 0 (the caller's, seeds 1-2) fails, and the worker that holds
    task 1 (seeds 3-4) dies: task 0's error raises, as it comes first."""
    kill_forked_workers(monkeypatch, 3)
    real = exp_mod.stabilize

    def stabilize(params, n, src, *args):
        if 1 in src.master_seed:
            raise AcceptanceCheckError("mass balance violated (n=50, seed=1)")
        return real(params, n, src, *args)

    monkeypatch.setattr(exp_mod, "stabilize", stabilize)
    monkeypatch.setenv("VARW_THREADS", "2")
    forks = record_forks(monkeypatch)
    with pytest.raises(AcceptanceCheckError, match=r"seed=1\)$"):
        run_lln(LLNConfig(params=two_village_params(), n_values=[50], seeds=[1, 2, 3, 4]))
    assert len(forks) == 1
    assert_reaped(forks)


@needs_fork
def test_run_lln_kills_its_workers_when_interrupted(monkeypatch):
    """An interrupt in the calling process kills and reaps a worker that is
    still running (here one that would sleep for a minute)."""
    real, caller = exp_mod.stabilize, os.getpid()

    def stabilize(params, n, src, *args):
        if os.getpid() != caller:
            time.sleep(60)
        elif 1 in src.master_seed:
            raise KeyboardInterrupt
        return real(params, n, src, *args)

    monkeypatch.setattr(exp_mod, "stabilize", stabilize)
    monkeypatch.setenv("VARW_THREADS", "2")
    forks = record_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_lln(LLNConfig(params=two_village_params(), n_values=[50], seeds=[1, 2, 3, 4]))
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_reaped(forks)


@needs_fork
def test_run_lln_success_leaves_no_child_process(monkeypatch, tmp_path):
    """Every worker is reaped, and none returns from run_lln into the code
    that called it: one that did would leave a mark here and end."""
    monkeypatch.setenv("VARW_THREADS", "3")
    forks = record_forks(monkeypatch)
    caller = os.getpid()
    try:
        run_lln(LLNConfig(params=two_village_params(), n_values=[50], seeds=[1, 2, 3, 4, 5]))
    finally:
        if os.getpid() != caller:
            (tmp_path / f"escaped-{os.getpid()}").touch()
            os._exit(0)
    assert len(forks) == 2
    assert_reaped(forks)
    assert list(tmp_path.iterdir()) == []


def _corrupt_last_trial(monkeypatch, field):
    """Make the batched evaluator's last trial disagree in village 1."""
    real = exp_mod.single_loop_trials

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        bad = getattr(res, field).copy()
        bad[-1, 1] += 1
        return replace(res, **{field: bad})

    monkeypatch.setattr(exp_mod, "single_loop_trials", corrupted)


@pytest.mark.parametrize("field", ["Phi", "S", "J"])
def test_concentration_reference_check_names_the_trial(monkeypatch, field):
    _corrupt_last_trial(monkeypatch, field)
    config = ConcentrationConfig(params=two_village_params(), n=40, M=np.array([20, 10]), a=0.1, trials=30, seed=5)
    with pytest.raises(AcceptanceCheckError) as err:
        run_concentration(config)
    msg = str(err.value)
    for part in ("concentration", "n=40", "seed=5", "trial 29", "village 1", f"{field}="):
        assert part in msg


def test_kappa_reference_check_covers_resampled_outflux(monkeypatch):
    _corrupt_last_trial(monkeypatch, "Phi_tilde")
    with pytest.raises(AcceptanceCheckError, match=r"kappa-test: .*n=30, seed=4, trial 49, village 1: Phi_tilde="):
        run_kappa_equivalence(two_village_params(), 30, [12, 8], trials=50, seed=4)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: run_lln(LLNConfig(params=p, n_values=[10.5], seeds=[1])),
        lambda p: run_lln(LLNConfig(params=p, n_values=[10], seeds=[1.5])),
        lambda p: run_concentration(
            ConcentrationConfig(params=p, n=10.5, M=np.array([3, 3]), a=0.1, trials=5)
        ),
        lambda p: run_kappa_equivalence(p, 10.5, [3, 3], 5),
    ],
    ids=["lln-n", "lln-seed", "concentration-n", "kappa-n"],
)
def test_experiments_reject_non_integer_n_and_seeds(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(two_village_params())


@pytest.mark.parametrize(
    "call",
    [
        lambda p: run_concentration(
            ConcentrationConfig(params=p, n=10, M=np.array([3, 3]), a=0.1, trials=10.5)
        ),
        lambda p: run_kappa_equivalence(p, 50, [20, 20], trials=10.5),
    ],
    ids=["concentration", "kappa"],
)
def test_experiments_reject_non_integer_trials(call):
    with pytest.raises(ValidationError, match=r"trials must be an integer, got 10\.5"):
        call(two_village_params())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=400),
    st.lists(st.integers(-30, 30), min_size=1, max_size=400),
    st.floats(0.5, 8.0),
)
def test_pooled_chi_square_p_value_equals_scipy_stats(sample_a, sample_b, min_expected):
    from scipy.stats import chi2

    try:
        stat, dof, p, _ = _pooled_chi_square(np.array(sample_a), np.array(sample_b), min_expected)
    except ValidationError:
        assume(False)
    assert p == float(chi2.sf(stat, dof))
