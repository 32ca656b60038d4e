"""Experiment harnesses: LLN sweeps, concentration checks, distribution tests.

Each harness is deterministic given its config: per-trial stack seeds are
derived from the config seed with the same 64-bit mix the stacks use, rows
are emitted in config order, and CSV/report files are byte-stable across
invocations.  The LLN sweep stabilizes the seeds of each n in chunks, each
as one multi-seed source, on VARW_THREADS workers: the calling process and,
on Linux, processes it forks, each sending its results back through a pipe
of its own.  The distribution experiments evaluate all their
trials in batches (`single_loop_trials`) and re-evaluate the first and last
trial through `single_loop` as a runtime check of the batched path.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import AcceptanceCheckError, ValidationError, WorkerLostError
from .limit import LimitSolution, phi, sleep_profile, solve_fixed_point
from .model import ModelParams, SpectralData, compute_spectral, eta_norm, validate_model
from .simulator import (
    SingleLoopResult,
    _check_odometer,
    _trials_per_chunk,
    single_loop,
    single_loop_tilde,
    single_loop_trials,
    stabilize,
)
from .stacks import StackSource, _as_int, _check_count, derive_seeds

LLN_ROWS_HEADER = "experiment,n,seed,village,m_n,s_n,m_limit,s_limit,err_m_inf,err_s_inf,err_m_eta"
LLN_SUMMARY_HEADER = "n,metric,median,p90,runs"

# run_lln forks its workers on Linux only.  Elsewhere (macOS, where system
# libraries are not fork-safe) the calling process runs every task.
_FORKS = sys.platform.startswith("linux")


def worker_count() -> int:
    """Worker parallelism: VARW_THREADS when set, else machine parallelism."""
    env = os.environ.get("VARW_THREADS")
    if env is not None:
        try:
            count = int(env)
        except ValueError as exc:
            raise ValidationError(f"VARW_THREADS must be an integer, got {env!r}") from exc
        if count < 1:
            raise ValidationError(f"VARW_THREADS must be >= 1, got {count}")
        return count
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class LLNConfig:
    params: ModelParams
    n_values: list[int]
    seeds: list[int]
    tol: float = 1e-10


@dataclass(frozen=True, eq=False)
class ConcentrationConfig:
    params: ModelParams
    n: int
    M: np.ndarray
    a: float
    trials: int
    seed: int = 0


@dataclass(frozen=True, eq=False)
class LLNReport:
    rows: list[dict]
    summary: list[dict]
    limit: LimitSolution
    spectral: SpectralData
    rows_path: Path | None = None
    summary_path: Path | None = None


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    n: int
    a: float
    trials: int
    freq_s: float
    bound_s: float
    freq_phi: float
    bound_phi: float
    slack_s: float
    slack_phi: float
    violated: bool
    path: Path | None = None


@dataclass(frozen=True, eq=False)
class KappaReport:
    n: int
    trials: int
    p_values: list[float]
    statistics: list[float]
    bins: list[int]
    path: Path | None = None


def _lln_task(args):
    """Stabilize a chunk of T seeds at one n on one multi-seed source, then
    check each run's loop identity on a fresh source of its own seed.
    Returns M* and S* as (T, V) arrays and one identity flag per seed."""
    params, n, seeds = args
    sim = stabilize(params, n, StackSource(params, n, seeds))
    M_star, S_star = (a.reshape(len(seeds), -1) for a in (sim.M_star, sim.S_star))
    fixed_point_ok = []
    for seed, M, S in zip(seeds, M_star, S_star):
        loop = single_loop(params, n, StackSource(params, n, seed), M)
        fixed_point_ok.append(bool(np.array_equal(loop.Phi, M) and np.array_equal(loop.S, S)))
    return M_star, S_star, fixed_point_ok


def _run_share(tasks) -> list:
    """_lln_task over tasks, stopping at the first failure, whose exception
    ends the list."""
    results = []
    for task in tasks:
        try:
            results.append(_lln_task(task))
        except Exception as exc:  # raised by the caller, in task order
            results.append(exc)
            break
    return results


def _run_forked(tasks, workers: int) -> list:
    """_lln_task over tasks on `workers` processes, the results in task order.

    The caller forks workers - 1 children: child w runs the tasks k with
    k % workers == w and pickles its share's results into a pipe of its own,
    while the caller runs the tasks with k % workers == 0.  The first failing
    task in task order raises, as on one worker; a child that ends without a
    result fails its first task with WorkerLostError.  Every child is reaped
    before this returns or raises, and killed first if the caller fails.
    """
    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(_run_share(tasks[w::workers]), pipe)
                    status = 0
                finally:
                    os._exit(status)  # never return into the caller's code
            os.close(write_fd)
            children[w] = pid, os.fdopen(read_fd, "rb")
        shares = [_run_share(tasks[::workers])]
        for w in range(1, workers):
            pid, pipe = children[w]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            try:
                shares.append(pickle.loads(data))
            except Exception:
                _, n, seeds = tasks[w]
                if status < 0:
                    how = f"was killed by signal {signal.Signals(-status).name}"
                else:
                    how = f"exited with status {status}"
                lost = f"worker process {pid} {how} without a result; its first task was n={n}, seeds {list(seeds)}"
                shares.append([WorkerLostError(lost)])
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for k in range(len(tasks)):
        result = shares[k % workers][k // workers]
        if isinstance(result, Exception):
            raise result
        results.append(result)
    return results


def _format(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: str, records: list[dict]) -> None:
    """One line per record, its values in the order the header names them."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    lines.extend(",".join(_format(r[k]) for k in header.split(",")) for r in records)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_lln(config: LLNConfig, out_dir=None) -> LLNReport:
    """Convergence sweep of the stabilized system against the continuum limit.

    Solves the limit once, then for every (n, seed) pair runs a
    stabilization, records scaled odometer/sleeper profiles and their
    distances to the limit, and verifies the exact single-loop fixed-point
    identity.  A single identity failure fails the whole sweep.  The seeds
    of each n go in chunks of the size `single_loop_trials` uses, but of at
    most ceil(seeds / workers) seeds, so that every worker gets a chunk.
    """
    params = config.params
    # Solved first: solve_fixed_point makes the sweep's one subcriticality check.
    spectral = compute_spectral(params)
    limit = solve_fixed_point(params, spectral, tol=config.tol)
    if not config.n_values:
        raise ValidationError("n_values must be nonempty")
    if not config.seeds:
        raise ValidationError("seeds must be nonempty")
    V = params.num_villages

    n_values = [_check_count(n, "n") for n in config.n_values]
    repeated = [n for k, n in enumerate(n_values) if n in n_values[:k]]
    if repeated:
        raise ValidationError(f"n_values must be distinct, but n={repeated[0]} is given more than once")
    seeds = [_as_int(seed, "seed") for seed in config.seeds]
    workers = worker_count()
    share = -(-len(seeds) // workers)  # seeds per worker
    chunking = [(n, min(_trials_per_chunk(V, n), share)) for n in n_values]
    tasks = [(params, n, seeds[lo : lo + per]) for n, per in chunking for lo in range(0, len(seeds), per)]
    workers = min(workers, len(tasks))
    if workers > 1 and _FORKS:
        results = _run_forked(tasks, workers)
    else:
        results = [_lln_task(t) for t in tasks]

    rows: list[dict] = []
    per_n_errors: dict[int, dict[str, list[float]]] = {
        n: {"err_m_inf": [], "err_s_inf": [], "err_m_eta": []} for n in n_values
    }
    runs = ((n, *run) for (_, n, chunk), result in zip(tasks, results) for run in zip(chunk, *result))
    for n, seed, M_star, S_star, fp_ok in runs:
        if not fp_ok:
            raise AcceptanceCheckError(f"single-loop fixed-point identity failed at n={n}, seed={seed}")
        m_n = M_star / n
        s_n = S_star / n
        err_m_inf = float(np.max(np.abs(m_n - limit.m_star)))
        err_s_inf = float(np.max(np.abs(s_n - limit.s_star)))
        err_m_eta = eta_norm(spectral, m_n - limit.m_star)
        per_n_errors[n]["err_m_inf"].append(err_m_inf)
        per_n_errors[n]["err_s_inf"].append(err_s_inf)
        per_n_errors[n]["err_m_eta"].append(err_m_eta)
        for x in range(V):
            rows.append(
                {
                    "experiment": "lln",
                    "n": n,
                    "seed": seed,
                    "village": x,
                    "m_n": float(m_n[x]),
                    "s_n": float(s_n[x]),
                    "m_limit": float(limit.m_star[x]),
                    "s_limit": float(limit.s_star[x]),
                    "err_m_inf": err_m_inf,
                    "err_s_inf": err_s_inf,
                    "err_m_eta": err_m_eta,
                }
            )

    summary: list[dict] = []
    for n in n_values:
        for metric in ("err_m_inf", "err_s_inf", "err_m_eta"):
            vals = per_n_errors[n][metric]
            summary.append(
                {
                    "n": n,
                    "metric": metric,
                    "median": float(np.median(vals)),
                    "p90": float(np.percentile(vals, 90)),
                    "runs": len(vals),
                }
            )

    rows_path = summary_path = None
    if out_dir is not None:
        rows_path, summary_path = Path(out_dir) / "lln_rows.csv", Path(out_dir) / "lln_summary.csv"
        _write_csv(rows_path, LLN_ROWS_HEADER, rows)
        _write_csv(summary_path, LLN_SUMMARY_HEADER, summary)
    return LLNReport(
        rows=rows, summary=summary, limit=limit, spectral=spectral,
        rows_path=rows_path, summary_path=summary_path,
    )


def _check_trials(
    experiment: str, params: ModelParams, n: int, M, seed: int, seeds, batch: SingleLoopResult,
    aux_seeds=None,
) -> None:
    """Re-evaluate the first and last trial of a batched evaluation through
    single_loop (and single_loop_tilde, with aux seeds) on their own stack
    sources; raise AcceptanceCheckError on the first difference."""
    for t in sorted({0, len(seeds) - 1}):
        src = StackSource(params, n, int(seeds[t]))
        ref = single_loop(params, n, src, M)
        checks = [(name, getattr(ref, name)) for name in ("Phi", "S", "I", "A", "Q", "J")]
        if aux_seeds is not None:
            checks.append(("Phi_tilde", single_loop_tilde(params, n, src, M, int(aux_seeds[t]))))
        for name, want in checks:
            got = getattr(batch, name)[t]
            bad = np.flatnonzero(got != want)
            if bad.size:
                x = int(bad[0])
                raise AcceptanceCheckError(
                    f"{experiment}: batched trials differ from single_loop at n={n}, seed={seed}, "
                    f"trial {t}, village {x}: {name}={int(got[x])}, expected {int(want[x])}"
                )


def concentration_bounds(params: ModelParams, n: int, M: np.ndarray, a: float):
    """The two tail bounds for the single-loop deviation events at level a."""
    V = params.num_villages
    m1 = float(np.sum(np.abs(M)))
    nu1 = float(np.sum(params.init_actives))
    t_s = max(a * n - 2.0, 0.0)
    if t_s == 0.0:
        bound_s = 2.0 * V
    elif m1 == 0.0:
        bound_s = 0.0
    else:
        bound_s = 2.0 * V * float(np.exp(-2.0 * t_s**2 / m1))
    t_phi = max(a * n - nu1 - m1 / n - 2.0, 0.0)
    denom = 81.0 * (n + nu1 * n + a * n + m1)
    bound_phi = 4.0 * V * float(np.exp(-2.0 * t_phi**2 / denom))
    return bound_s, bound_phi


def run_concentration(config: ConcentrationConfig, out_path=None) -> ConcentrationReport:
    """Estimate the single-loop deviation tail frequencies at level a and
    compare them against their closed-form bounds.

    Each trial evaluates the single-loop map at the fixed odometer M on an
    independent stack source and measures the sup-norm distance of the
    scaled sleeper/outflux profiles from their continuum counterparts.  A
    frequency is flagged as a violation only if it exceeds its bound by more
    than three binomial standard errors.
    """
    params = validate_model(config.params)
    n = _check_count(config.n, "n")
    if not config.a > 0:
        raise ValidationError(f"a must be positive, got {config.a!r}")
    trials = _check_count(config.trials, "trials")
    M = _check_odometer(config.M, params.num_villages)
    m_scaled = M / n
    s_limit = sleep_profile(params, m_scaled)
    phi_limit = phi(params, m_scaled)

    a = float(config.a)
    seeds = derive_seeds(config.seed, 1, np.arange(trials))
    res = single_loop_trials(params, n, seeds, M)
    _check_trials("concentration", params, n, M, config.seed, seeds, res)
    dev_s = np.max(np.abs(res.S / n - s_limit), axis=1)
    dev_phi = np.max(np.abs(res.Phi / n - phi_limit), axis=1)
    hits_s = int(np.count_nonzero(dev_s >= a))
    hits_phi = int(np.count_nonzero(dev_phi >= a))

    freq_s = hits_s / trials
    freq_phi = hits_phi / trials
    bound_s, bound_phi = concentration_bounds(params, n, M, a)
    p_s = min(bound_s, 1.0)
    p_phi = min(bound_phi, 1.0)
    slack_s = 3.0 * float(np.sqrt(p_s * (1.0 - p_s) / trials))
    slack_phi = 3.0 * float(np.sqrt(p_phi * (1.0 - p_phi) / trials))
    violated = freq_s > bound_s + slack_s or freq_phi > bound_phi + slack_phi

    report = ConcentrationReport(
        n=n,
        a=a,
        trials=trials,
        freq_s=freq_s,
        bound_s=bound_s,
        freq_phi=freq_phi,
        bound_phi=bound_phi,
        slack_s=slack_s,
        slack_phi=slack_phi,
        violated=violated,
        path=None,
    )
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            "experiment: concentration",
            f"n: {n}",
            f"M: {','.join(str(v) for v in M.tolist())}",
            f"a: {a!r}",
            f"trials: {trials}",
            f"freq_s: {freq_s!r}",
            f"bound_s: {bound_s!r}",
            f"slack_s: {slack_s!r}",
            f"freq_phi: {freq_phi!r}",
            f"bound_phi: {bound_phi!r}",
            f"slack_phi: {slack_phi!r}",
            f"violated: {str(violated).lower()}",
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = replace(report, path=path)
    return report


def _pooled_chi_square(sample_a: np.ndarray, sample_b: np.ndarray, min_expected: float = 5.0):
    """Two-sample chi-square on integer samples with bins pooled so that
    every expected count reaches `min_expected`.  Returns (stat, dof, p, bins)."""
    lo = int(min(sample_a.min(), sample_b.min()))
    hi = int(max(sample_a.max(), sample_b.max()))
    count_a = np.bincount(sample_a - lo, minlength=hi - lo + 1).astype(np.float64)
    count_b = np.bincount(sample_b - lo, minlength=hi - lo + 1).astype(np.float64)
    n_a = count_a.sum()
    n_b = count_b.sum()
    total = n_a + n_b

    pooled_a: list[float] = []
    pooled_b: list[float] = []
    acc_a = acc_b = 0.0
    for ca, cb in zip(count_a, count_b):
        acc_a += ca
        acc_b += cb
        exp_a = n_a * (acc_a + acc_b) / total
        exp_b = n_b * (acc_a + acc_b) / total
        if exp_a >= min_expected and exp_b >= min_expected:
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if pooled_a:
            pooled_a[-1] += acc_a
            pooled_b[-1] += acc_b
        else:
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
    k = len(pooled_a)
    if k < 2:
        raise ValidationError(
            "insufficient trials: sample pooling left fewer than two chi-square bins"
        )
    stat = 0.0
    for oa, ob in zip(pooled_a, pooled_b):
        ea = n_a * (oa + ob) / total
        eb = n_b * (oa + ob) / total
        stat += (oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb
    # scipy.stats.chi2.sf(stat, k - 1) bit for bit; imported here so that
    # `import varw` loads no scipy
    from scipy.special import chdtrc

    p = float(chdtrc(k - 1, stat))
    return float(stat), k - 1, p, k


def run_kappa_equivalence(
    params: ModelParams, n: int, M, trials: int, seed: int = 0, out_path=None
) -> KappaReport:
    """Two-sample test that resampling terminal notices preserves the
    outflux distribution.

    Each trial shares one stack source between the plain single-loop outflux
    and its resampled variant, then the per-village marginal samples are
    compared with a pooled two-sample chi-square.
    """
    trials = _check_count(trials, "trials")
    n = _check_count(n, "n")
    M = _check_odometer(M, params.num_villages)
    V = params.num_villages
    seeds = derive_seeds(seed, 1, np.arange(trials))
    aux_seeds = derive_seeds(seed, 2, np.arange(trials))
    res = single_loop_trials(params, n, seeds, M, aux_seeds)
    _check_trials("kappa-test", params, n, M, seed, seeds, res, aux_seeds)
    phis, tildes = res.Phi, res.Phi_tilde

    p_values: list[float] = []
    statistics: list[float] = []
    bins: list[int] = []
    for x in range(V):
        stat, _, p, k = _pooled_chi_square(phis[:, x], tildes[:, x])
        statistics.append(stat)
        p_values.append(p)
        bins.append(k)

    report = KappaReport(
        n=n, trials=trials, p_values=p_values, statistics=statistics, bins=bins, path=None
    )
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            "experiment: kappa-test",
            f"n: {n}",
            f"M: {','.join(str(v) for v in M.tolist())}",
            f"trials: {trials}",
        ]
        for x in range(V):
            lines.append(f"village_{x}_p_value: {p_values[x]!r}")
            lines.append(f"village_{x}_statistic: {statistics[x]!r}")
            lines.append(f"village_{x}_bins: {bins[x]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = replace(report, path=path)
    return report
