"""Experiment harnesses: LLN sweeps, concentration checks, distribution tests.

Each harness is deterministic given its config: per-trial stack seeds are
derived from the config seed with the same 64-bit mix the stacks use, rows
are emitted in config order, and CSV/report files are byte-stable across
invocations.  The LLN sweep stabilizes the seeds of each n in chunks, each
as one multi-seed source, on VARW_THREADS workers: the calling process and,
on Linux, processes it forks, each sending its results back through a pipe
of its own.  The two distribution experiments share one checked batch of
trials (`single_loop_trials`).  Every run is checked the same way, by
`_cross_check`: a fresh `single_loop` on the run's own stacks must
reproduce it.  That is the fixed point (M*, S*) of each LLN run and of
`varw simulate`, and the first and last trial of a batch.  A failure raises
AcceptanceCheckError naming the experiment, n, the seed (with the trial
and its stack seed, for a batch), the village, the field and both values.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AcceptanceCheckError, ValidationError, WorkerLostError
from .limit import DEFAULT_TOL, LimitSolution, phi, sleep_profile, solve_fixed_point
from .model import ModelParams, SpectralData, compute_spectral, eta_norm, validate_model
from .simulator import (
    _check_odometer,
    _trials_per_chunk,
    single_loop,
    single_loop_tilde,
    single_loop_trials,
    stabilize,
)
from .stacks import StackSource, _as_int, _check_count, _check_fits_memory, _physical_memory, derive_seeds

LLN_ROWS_HEADER = "experiment,n,seed,village,m_n,s_n,m_limit,s_limit,err_m_inf,err_s_inf,err_m_eta"
LLN_SUMMARY_HEADER = "n,metric,median,p90,runs"
# The keys of the row and summary dicts, in column order.
_ROW_KEYS, _SUMMARY_KEYS = LLN_ROWS_HEADER.split(","), LLN_SUMMARY_HEADER.split(",")

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
    tol: float = DEFAULT_TOL


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


def _cross_check(failure: str, params: ModelParams, n: int, seed, M, expected: dict, aux_seed=None) -> None:
    """Evaluate single_loop at M on a fresh StackSource(params, n, seed),
    and single_loop_tilde too when given an aux seed, and raise
    AcceptanceCheckError at the first field and village where it differs
    from `expected`, per-village arrays by field name.  `failure` names
    the check and the run: the experiment, n and the seed."""
    src = StackSource(params, n, seed)
    loop = vars(single_loop(params, n, src, M))
    if aux_seed is not None:
        loop = loop | {"Phi_tilde": single_loop_tilde(params, n, src, M, aux_seed)}
    for name, want in expected.items():
        bad = np.flatnonzero(loop[name] != want)
        if bad.size:
            x = int(bad[0])
            raise AcceptanceCheckError(f"{failure}, village {x}: {name}={int(loop[name][x])}, expected {int(want[x])}")


def _lln_task(args):
    """Stabilize a chunk of T seeds at one n on one multi-seed source, then
    cross-check each run's fixed point on a fresh source of its own seed.
    Returns M* and S* as (T, V) arrays."""
    params, n, seeds = args
    sim = stabilize(params, n, StackSource(params, n, seeds))
    M_star, S_star = (a.reshape(len(seeds), -1) for a in (sim.M_star, sim.S_star))
    for seed, M, S in zip(seeds, M_star, S_star):
        failure = f"lln: single-loop fixed-point identity failed at n={n}, seed={seed}"
        _cross_check(failure, params, n, seed, M, {"Phi": M, "S": S})
    return M_star, S_star


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

    The caller forks workers - 1 children, none on one worker: child w runs
    the tasks k with k % workers == w and pickles its share's results into a
    pipe of its own, while the caller runs the tasks with k % workers == 0.
    The first failing task in task order raises, on any number of workers; a
    child that ends without a result fails its first task with
    WorkerLostError.  A worker whose pipe or fork fails (too many open
    files, or a process or memory limit) raises WorkerLostError naming it
    and the OS error.  Every child is reaped before this returns or raises,
    and killed first if the caller fails.
    """
    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            fds = ()  # the pipe, closed again if the fork fails
            try:
                fds = read_fd, write_fd = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in fds:
                    os.close(fd)
                raise WorkerLostError(f"worker {w} of {workers - 1} could not be started: {exc}") from exc
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
    """A CSV or table cell: a float (numpy's too) by its repr, else by str."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write each line with a newline after it, creating the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, records: list[dict]) -> None:
    """The header, then one line per record, a dict keyed in column order."""
    _write_lines(path, [header, *(",".join(map(_format, r.values())) for r in records)])


def _write_report(path: Path, experiment: str, n: int, M: np.ndarray, items: dict) -> None:
    """A plain-text report: the experiment, n and M, then one `key: value`
    line per item, a bool in lower case."""
    head = {"experiment": experiment, "n": n, "M": ",".join(map(str, M.tolist()))}
    lines = [f"{k}: {str(v).lower() if isinstance(v, bool) else _format(v)}" for k, v in (head | items).items()]
    _write_lines(path, lines)


def run_lln(config: LLNConfig, out_dir=None) -> LLNReport:
    """Convergence sweep of the stabilized system against the continuum limit.

    Solves the limit once, then for every (n, seed) pair runs a
    stabilization, records scaled odometer/sleeper profiles and their
    distances to the limit, and cross-checks the exact single-loop
    fixed-point identity.  The seeds of each n go in chunks of the size
    `single_loop_trials` uses, but of at most ceil(seeds / workers) seeds,
    so that every worker gets a chunk.  No more workers start than physical
    memory holds engines of the largest chunk, at 16 B per house, and the
    first failing chunk in (n, seed) order fails the sweep with its error.
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
    engines = _physical_memory() // (16 * max(len(chunk) * V * n for _, n, chunk in tasks))
    results = _run_forked(tasks, max(1, min(workers, len(tasks), engines)) if _FORKS else 1)

    rows: list[dict] = []
    runs = ((n, *run) for (_, n, chunk), result in zip(tasks, results) for run in zip(chunk, *result))
    for n, seed, M_star, S_star in runs:
        m_n = M_star / n
        s_n = S_star / n
        err_m_inf = float(np.max(np.abs(m_n - limit.m_star)))
        err_s_inf = float(np.max(np.abs(s_n - limit.s_star)))
        err_m_eta = eta_norm(spectral, m_n - limit.m_star)
        for x in range(V):
            values = (float(m_n[x]), float(s_n[x]), float(limit.m_star[x]), float(limit.s_star[x]))
            rows.append(dict(zip(_ROW_KEYS, ("lln", n, seed, x, *values, err_m_inf, err_s_inf, err_m_eta))))

    # The run errors, one row per run (its village 0) in run order.
    summary: list[dict] = []
    for n in n_values:
        for metric in ("err_m_inf", "err_s_inf", "err_m_eta"):
            vals = [row[metric] for row in rows[::V] if row["n"] == n]
            values = (n, metric, float(np.median(vals)), float(np.percentile(vals, 90)), len(vals))
            summary.append(dict(zip(_SUMMARY_KEYS, values)))

    rows_path = summary_path = None
    if out_dir is not None:
        rows_path, summary_path = Path(out_dir) / "lln_rows.csv", Path(out_dir) / "lln_summary.csv"
        _write_csv(rows_path, LLN_ROWS_HEADER, rows)
        _write_csv(summary_path, LLN_SUMMARY_HEADER, summary)
    return LLNReport(
        rows=rows, summary=summary, limit=limit, spectral=spectral,
        rows_path=rows_path, summary_path=summary_path,
    )


def _checked_trials(experiment: str, params: ModelParams, n: int, M, trials, seed: int, resample: bool = False):
    """Check trials and M, then evaluate the single-loop map at M over
    `trials` trials on the stack seeds derived from `seed` (with `resample`,
    also the resampled outflux on the derived aux seeds), and re-evaluate the
    first and last trial through single_loop (and single_loop_tilde) on their
    own stack sources with `_cross_check`.  Returns (trials, M, batch)."""
    trials = _check_count(trials, "trials")
    _check_fits_memory(trials, 16, "trials")  # its seeds and their mix
    M = _check_odometer(M, params.num_villages)
    seeds = derive_seeds(seed, 1, np.arange(trials))
    aux_seeds = derive_seeds(seed, 2, np.arange(trials)) if resample else None
    batch = single_loop_trials(params, n, seeds, M, aux_seeds)
    for t in sorted({0, trials - 1}):
        failure = f"{experiment}: single_loop on stack seed {seeds[t]} differs from the batched trials"
        failure += f" at n={n}, seed={seed}, trial {t}"
        row = {name: v[t] for name, v in vars(batch).items() if v is not None}
        _cross_check(failure, params, n, int(seeds[t]), M, row, None if aux_seeds is None else int(aux_seeds[t]))
    return trials, M, batch


def concentration_bounds(params: ModelParams, n: int, M: np.ndarray, a: float):
    """The two tail bounds for the single-loop deviation events at level a."""
    V = params.num_villages
    if a * n > 1e150:  # each exponent is then below -1e140, as sum|M| < V * 2^60, and t_s**2 may overflow
        return 0.0, 0.0
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
    if not np.isfinite(float(config.a) * n):
        raise ValidationError(f"a and a*n must be finite, got a={config.a!r} at n={n}")
    trials, M, res = _checked_trials("concentration", params, n, config.M, config.trials, config.seed)
    m_scaled = M / n
    s_limit = sleep_profile(params, m_scaled)
    phi_limit = phi(params, m_scaled)

    a = float(config.a)
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

    items = dict(
        a=a, trials=trials, freq_s=freq_s, bound_s=bound_s, slack_s=slack_s,
        freq_phi=freq_phi, bound_phi=bound_phi, slack_phi=slack_phi, violated=violated,
    )
    path = None if out_path is None else Path(out_path)
    if path is not None:
        _write_report(path, "concentration", n, M, items)
    return ConcentrationReport(n=n, **items, path=path)


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
    n = _check_count(n, "n")
    trials, M, res = _checked_trials("kappa-test", params, n, M, trials, seed, resample=True)
    tests = [_pooled_chi_square(res.Phi[:, x], res.Phi_tilde[:, x]) for x in range(params.num_villages)]
    statistics, _, p_values, bins = (list(column) for column in zip(*tests))

    path = None if out_path is None else Path(out_path)
    if path is not None:
        items = {"trials": trials}
        for x, (p, stat, k) in enumerate(zip(p_values, statistics, bins)):
            items |= {f"village_{x}_p_value": p, f"village_{x}_statistic": stat, f"village_{x}_bins": k}
        _write_report(path, "kappa-test", n, M, items)
    return KappaReport(n=n, trials=trials, p_values=p_values, statistics=statistics, bins=bins, path=path)
