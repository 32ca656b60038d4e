"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.  Every battery is seeded and deterministic.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context, resource_tracker
from time import perf_counter

import numpy as np
import pytest

from helpers import one_village_params, random_subcritical_params, two_village_params
from reference import SCHEDULES, expected_outflux_given_influx, reference_runs

from varw import (
    ConcentrationConfig,
    LLNConfig,
    StackSource,
    compute_spectral,
    critical_profile,
    derive_seed,
    derive_seeds,
    eta_norm,
    phi,
    run_concentration,
    run_kappa_equivalence,
    run_lln,
    single_loop,
    single_loop_trials,
    solve_fixed_point,
    stabilize,
)
from varw.model import ModelParams, floor_counts

BATTERY_N_VALUES = (100, 1000, 10000)
BATTERY_SEEDS = 10


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="session")
def battery():
    """Shared run battery for criteria 1-3: the default instance plus five
    random valid instances, three n values, ten seeds, and the three scalar
    toppling schedules of the reference oracle.  The oracle runs go to at
    most two worker processes while this process runs the stabilizer."""
    rng = np.random.default_rng(987654321)
    instances = [two_village_params()] + [
        random_subcritical_params(
            rng,
            max_villages=4,
            min_eta=0.05,
            row_sum_range=(0.2, 0.7),
            lam_range=(0.2, 2.0),
            nu_range=(0.05, 0.8),
        )
        for _ in range(5)
    ]
    cases = [
        (inst_id, params, n, derive_seed(1000 + inst_id, n, k))
        for inst_id, params in enumerate(instances)
        for n in BATTERY_N_VALUES
        for k in range(BATTERY_SEEDS)
    ]
    runs = []
    fifo_seconds = 0.0
    workers = min(2, os.cpu_count() or 1)
    # Spawned workers start from a fresh import; a fork would copy this
    # process mid-run, with whatever threads its libraries have started.
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        _, params_of, n_of, seed_of = zip(*cases)
        alts = pool.map(reference_runs, params_of, n_of, seed_of)  # submits every case now
        for inst_id, params, n, seed in cases:
            t0 = perf_counter()
            src = StackSource(params, n, seed)
            sim = stabilize(params, n, src)
            loop = single_loop(params, n, src, sim.M_star)
            fifo_seconds += perf_counter() - t0
            runs.append(
                {
                    "instance": inst_id,
                    "n": n,
                    "seed": seed,
                    "floor_sigma": floor_counts(params.init_sleepers, n),
                    "M_star": sim.M_star,
                    "S_star": sim.S_star,
                    "inflow": sim.inflow,
                    "Phi": loop.Phi,
                    "S_loop": loop.S,
                }
            )
        for run, alt in zip(runs, alts):
            run["alt"] = alt
    # The spawn pool started multiprocessing's resource tracker, a child of
    # this process that would otherwise outlive the battery.
    resource_tracker._resource_tracker._stop()
    return {"runs": runs, "fifo_seconds": fifo_seconds}


def test_criterion_01_discrete_fixed_point(battery):
    bad = sum(
        not (np.array_equal(r["Phi"], r["M_star"]) and np.array_equal(r["S_loop"], r["S_star"]))
        for r in battery["runs"]
    )
    elapsed = battery["fifo_seconds"]
    ok = bad == 0 and elapsed < 120.0
    _report(
        1,
        ok,
        f"single_loop(M*) == (M*, S*) exactly on {len(battery['runs'])} runs "
        f"({bad} mismatches, stabilize+loop time {elapsed:.1f}s)",
    )


def test_criterion_02_abelian_order_invariance(battery):
    bad = 0
    for r in battery["runs"]:
        for M_alt, S_alt in r["alt"].values():
            if not (np.array_equal(M_alt, r["M_star"]) and np.array_equal(S_alt, r["S_star"])):
                bad += 1
    _report(
        2,
        bad == 0,
        f"rounds and all {len(SCHEDULES)} toppling schedules identical on "
        f"{len(battery['runs'])} shared-stack runs ({bad} mismatches)",
    )


def test_battery_leaves_no_child_process(battery):
    """The battery's workers and the resource tracker their pool started
    have all ended and been reaped, so waitpid knows no child at all."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_criterion_03_exact_mass_balance(battery):
    bad = sum(
        not np.array_equal(r["S_star"], r["floor_sigma"] + r["inflow"] - r["M_star"])
        for r in battery["runs"]
    )
    _report(
        3,
        bad == 0,
        f"S* = floor(sigma n) + inflow - M* integer-exact on {len(battery['runs'])} runs "
        "(also asserted inside every stabilize call)",
    )


def test_criterion_04_solver_oracles():
    # (a) no actives: zero odometer, sleeper profile untouched
    params_a = two_village_params()
    params_a = ModelParams(
        kernel=params_a.kernel,
        sleep_rates=params_a.sleep_rates,
        init_sleepers=params_a.init_sleepers,
        init_actives=[0.0, 0.0],
    )
    sol_a = solve_fixed_point(params_a, compute_spectral(params_a))
    ok_a = np.all(sol_a.m_star == 0.0) and np.array_equal(sol_a.s_star, params_a.init_sleepers)

    # (b) critical sigma: the map is affine, compare to a direct linear solve
    base = two_village_params()
    sigma_c = critical_profile(base)
    params_b = ModelParams(
        kernel=base.kernel,
        sleep_rates=base.sleep_rates,
        init_sleepers=sigma_c,
        init_actives=base.init_actives,
    )
    sol_b = solve_fixed_point(params_b, compute_spectral(params_b), tol=1e-12)
    m_lin = np.linalg.solve(
        (np.eye(base.num_villages) - base.kernel).T, base.init_actives
    )
    ok_b = (
        np.max(np.abs(sol_b.m_star - m_lin)) <= 1e-10
        and np.max(np.abs(sol_b.s_star - sigma_c)) <= 1e-9
    )

    # (c) scalar instance against an independent bisection oracle
    params_c = one_village_params(q=0.5, lam=1.0, sigma=0.0, nu=1.0)

    def g(m):
        return -0.5 * (1.0 - math.exp(-(1.0 + 0.5 * m))) + 1.0 + 0.5 * m - m

    lo, hi = 0.0, 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    sol_c = solve_fixed_point(params_c, compute_spectral(params_c), tol=1e-12)
    ok_c = abs(sol_c.m_star[0] - root) <= 1e-9

    _report(4, ok_a and ok_b and ok_c, f"oracles a={ok_a} b={ok_b} c={ok_c}")


def test_criterion_05_contraction_and_residual():
    rng = np.random.default_rng(13579)
    worst_contraction = 0.0
    worst_residual = 0.0
    for _ in range(100):
        params = random_subcritical_params(rng, min_eta=0.05)
        spectral = compute_spectral(params)
        V = params.num_villages
        m1 = rng.uniform(0.0, 4.0, V)
        m2 = rng.uniform(0.0, 4.0, V)
        lhs = eta_norm(spectral, phi(params, m1) - phi(params, m2))
        rhs = spectral.mu * eta_norm(spectral, m1 - m2)
        worst_contraction = max(worst_contraction, lhs - rhs)
        sol = solve_fixed_point(params, spectral, tol=1e-12)
        m = rng.uniform(0.0, 4.0, V)
        gap = eta_norm(spectral, m - sol.m_star) - eta_norm(
            spectral, m - phi(params, m)
        ) / (1.0 - spectral.mu)
        worst_residual = max(worst_residual, gap)
    ok = worst_contraction <= 1e-9 and worst_residual <= 1e-8
    _report(
        5,
        ok,
        f"100 instances: contraction excess {worst_contraction:.2e} (tol 1e-9), "
        f"residual excess {worst_residual:.2e} (tol 1e-8)",
    )


def test_criterion_06_continuum_abelian_identities():
    rng = np.random.default_rng(24680)
    worst_s = 0.0
    worst_m = 0.0
    for _ in range(50):
        params = random_subcritical_params(rng, min_eta=0.05)
        spectral = compute_spectral(params)
        V = params.num_villages
        nu_extra = rng.uniform(0.0, 1.0, V)
        first = solve_fixed_point(params, spectral, tol=1e-12)
        chained = solve_fixed_point(
            ModelParams(
                kernel=params.kernel,
                sleep_rates=params.sleep_rates,
                init_sleepers=first.s_star,
                init_actives=nu_extra,
            ),
            spectral,
            tol=1e-12,
        )
        merged = solve_fixed_point(
            ModelParams(
                kernel=params.kernel,
                sleep_rates=params.sleep_rates,
                init_sleepers=params.init_sleepers,
                init_actives=params.init_actives + nu_extra,
            ),
            spectral,
            tol=1e-12,
        )
        worst_s = max(worst_s, float(np.max(np.abs(chained.s_star - merged.s_star))))
        worst_m = max(
            worst_m, float(np.max(np.abs(first.m_star + chained.m_star - merged.m_star)))
        )
    ok = worst_s <= 1e-8 and worst_m <= 1e-8
    _report(
        6,
        ok,
        f"50 random (sigma, nu, nu') triples: sleeper dev {worst_s:.2e}, "
        f"odometer dev {worst_m:.2e} (tol 1e-8)",
    )


def test_criterion_07_law_of_large_numbers():
    t0 = perf_counter()
    params = two_village_params()
    seeds = [derive_seed(424242, k) for k in range(20)]
    config = LLNConfig(params=params, n_values=[1000, 10000, 100000], seeds=seeds)
    report = run_lln(config)
    medians = {
        (row["n"], row["metric"]): row["median"] for row in report.summary
    }
    med_m = [medians[(n, "err_m_inf")] for n in (1000, 10000, 100000)]
    med_s = [medians[(n, "err_s_inf")] for n in (1000, 10000, 100000)]
    decay_ok = med_m[0] > med_m[1] > med_m[2] and med_s[0] > med_s[1] > med_s[2]
    # envelope calibrated on the n=1e3 runs: c = 2 * median * sqrt(1e3)
    c = 2.0 * med_m[0] * math.sqrt(1000.0)
    envelope = c / math.sqrt(100000.0)
    envelope_ok = med_m[2] <= envelope
    elapsed = perf_counter() - t0
    ok = decay_ok and envelope_ok and elapsed < 600.0
    _report(
        7,
        ok,
        f"median err_m_inf {med_m[0]:.2e} > {med_m[1]:.2e} > {med_m[2]:.2e}, "
        f"err_s_inf {med_s[0]:.2e} > {med_s[1]:.2e} > {med_s[2]:.2e}, "
        f"n=1e5 median {med_m[2]:.2e} <= envelope {envelope:.2e}, {elapsed:.0f}s",
    )


def test_criterion_08_concentration_bounds():
    t0 = perf_counter()
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.5)
    details = []
    ok = True
    for a in (0.1, 0.2):
        config = ConcentrationConfig(
            params=params, n=200, M=np.array([100]), a=a, trials=10_000, seed=2718
        )
        report = run_concentration(config)
        ok = ok and not report.violated
        details.append(
            f"a={a}: freq_s={report.freq_s:.4f}<=bound {min(report.bound_s, 1.0):.4f}, "
            f"freq_phi={report.freq_phi:.4f}<=bound {min(report.bound_phi, 1.0):.4f}"
        )
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(8, ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_09_terminal_notice_distribution():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.3, nu=0.5)
    report = run_kappa_equivalence(params, 50, [20], trials=10_000, seed=31415)
    ok = all(p > 0.001 for p in report.p_values)
    _report(
        9,
        ok,
        f"two-sample chi-square p-values {[f'{p:.4f}' for p in report.p_values]} all > 0.001",
    )


def test_criterion_10_conditional_outflux_mean():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.3, nu=0.4)
    n = 100
    M = np.array([50])
    trials = 20_000
    res = single_loop_trials(params, n, derive_seeds(161803, np.arange(trials)), M)
    influx = res.I[:, 0]
    outflux = res.Phi[:, 0]
    retained = 0
    worst_z = 0.0
    ok = True
    for u in np.unique(influx):
        sel = outflux[influx == u]
        if sel.size < 200:
            continue
        retained += 1
        se = float(np.std(sel, ddof=1)) / math.sqrt(sel.size)
        z = abs(float(np.mean(sel)) - expected_outflux_given_influx(params, 0, n, int(u))) / se
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0
    ok = ok and retained > 0
    _report(
        10,
        ok,
        f"{retained} influx values with >=200 samples, worst |z| = {worst_z:.2f} (limit 3)",
    )
