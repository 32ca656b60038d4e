import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import one_village_params, random_subcritical_params, two_village_params

from varw import (
    IterationCapError,
    ModelParams,
    ValidationError,
    beta,
    compute_spectral,
    critical_profile,
    eta_norm,
    phi,
    sleep_profile,
    solve_fixed_point,
)

# root of g(m) = -(1/2)(1 - exp(-(1 + m/2))) + 1 + m/2 - m on [0, 2],
# found independently by bisection (see bisect_root below)
ONE_VILLAGE_M_STAR = 1.201722690283333


def bisect_root(f, lo, hi, tol=1e-12):
    assert f(lo) > 0 > f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_beta_at_zero_is_nu(default_params):
    assert np.array_equal(beta(default_params, [0.0, 0.0]), default_params.init_actives)


def test_beta_scalar_case():
    params = one_village_params(q=0.5, nu=1.0)
    assert beta(params, [2.0])[0] == 2.0


def test_beta_two_village_direct(default_params):
    got = beta(default_params, [1.0, 1.0])
    assert np.allclose(got, [0.9, 0.8], atol=1e-15)


def test_beta_rejects_negative_mass(default_params):
    with pytest.raises(ValidationError, match="negative"):
        beta(default_params, [-1.0, 0.0])


def test_beta_rejects_dimension_mismatch(default_params):
    with pytest.raises(ValidationError, match="shape"):
        beta(default_params, [1.0])


def test_sleep_profile_at_zero(default_params):
    got = sleep_profile(default_params, [0.0, 0.0])
    assert np.allclose(got, default_params.init_sleepers + default_params.init_actives)


def test_sleep_profile_can_go_negative():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=1.0)
    got = sleep_profile(params, [4.0])
    assert abs(got[0] - (-0.8)) < 1e-12


def test_phi_zero_is_zero_without_actives():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=0.0)
    assert phi(params, [0.0])[0] == 0.0


def test_phi_equals_beta_at_critical_sigma():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.5, nu=0.7)
    m = np.array([1.3])
    assert np.allclose(phi(params, m), beta(params, m), atol=1e-15)


def test_phi_scalar_value():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.0, nu=1.0)
    expected = -0.5 * (1.0 - math.exp(-1.5)) + 1.5
    assert abs(phi(params, [1.0])[0] - expected) < 1e-15


def test_solve_zero_actives_gives_zero_odometer():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.4, nu=0.0)
    sol = solve_fixed_point(params, compute_spectral(params))
    assert sol.m_star[0] == 0.0
    assert np.array_equal(sol.s_star, params.init_sleepers)


def test_solve_critical_sigma_matches_linear_solve():
    params = two_village_params()
    sigma_c = critical_profile(params)
    params_c = type(params)(
        kernel=params.kernel,
        sleep_rates=params.sleep_rates,
        init_sleepers=sigma_c,
        init_actives=params.init_actives,
    )
    spectral = compute_spectral(params_c)
    sol = solve_fixed_point(params_c, spectral, tol=1e-12)
    # independent oracle: m (I - P) = nu as a linear system
    V = params_c.num_villages
    m_lin = np.linalg.solve((np.eye(V) - params_c.kernel).T, params_c.init_actives)
    assert np.max(np.abs(sol.m_star - m_lin)) <= 1e-10
    assert np.max(np.abs(sol.s_star - sigma_c)) <= 1e-9


def test_solve_one_village_matches_bisection_oracle():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.0, nu=1.0)

    def g(m):
        return -0.5 * (1.0 - math.exp(-(1.0 + 0.5 * m))) + 1.0 + 0.5 * m - m

    root = bisect_root(g, 0.0, 2.0)
    assert abs(root - ONE_VILLAGE_M_STAR) < 1e-9  # guards the oracle itself
    sol = solve_fixed_point(params, compute_spectral(params), tol=1e-12)
    assert abs(sol.m_star[0] - root) <= 1e-9


def test_solve_refuses_supercritical_sigma():
    params = one_village_params(lam=1.0, sigma=0.9)
    with pytest.raises(ValidationError, match="not subcritical"):
        solve_fixed_point(params, compute_spectral(params))


def test_solve_iteration_cap():
    params = two_village_params()
    spectral = compute_spectral(params)
    with pytest.raises(IterationCapError):
        solve_fixed_point(params, spectral, tol=1e-10, max_iterations=2)


def test_solve_rejects_nonpositive_tol(default_params, default_spectral):
    with pytest.raises(ValidationError, match="tol"):
        solve_fixed_point(default_params, default_spectral, tol=0.0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_solve_rejects_a_tol_that_is_not_finite(default_params, default_spectral, tol):
    """An infinite tol would stop after one iteration and certify nothing."""
    with pytest.raises(ValidationError, match="tol must be positive and finite"):
        solve_fixed_point(default_params, default_spectral, tol=tol)


def test_a_refused_tol_names_a_tol_that_certifies():
    """Near mu = 1 the default tol is below float64 resolution; the refusal
    names a tol, from a bound on the fixed point's floor, that certifies."""
    base = two_village_params()
    kernel = base.kernel / base.kernel.sum(axis=1, keepdims=True) * 0.999  # mu = 0.999
    params = ModelParams(kernel, base.sleep_rates, base.init_sleepers, base.init_actives)
    spectral = compute_spectral(params)
    with pytest.raises(ValidationError, match=r"^tol=1e-10 is below the float64 resolution") as err:
        solve_fixed_point(params, spectral)
    named = re.search(r"a tol of (\S+) or more clears it$", str(err.value))
    tol = float(named.group(1))
    assert 1e-10 < tol < 1e-9
    sol = solve_fixed_point(params, spectral, tol=tol)
    assert sol.certified_eta_error == tol
    resid = eta_norm(spectral, phi(params, sol.m_star) - sol.m_star)
    assert resid <= tol * (1.0 - spectral.mu)


def test_certified_error_bounds_true_residual(default_params, default_spectral):
    sol = solve_fixed_point(default_params, default_spectral, tol=1e-10)
    resid = eta_norm(default_spectral, phi(default_params, sol.m_star) - sol.m_star)
    assert resid <= sol.certified_eta_error * (1.0 - default_spectral.mu) + 1e-15


def test_s_star_stays_below_critical_profile(default_params, default_spectral):
    sol = solve_fixed_point(default_params, default_spectral)
    assert np.all(sol.s_star >= 0.0)
    assert np.all(sol.s_star <= critical_profile(default_params) + 1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_contraction_in_eta_norm(seed):
    rng = np.random.default_rng(seed)
    params = random_subcritical_params(rng)
    spectral = compute_spectral(params)
    V = params.num_villages
    m1 = rng.uniform(0.0, 4.0, V)
    m2 = rng.uniform(0.0, 4.0, V)
    lhs = eta_norm(spectral, phi(params, m1) - phi(params, m2))
    rhs = spectral.mu * eta_norm(spectral, m1 - m2)
    assert lhs <= rhs + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_phi_monotone_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    params = random_subcritical_params(rng)
    V = params.num_villages
    lo = rng.uniform(0.0, 3.0, V)
    hi = lo + rng.uniform(0.0, 2.0, V)
    p_lo = phi(params, lo)
    p_hi = phi(params, hi)
    assert np.all(p_lo >= 0.0)
    assert np.all(p_lo <= p_hi + 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_residual_bound(seed):
    rng = np.random.default_rng(seed)
    params = random_subcritical_params(rng)
    spectral = compute_spectral(params)
    sol = solve_fixed_point(params, spectral, tol=1e-12)
    m = rng.uniform(0.0, 4.0, params.num_villages)
    lhs = eta_norm(spectral, m - sol.m_star)
    rhs = eta_norm(spectral, m - phi(params, m)) / (1.0 - spectral.mu)
    assert lhs <= rhs + 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_continuum_abelian_identities(seed):
    rng = np.random.default_rng(seed)
    params = random_subcritical_params(rng, min_eta=0.05)
    V = params.num_villages
    spectral = compute_spectral(params)
    nu_extra = rng.uniform(0.0, 1.0, V)
    first = solve_fixed_point(params, spectral, tol=1e-12)
    chained_params = type(params)(
        kernel=params.kernel,
        sleep_rates=params.sleep_rates,
        init_sleepers=first.s_star,
        init_actives=nu_extra,
    )
    second = solve_fixed_point(chained_params, spectral, tol=1e-12)
    merged_params = type(params)(
        kernel=params.kernel,
        sleep_rates=params.sleep_rates,
        init_sleepers=params.init_sleepers,
        init_actives=params.init_actives + nu_extra,
    )
    merged = solve_fixed_point(merged_params, spectral, tol=1e-12)
    assert np.max(np.abs(second.s_star - merged.s_star)) <= 1e-8
    assert np.max(np.abs(first.m_star + second.m_star - merged.m_star)) <= 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_critical_profile_is_fixed(seed):
    rng = np.random.default_rng(seed)
    base = random_subcritical_params(rng)
    sigma_c = critical_profile(base)
    params = type(base)(
        kernel=base.kernel,
        sleep_rates=base.sleep_rates,
        init_sleepers=sigma_c,
        init_actives=rng.uniform(0.0, 2.0, base.num_villages),
    )
    sol = solve_fixed_point(params, compute_spectral(params), tol=1e-12)
    assert np.max(np.abs(sol.s_star - sigma_c)) <= 1e-9


def test_balance_and_last_exit_agree_at_fixed_point(default_params, default_spectral):
    sol = solve_fixed_point(default_params, default_spectral, tol=1e-12)
    b = beta(default_params, sol.m_star)
    balance_rhs = -sol.m_star + default_params.init_sleepers + b
    sigma_c = critical_profile(default_params)
    last_exit_rhs = default_params.init_sleepers * np.exp(-b) + sigma_c * (1.0 - np.exp(-b))
    assert np.max(np.abs(balance_rhs - last_exit_rhs)) <= 1e-8
