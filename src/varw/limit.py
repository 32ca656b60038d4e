"""Continuum limit of the village process: the maps beta, s, phi and the
solver for the unique subcritical fixed point.

beta(m) = nu + mP is the expected influx profile given a jump odometer
density m, s(m) = -m + sigma + beta(m) the implied sleeper density, and

    phi(m)_x = (sigma_x - lambda_x/(1+lambda_x)) * (1 - exp(-beta(m)_x)) + beta(m)_x

the map whose unique nonnegative fixed point m_star is the large-n limit of
the scaled jump odometer.  phi contracts the eta-weighted l1 norm with
factor mu, so plain Banach iteration from zero converges geometrically and
carries an a-posteriori error certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AcceptanceCheckError, IterationCapError, ValidationError
from .model import ModelParams, SpectralData, critical_profile, eta_norm, validate_model

DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 10**7
_MONOTONE_SLACK = 1e-13  # float rounding allowance on the nondecreasing-iterates check
_EPS = 2.0**-52  # float64 machine epsilon, a literal so that import does no numpy work


@dataclass(frozen=True, eq=False)
class LimitSolution:
    """Certified solution of the continuum fixed-point system.

    `certified_eta_error` bounds the eta-norm distance between `m_star` and
    the exact fixed point.
    """

    m_star: np.ndarray
    s_star: np.ndarray
    certified_eta_error: float
    iterations: int


def _check_mass_vector(params: ModelParams, m, name: str = "m") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (params.num_villages,):
        raise ValidationError(f"{name} has shape {m.shape}, expected ({params.num_villages},)")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(m < 0):
        raise ValidationError(f"{name} contains negative entries")
    return m


def beta(params: ModelParams, m) -> np.ndarray:
    """Expected influx per village: beta(m)_x = nu_x + sum_y m_y P_{y,x}."""
    m = _check_mass_vector(params, m)
    return params.init_actives + m @ params.kernel


def sleep_profile(params: ModelParams, m) -> np.ndarray:
    """Sleeper density implied by odometer m: s(m) = -m + sigma + beta(m).

    Affine and deliberately unclamped; entries can be negative away from the
    fixed point.
    """
    m = _check_mass_vector(params, m)
    return -m + params.init_sleepers + beta(params, m)


def phi(params: ModelParams, m) -> np.ndarray:
    """One application of the continuum fixed-point map."""
    b = beta(params, m)  # checks m
    gap = params.init_sleepers - critical_profile(params)
    return gap * (1.0 - np.exp(-b)) + b


def _rounded_up(x: float) -> str:
    """x > 0 rounded up to two significant digits, as text."""
    from decimal import ROUND_CEILING, Decimal  # only a refused tol needs it

    exact = Decimal(x)
    return str(exact.quantize(Decimal(1).scaleb(exact.adjusted() - 1), rounding=ROUND_CEILING)).lower()


def solve_fixed_point(
    params: ModelParams,
    spectral: SpectralData,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> LimitSolution:
    """Banach iteration m <- phi(m) from zero, with a certified stop.

    Stops once successive iterates are within tol*(1-mu) in the eta norm;
    the residual bound then guarantees the returned iterate is within tol of
    the exact fixed point.  Requires a subcritical instance, where phi is a
    contraction with factor mu, and a tol that float64 resolves: a tol with
    tol*(1-mu) below 8*eps times an iterate's eta norm raises ValidationError,
    which names a tol that clears that floor at the fixed point.
    """
    validate_model(params)
    if not (tol > 0 and np.isfinite(tol)):
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    mu = spectral.mu
    threshold = tol * (1.0 - mu)
    m = np.zeros(params.num_villages, dtype=np.float64)
    for iteration in range(1, max_iterations + 1):
        m_next = phi(params, m)
        if np.any(m_next < m - _MONOTONE_SLACK):
            raise AcceptanceCheckError(
                f"continuum iterates from zero must be componentwise nondecreasing; "
                f"iteration {iteration} decreased"
            )
        # phi is evaluated in float64, so no step certifies less than its rounding error.
        floor = 8 * _EPS * eta_norm(spectral, m_next)
        step = eta_norm(spectral, m_next - m)
        if threshold < floor:
            # The iterates rise to the fixed point, within mu*step/(1-mu) of m_next, so its floor is below this.
            passing = (floor + 8 * _EPS * mu * step / (1.0 - mu)) / (1.0 - mu)
            raise ValidationError(
                f"tol={tol!r} is below the float64 resolution of the fixed point: the certificate "
                f"needs tol*(1-mu) >= 8*eps*|m|_eta = {floor!r}; a tol of {_rounded_up(passing)} or more clears it"
            )
        m = m_next
        if step <= threshold:
            return LimitSolution(
                m_star=m,
                s_star=sleep_profile(params, m),
                certified_eta_error=tol,
                iterations=iteration,
            )
    raise IterationCapError(
        f"fixed-point iteration did not reach tolerance {tol!r} within {max_iterations} steps"
    )
