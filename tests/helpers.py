"""Shared fixtures-in-code: canonical instances and a random-instance generator."""

from __future__ import annotations

import numpy as np

from varw import ModelParams, compute_spectral, validate_model


def two_village_params() -> ModelParams:
    """The default benchmark instance used across the experiment suites."""
    return ModelParams(
        kernel=np.array([[0.0, 0.5], [0.4, 0.0]]),
        sleep_rates=[1.0, 1.0],
        init_sleepers=[0.2, 0.3],
        init_actives=[0.5, 0.3],
    )


def one_village_params(q=0.5, lam=1.0, sigma=0.0, nu=1.0) -> ModelParams:
    return ModelParams(
        kernel=np.array([[float(q)]]),
        sleep_rates=[float(lam)],
        init_sleepers=[float(sigma)],
        init_actives=[float(nu)],
    )


def random_subcritical_params(
    rng: np.random.Generator,
    max_villages: int = 4,
    min_eta: float = 0.01,
    row_sum_range: tuple[float, float] = (0.2, 0.9),
    lam_range: tuple[float, float] = (0.2, 3.0),
    nu_range: tuple[float, float] = (0.0, 0.9),
) -> ModelParams:
    """A random valid subcritical instance with a well-conditioned eigenvector.

    A directed ring keeps the support irreducible; row sums are rescaled into
    `row_sum_range` so the kernel stays strictly sub-stochastic with a
    contraction factor bounded away from 1; instances whose eigenvector has
    entries below `min_eta` are redrawn.
    """
    while True:
        V = int(rng.integers(1, max_villages + 1))
        P = rng.uniform(0.0, 1.0, (V, V)) * (rng.uniform(0.0, 1.0, (V, V)) < 0.7)
        for x in range(V):
            P[x, (x + 1) % V] = max(P[x, (x + 1) % V], 0.2)
        targets = rng.uniform(*row_sum_range, V)
        P = P / P.sum(axis=1, keepdims=True) * targets[:, None]
        lam = rng.uniform(*lam_range, V)
        sigma = rng.uniform(0.0, 1.0, V) * lam / (1.0 + lam)
        nu = rng.uniform(*nu_range, V)
        params = ModelParams(kernel=P, sleep_rates=lam, init_sleepers=sigma, init_actives=nu)
        validate_model(params)
        if compute_spectral(params).eta_min >= min_eta:
            return params
