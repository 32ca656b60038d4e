"""Shared fixtures-in-code: canonical instances and a random-instance generator."""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import varw.experiments as exp_mod
import varw.simulator as simulator_mod
import varw.stacks as stacks_mod
from varw import ModelParams, compute_spectral, validate_model

# A failure injected by monkeypatching reaches a worker only if it is forked.
needs_fork = pytest.mark.skipif(not exp_mod._FORKS, reason="run_lln forks no workers here")


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


@contextmanager
def scan_slice(piece: int):
    """Every bounded read in pieces of at most `piece` entries: the stack
    reads, the landlord scan's house slices and the resampled uniforms."""
    with mock.patch.object(stacks_mod, "_SCAN_SLICE", piece), mock.patch.object(simulator_mod, "_SCAN_SLICE", piece):
        yield


def record_forks(monkeypatch) -> list[int]:
    """A list that collects the pid of every child this process forks from
    now on through os.fork."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def fail_os_call(monkeypatch, name: str, call: int, error: OSError) -> None:
    """Make call number `call` of os.<name> (os.pipe or os.fork) raise
    `error`, as it would past the open-file limit or a process or memory
    limit; the other calls run as before."""
    real, calls = getattr(os, name), []

    def failing():
        calls.append(None)
        if len(calls) == call:
            raise error
        return real()

    monkeypatch.setattr(os, name, failing)


def kill_forked_workers(monkeypatch, seed) -> None:
    """Make every forked worker that stabilizes `seed` send itself SIGKILL,
    as the out-of-memory killer would; the calling process runs its tasks
    as usual."""
    real, caller = exp_mod.stabilize, os.getpid()

    def stabilize(params, n, src, *args):
        if seed in src.master_seed and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(params, n, src, *args)

    monkeypatch.setattr(exp_mod, "stabilize", stabilize)


def assert_reaped(pids) -> None:
    """Each of pids has ended and been reaped, so that waitpid no longer
    knows it."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
