import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import one_village_params, random_subcritical_params, scan_slice, two_village_params
from reference import (
    SCHEDULES,
    InjectedStackSource,
    ScalarStacks,
    StackExhaustedError,
    expected_outflux_given_influx,
    reference_fresh_uniforms,
    reference_init_config,
    reference_single_loop,
    reference_single_loop_tilde,
    reference_stabilize,
)

from varw import (
    AcceptanceCheckError,
    GRAVEYARD,
    InputSizeError,
    JUMP,
    SLEEP,
    ModelParams,
    StackSource,
    StepCapError,
    ValidationError,
    single_loop,
    single_loop_tilde,
    single_loop_trials,
    stabilize,
)
from varw.model import floor_counts
import varw.simulator as simulator_mod


def test_init_config_all_sleepers_is_stable():
    params = one_village_params(q=0.5, lam=1.0, sigma=1.0, nu=0.0)
    cfg = reference_init_config(params, 3, StackSource(params, 3, 1))
    assert cfg.counts.tolist() == [[1, 1, 1]]
    assert cfg.sleeping.all()
    assert cfg.is_stable


def test_init_config_immigrants_pile_up():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.0, nu=1.0)
    src = InjectedStackSource(params, 2, taxi={0: [1, 1]})
    cfg = reference_init_config(params, 2, src)
    assert cfg.counts.tolist() == [[2, 0]]
    assert not cfg.sleeping.any()
    assert not cfg.is_stable


def test_init_config_wakes_landed_on_sleeper():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.5, nu=0.5)
    src = InjectedStackSource(params, 4, taxi={0: [1, 3]})
    cfg = reference_init_config(params, 4, src)
    assert cfg.counts.tolist() == [[2, 1, 1, 0]]
    assert cfg.sleeping.tolist() == [[False, True, False, False]]


def test_stabilize_without_actives_is_a_noop():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.75, nu=0.0)
    src = StackSource(params, 8, 4)
    sim = stabilize(params, 8, src)
    assert sim.M_star.tolist() == [0]
    assert sim.S_star.tolist() == [6]
    assert sim.inflow.tolist() == [0]
    assert sim.consumed.airplane.tolist() == [0]
    assert sim.consumed.taxi.tolist() == [0]
    assert sim.consumed.landlord.tolist() == [0]
    assert sim.occupied.tolist() == [[True] * 6 + [False] * 2]


def test_stabilize_single_particle_two_outcomes():
    # lone active particle with lambda=1 and a fully leaking kernel:
    # sleeps (M*=0, S*=1) or jumps to the graveyard (M*=1, S*=0)
    # (one multi-seed call: trial t is the run on seed t)
    params = one_village_params(q=0.0, lam=1.0, sigma=0.0, nu=0.25)
    trials = 10_000
    sim = stabilize(params, 4, StackSource(params, 4, list(range(trials))))
    assert set(zip(sim.M_star.tolist(), sim.S_star.tolist())) <= {(0, 1), (1, 0)}
    sleeps = np.count_nonzero(sim.M_star == 0)
    assert abs(sleeps / trials - 0.5) <= 0.02


def test_stabilize_injected_hand_trace():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.0, nu=0.5)
    src = InjectedStackSource(
        params, 2, taxi={0: [1]}, landlord={(0, 1): [JUMP]}, airplane={0: [GRAVEYARD]}
    )
    sim = stabilize(params, 2, src)
    assert sim.M_star.tolist() == [1]
    assert sim.S_star.tolist() == [0]
    assert sim.inflow.tolist() == [1]
    assert sim.consumed.airplane.tolist() == [1]
    assert sim.consumed.taxi.tolist() == [1]
    assert sim.consumed.landlord.tolist() == [1]


def test_stabilize_consumption_matches_odometer_and_inflow():
    params = two_village_params()
    src = StackSource(params, 500, 99)
    sim = stabilize(params, 500, src)
    assert np.array_equal(sim.consumed.airplane, sim.M_star)
    assert np.array_equal(sim.consumed.taxi, sim.inflow)


def test_stabilize_step_cap_guard():
    params = two_village_params()
    src = StackSource(params, 1000, 5)
    with pytest.raises(StepCapError):
        stabilize(params, 1000, src, step_cap=10)


def test_single_loop_empty_inputs():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.5, nu=0.0)
    res = single_loop(params, 10, StackSource(params, 10, 6), [0])
    assert res.I.tolist() == [0]
    assert res.A.tolist() == [0]
    assert res.Q.tolist() == [5]
    assert res.J.tolist() == [0]
    assert res.Phi.tolist() == [0]
    assert res.S.tolist() == [5]


def test_single_loop_injected_hand_trace():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.5, nu=0.5)
    src = InjectedStackSource(params, 2, taxi={0: [2]}, landlord={(0, 2): [SLEEP]})
    res = single_loop(params, 2, src, [0])
    assert res.I.tolist() == [1]
    assert res.A.tolist() == [1]
    assert res.Q.tolist() == [1]
    assert res.J.tolist() == [0]
    assert res.Phi.tolist() == [0]
    assert res.S.tolist() == [2]


def test_single_loop_is_fixed_point_of_stabilization():
    params = two_village_params()
    for seed in (0, 1, 2, 7, 1234):
        src = StackSource(params, 2000, seed)
        sim = stabilize(params, 2000, src)
        res = single_loop(params, 2000, src, sim.M_star)
        assert np.array_equal(res.Phi, sim.M_star)
        assert np.array_equal(res.S, sim.S_star)


def test_single_loop_identity_decomposition():
    params = two_village_params()
    src = StackSource(params, 300, 17)
    M = np.array([120, 90])
    res = single_loop(params, 300, src, M)
    floor_sigma = np.floor(params.init_sleepers * 300).astype(int)
    assert np.array_equal(res.Phi, floor_sigma - res.Q + res.I - res.A + res.J)
    assert np.array_equal(res.S, -M + floor_sigma + res.I)
    assert np.all(res.J >= 0) and np.all(res.J <= res.A)
    assert np.all(res.A <= np.minimum(300, res.I))
    assert np.all(res.Q >= 0) and np.all(res.Q <= floor_sigma)


def test_single_loop_rejects_bad_odometer():
    params = two_village_params()
    src = StackSource(params, 10, 1)
    with pytest.raises(ValidationError):
        single_loop(params, 10, src, [1])
    with pytest.raises(ValidationError):
        single_loop(params, 10, src, [-1, 0])
    with pytest.raises(ValidationError):
        single_loop(params, 10, src, [0.5, 0.0])


def test_single_loop_tilde_zero_rate_matches_plain_loop():
    params = one_village_params(q=0.5, lam=0.0, sigma=0.0, nu=0.8)
    for seed in range(10):
        src = StackSource(params, 50, seed)
        plain = single_loop(params, 50, src, [20])
        tilde = single_loop_tilde(params, 50, src, [20], aux_seed=seed + 1)
        assert np.array_equal(plain.Phi, tilde)


def test_single_loop_tilde_empty_is_zero():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.4, nu=0.0)
    tilde = single_loop_tilde(params, 10, StackSource(params, 10, 2), [0], aux_seed=9)
    assert tilde.tolist() == [0]


def test_all_policies_agree_on_shared_stacks():
    params = two_village_params()
    for seed in range(6):
        sim = stabilize(params, 400, StackSource(params, 400, seed))
        for schedule in SCHEDULES:
            ref = reference_stabilize(params, 400, StackSource(params, 400, seed), schedule)
            assert (ref.M_star.tolist(), ref.S_star.tolist()) == (sim.M_star.tolist(), sim.S_star.tolist())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mass_balance_and_stability_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    params = random_subcritical_params(rng)
    n = int(rng.integers(10, 300))
    src = StackSource(params, n, seed)
    sim = stabilize(params, n, src)
    floor_sigma = np.array([int(s * n) for s in params.init_sleepers])
    assert np.array_equal(sim.S_star, floor_sigma + sim.inflow - sim.M_star)
    assert sim.occupied.dtype == bool and sim.occupied.shape == (params.num_villages, n)
    assert np.array_equal(np.count_nonzero(sim.occupied, axis=1), sim.S_star)
    loop = single_loop(params, n, src, sim.M_star)
    assert np.array_equal(loop.Phi, sim.M_star)
    assert np.array_equal(loop.S, sim.S_star)


def test_single_house_per_village():
    params = type(two_village_params())(
        kernel=np.array([[0.0, 0.5], [0.4, 0.0]]),
        sleep_rates=[1.0, 1.0],
        init_sleepers=[1.0, 0.0],
        init_actives=[1.0, 1.0],
    )
    src = StackSource(params, 1, 3)
    sim = stabilize(params, 1, src)
    loop = single_loop(params, 1, src, sim.M_star)
    assert np.array_equal(loop.Phi, sim.M_star)
    assert np.array_equal(loop.S, sim.S_star)


def test_stochastic_row_mixed_with_deficient_row():
    # village 0 never leaks directly; termination still guaranteed through village 1
    params = type(two_village_params())(
        kernel=np.array([[0.0, 1.0], [0.4, 0.0]]),
        sleep_rates=[1.0, 1.0],
        init_sleepers=[0.2, 0.3],
        init_actives=[0.5, 0.3],
    )
    src = StackSource(params, 500, 11)
    sim = stabilize(params, 500, src)
    loop = single_loop(params, 500, src, sim.M_star)
    assert np.array_equal(loop.Phi, sim.M_star)


def test_simulator_accepts_supercritical_sigma():
    # the solver refuses this instance; the simulator must not
    params = one_village_params(q=0.5, lam=0.2, sigma=0.9, nu=0.7)
    src = StackSource(params, 800, 5)
    sim = stabilize(params, 800, src)
    loop = single_loop(params, 800, src, sim.M_star)
    assert np.array_equal(loop.Phi, sim.M_star)
    assert np.array_equal(loop.S, sim.S_star)


def test_expected_outflux_formula_values():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.3, nu=0.4)
    # frozen from the closed-form expression at n=100, u=65
    assert abs(expected_outflux_given_influx(params, 0, 100, 65) - 55.40681045300613) < 1e-12
    assert expected_outflux_given_influx(params, 0, 100, 0) == 0.0


@st.composite
def edge_instances(draw):
    """Instances at the edges of the parameter space: up to 12 villages, some
    sleep rates 0, some sigma at the critical ceiling lambda/(1+lambda), some
    nu 0.  Returns (params, n, stack seed)."""
    V = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.uniform(0.0, 1.0, (V, V)) * (rng.uniform(0.0, 1.0, (V, V)) < 0.4)
    for x in range(V):
        P[x, (x + 1) % V] = max(P[x, (x + 1) % V], 0.2)
    P = P / P.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.9, V)[:, None]
    return _edge_params(draw, rng, P), draw(st.integers(1, 60)), draw(st.integers(0, 2**31))


@st.composite
def wide_instances(draw):
    """The edge cases of edge_instances on 13 to 300 villages: a ring plus 4
    random out-edges per village, n in 2..6.  Returns (params, n, stack seed)."""
    V = draw(st.integers(13, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = np.zeros((V, V))
    for x in range(V):
        ring = (x + 1) % V
        others = np.setdiff1d(np.arange(V), [x, ring])
        P[x, np.append(rng.choice(others, 4, replace=False), ring)] = rng.uniform(0.2, 1.0, 5)
    P = P / P.sum(axis=1, keepdims=True) * rng.uniform(0.3, 0.9, V)[:, None]
    return _edge_params(draw, rng, P), draw(st.integers(2, 6)), draw(st.integers(0, 2**31))


def _edge_params(draw, rng, P) -> ModelParams:
    """Rates on kernel P with some sleep rates 0, some sigma at the critical
    ceiling lambda/(1+lambda) and some nu 0."""
    V = P.shape[0]
    kinds = st.lists(st.sampled_from(("edge", "random")), min_size=V, max_size=V)
    lam = np.where(np.array(draw(kinds)) == "edge", 0.0, rng.uniform(0.2, 3.0, V))
    ceiling = lam / (1.0 + lam)
    sigma = np.where(np.array(draw(kinds)) == "edge", ceiling, rng.uniform(0.0, 1.0, V) * ceiling)
    nu = np.where(np.array(draw(kinds)) == "edge", 0.0, rng.uniform(0.0, 1.0, V))
    return ModelParams(kernel=P, sleep_rates=lam, init_sleepers=sigma, init_actives=nu)


def _sim_arrays(sim):
    c = sim.consumed
    return (sim.M_star, sim.S_star, sim.inflow, c.airplane, c.taxi, c.landlord, sim.occupied)


def _assert_same_run(got, want):
    for a, b in zip(_sim_arrays(got), _sim_arrays(want)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(edge_instances())
def test_rounds_stabilizer_matches_every_scalar_schedule(case):
    params, n, seed = case
    sim = stabilize(params, n, StackSource(params, n, seed))
    for schedule in SCHEDULES:
        _assert_same_run(sim, reference_stabilize(params, n, StackSource(params, n, seed), schedule))


@settings(max_examples=15, deadline=None)
@given(wide_instances())
def test_rounds_stabilizer_matches_scalar_schedules_on_many_villages(case):
    params, n, seed = case
    sim = stabilize(params, n, StackSource(params, n, seed))
    for schedule in ("fifo-house-queue", "lowest-index-first"):
        _assert_same_run(sim, reference_stabilize(params, n, StackSource(params, n, seed), schedule))


class _RecordingSource(ScalarStacks):
    """The scalar reads of a stack source, recording the highest notice index
    served per house."""

    def __init__(self, params, n, seed):
        super().__init__(StackSource(params, n, seed))
        self.landlord_high = {}

    def landlord(self, x, i, j):
        if j > self.landlord_high.get((x, i), 0):
            self.landlord_high[(x, i)] = j
        return super().landlord(x, i, j)


def _strict_copy(params, n, full, consumed, drop_last_notice=False):
    """Strict injected stacks holding exactly the prefixes a scalar run on
    the recording source `full` consumed."""
    landlord = {
        house: [full.landlord(*house, j) for j in range(1, k + 1)]
        for house, k in sorted(full.landlord_high.items())
    }
    if drop_last_notice:
        landlord[next(iter(landlord))].pop()
    return InjectedStackSource(
        params,
        n,
        airplane={x: [full.airplane(x, j) for j in range(1, k + 1)] for x, k in enumerate(consumed.airplane.tolist())},
        taxi={x: [full.taxi(x, j) for j in range(1, k + 1)] for x, k in enumerate(consumed.taxi.tolist())},
        landlord=landlord,
    )


@settings(max_examples=25, deadline=None)
@given(edge_instances())
def test_rounds_stabilizer_reads_only_the_scalar_prefixes(case):
    params, n, seed = case
    full = _RecordingSource(params, n, seed)
    ref = reference_stabilize(params, n, full, "fifo-house-queue")
    _assert_same_run(stabilize(params, n, _strict_copy(params, n, full, ref.consumed)), ref)


@pytest.mark.parametrize(
    "M, shown",
    [(np.array([1e19, 0.0]), "1e+19"), (np.array([0.0, -np.inf]), "-inf"), (np.array([2**63, 0], dtype=np.uint64), str(2**63))],
    ids=["float", "inf", "uint64"],
)
def test_odometer_past_int64_raises_input_size_error(M, shown):
    params = two_village_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "invalid value encountered in cast" on the way
        with pytest.raises(InputSizeError, match=rf"^M value {re.escape(shown)} does not fit in a 64-bit integer$"):
            single_loop(params, 10, StackSource(params, 10, 1), M)


def test_engine_reads_past_address_space_raise_input_size_error():
    """The engine's own reads skip the range checks but not the size check:
    every entry is below 2^60, and the round's airplane read (M) or taxi
    read (the initial actives) is not."""
    params = two_village_params()
    with pytest.raises(InputSizeError, match=rf"^a read of {2**60} stack entries is too large"):
        single_loop(params, 10, StackSource(params, 10, 1), [2**59, 2**59])
    crowded = ModelParams(kernel=params.kernel, sleep_rates=params.sleep_rates,
                          init_sleepers=params.init_sleepers, init_actives=np.full(2, 2.0**59))
    with pytest.raises(InputSizeError, match=rf"^a read of {2**60} stack entries is too large"):
        single_loop(crowded, 1, StackSource(crowded, 1, 1), [0, 0])


def test_engine_refuses_houses_past_physical_memory(monkeypatch):
    """Every entry point builds its engine only for houses that, at about
    16 B each, fit in physical memory: 256 houses on the 4 KiB machine here,
    one village of 256 or two trials of 128, and not one house more."""
    real, memory = os.sysconf, {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: memory[name] if name in memory else real(name))
    params = one_village_params()
    refused = r"^houses in all streams = 257 needs about 4112 bytes, more than the 4096 bytes of physical memory$"
    assert stabilize(params, 256, StackSource(params, 256, 1)).M_star.size == 1
    with pytest.raises(InputSizeError, match=refused):
        stabilize(params, 257, StackSource(params, 257, 1))
    with pytest.raises(InputSizeError, match=refused):
        single_loop(params, 257, StackSource(params, 257, 1), [3])
    assert single_loop_trials(params, 128, [1, 2], [3]).Phi.shape == (2, 1)
    with pytest.raises(InputSizeError, match=r"^houses in all streams = 258 "):
        single_loop_trials(params, 129, [1, 2], [3])


@pytest.mark.parametrize("M", [[2**60, 0], [0, 2**63 - 1]], ids=["2^60", "int64-max"])
def test_odometer_past_max_entries_raises_before_routing(M):
    """An entry >= 2^60 cannot be read, and the engine's read stops M + 1
    would wrap at 2^63 - 1: the check fires before anything is routed."""
    params = two_village_params()
    shown = max(M)
    with mock.patch.object(simulator_mod._LoopEngine, "route") as route:
        with pytest.raises(InputSizeError, match=rf"^M value {shown} is too large for a 64-bit address space$"):
            single_loop(params, 10, StackSource(params, 10, 1), M)
        with pytest.raises(InputSizeError, match=rf"^M value {shown} "):
            single_loop_tilde(params, 10, StackSource(params, 10, 1), M, 3)
        with pytest.raises(InputSizeError, match=rf"^M value {shown} "):
            single_loop_trials(params, 10, [1, 2], M)
    assert not route.called


def test_oracle_reads_a_stack_source_only_through_its_scalar_twin():
    """The oracle stays an independent check: on a StackSource it reads no
    entry through the package's reads."""
    params = two_village_params()
    want = stabilize(params, 40, StackSource(params, 40, 3))
    reads = ("landlord", "landlord_batch", "airplane_range", "taxi_range", "airplane_prefix", "taxi_prefix",
             "_airplane_range", "_taxi_range", "_landlord_reader")
    with mock.patch.multiple(StackSource, **dict.fromkeys(reads, mock.DEFAULT)) as views:
        for schedule in SCHEDULES:
            _assert_same_run(reference_stabilize(params, 40, StackSource(params, 40, 3), schedule), want)
    assert not any(view.called for view in views.values())


def test_rounds_stabilizer_needs_every_consumed_notice():
    params = two_village_params()
    full = _RecordingSource(params, 40, 8)
    ref = reference_stabilize(params, 40, full, "fifo-house-queue")
    short = _strict_copy(params, 40, full, ref.consumed, drop_last_notice=True)
    with pytest.raises(StackExhaustedError):
        stabilize(params, 40, short)
    with pytest.raises(StackExhaustedError):
        reference_stabilize(params, 40, short, "fifo-house-queue")


def test_step_cap_is_exact_for_every_policy():
    params = two_village_params()
    n = 300
    ref = stabilize(params, n, StackSource(params, n, 4))
    c = ref.consumed
    post_landing_taxi = c.taxi - floor_counts(params.init_actives, n)
    total = int(c.airplane.sum() + post_landing_taxi.sum() + c.landlord.sum())
    stabilize(params, n, StackSource(params, n, 4), step_cap=total)
    with pytest.raises(StepCapError):
        stabilize(params, n, StackSource(params, n, 4), step_cap=total - 1)
    for schedule in SCHEDULES:
        reference_stabilize(params, n, StackSource(params, n, 4), schedule, step_cap=total)
        with pytest.raises(StepCapError):
            reference_stabilize(params, n, StackSource(params, n, 4), schedule, step_cap=total - 1)


def test_rounds_stabilizer_with_small_scan_slices():
    """Scan slices of 7 houses, and tickets and notices read in pieces of 7."""
    params = two_village_params()
    n = 300
    ref = reference_stabilize(params, n, StackSource(params, n, 6), "fifo-house-queue")
    src = StackSource(params, n, 6)
    with scan_slice(7):
        _assert_same_run(stabilize(params, n, src), ref)
        loop = single_loop(params, n, src, ref.M_star)
    assert np.array_equal(loop.Phi, ref.M_star)
    assert np.array_equal(loop.S, ref.S_star)


@st.composite
def trial_batches(draw):
    """Edge instances for the batched evaluator: up to 12 villages, a zero
    kernel (V = 1), zero kernel entries, sleep rates 0, sigma at the critical
    ceiling, nu 0, n = 1; 3 to 24 trials with seeds of any sign and size, and
    a house budget that splits them into at least 3 chunks."""
    params, n, _ = draw(edge_instances())
    V = params.num_villages
    if V == 1 and draw(st.booleans()):
        params = ModelParams(
            kernel=np.zeros((1, 1)),
            sleep_rates=params.sleep_rates,
            init_sleepers=params.init_sleepers,
            init_actives=params.init_actives,
        )
    if draw(st.booleans()):
        n = 1
    T = draw(st.integers(3, 24))
    per = draw(st.integers(1, T // 3))
    budget = V * n * per + draw(st.integers(0, V * n - 1))
    seeds = draw(st.lists(st.integers(-(2**64), 2**65), min_size=T, max_size=T))
    aux = draw(st.lists(st.integers(0, 2**64 - 1), min_size=T, max_size=T))
    M = np.array(draw(st.lists(st.integers(0, 3 * n), min_size=V, max_size=V)))
    return params, n, seeds, aux, M, budget


@settings(max_examples=40, deadline=None)
@given(trial_batches())
def test_batched_trials_match_per_trial_single_loop(case):
    params, n, seeds, aux, M, budget = case
    with mock.patch.object(simulator_mod, "_TRIAL_HOUSES", budget):
        got = single_loop_trials(params, n, seeds, M, aux_seeds=aux)
    V = params.num_villages
    for t, seed in enumerate(seeds):
        src = StackSource(params, n, seed)
        ref = single_loop(params, n, src, M)
        for name in ("Phi", "S", "I", "A", "Q", "J"):
            field = getattr(got, name)
            assert field.shape == (len(seeds), V) and field.dtype == np.int64
            assert np.array_equal(field[t], getattr(ref, name))
        assert np.array_equal(got.Phi_tilde[t], single_loop_tilde(params, n, src, M, aux[t]))
    assert single_loop_trials(params, n, seeds, M).Phi_tilde is None


def test_batched_trials_reject_bad_arguments():
    params = two_village_params()
    with pytest.raises(ValidationError):
        single_loop_trials(params, 10, [], [1, 1])
    with pytest.raises(ValidationError):
        single_loop_trials(params, 10, [1, 2], [1, 1], aux_seeds=[3])
    with pytest.raises(ValidationError):
        single_loop_trials(params, 10, [1, 2], [1])
    with pytest.raises(ValidationError):
        single_loop(params, 10, StackSource(params, 10, [1, 2]), [1, 1])


@pytest.mark.parametrize(
    "call",
    [
        stabilize,
        lambda params, n, src: single_loop(params, n, src, [4, 4]),
        lambda params, n, src: single_loop_tilde(params, n, src, [4, 4], 1),
    ],
    ids=["stabilize", "single_loop", "single_loop_tilde"],
)
def test_source_must_match_the_callers_model_and_n(call):
    params = two_village_params()
    with pytest.raises(ValidationError, match="n=5, but n=10"):
        call(params, 10, StackSource(params, 5, 1))
    with pytest.raises(ValidationError, match="n=10, but n=5"):
        call(params, 5, StackSource(params, 10, 1))
    other_sigma = ModelParams(
        kernel=params.kernel,
        sleep_rates=params.sleep_rates,
        init_sleepers=[0.1, 0.4],
        init_actives=params.init_actives,
    )
    with pytest.raises(ValidationError, match="different model"):
        call(params, 10, StackSource(other_sigma, 10, 1))


@pytest.mark.parametrize("lam", [1e300, 2.0**53])
@pytest.mark.parametrize(
    "call",
    [
        lambda params, n: stabilize(params, n, StackSource(params, n, 1)),
        lambda params, n: single_loop(params, n, StackSource(params, n, 1), [0, 0]),
        lambda params, n: single_loop_trials(params, n, [1, 2], [0, 0]),
    ],
    ids=["stabilize", "single_loop", "single_loop_trials"],
)
def test_a_village_whose_notices_are_never_jump_is_refused(call, lam):
    """lambda/(1+lambda) rounds to 1.0 from lambda = 2^53 on, so no notice of
    village 1 is JUMP: the engine refuses it instead of scanning forever."""
    params = ModelParams(
        kernel=np.array([[0.0, 0.5], [0.4, 0.0]]),
        sleep_rates=[1.0, lam],
        init_sleepers=[0.0, 0.0],
        init_actives=[1.0, 1.0],
    )
    refused = re.escape(f"village 1 has lambda={lam!r}, where lambda/(1+lambda) rounds to 1.0")
    with pytest.raises(ValidationError, match=refused):
        call(params, 3)


def test_a_village_at_lambda_2_to_the_52_still_evaluates():
    """The largest power of two whose notices can still be JUMP."""
    params = one_village_params(lam=2.0**52, sigma=0.0, nu=0.0)
    src = StackSource(params, 3, 1)
    sim = stabilize(params, 3, src)
    assert sim.M_star.tolist() == sim.S_star.tolist() == [0]
    assert single_loop(params, 3, src, [0]).Phi.tolist() == [0]
    assert single_loop_trials(params, 3, [1, 2], [0]).Phi.tolist() == [[0], [0]]


@pytest.mark.parametrize(
    "call",
    [lambda params, n, src: single_loop_tilde(params, n, src, np.tile([4, 4], src.trials), 1)],
    ids=["single_loop_tilde"],
)
def test_single_seed_calls_reject_a_multi_trial_source(call):
    """One aux seed is one trial's: a two-trial source needs two."""
    params = two_village_params()
    with pytest.raises(ValidationError, match=r"got 1 aux seeds for 2 trials"):
        call(params, 10, StackSource(params, 10, [1, 2]))
    # a one-element seed list is a single trial, equal to its scalar seed
    got = call(params, 10, StackSource(params, 10, [1]))
    want = call(params, 10, StackSource(params, 10, 1))
    assert np.array_equal(got, want)


@st.composite
def multi_seed_runs(draw):
    """Edge instances (up to 12 villages, n = 1 included) with 1 to 8 seeds
    of any sign and size.  Returns (params, n, seeds)."""
    params, n, _ = draw(edge_instances())
    if draw(st.booleans()):
        n = 1
    return params, n, draw(st.lists(st.integers(-(2**64), 2**65), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(multi_seed_runs(), st.data())
def test_multi_seed_single_loop_tilde_equals_per_seed_calls(case, data):
    params, n, seeds = case
    T, V = len(seeds), params.num_villages
    M = np.array(data.draw(st.lists(st.integers(0, 3 * n), min_size=V, max_size=V)))
    aux = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=T, max_size=T))
    got = single_loop_tilde(params, n, StackSource(params, n, seeds), np.tile(M, T), aux)
    assert got.shape == (T * V,) and got.dtype == np.int64
    for t, seed in enumerate(seeds):
        want = single_loop_tilde(params, n, StackSource(params, n, seed), M, aux[t])
        assert np.array_equal(got[t * V : (t + 1) * V], want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.data())
def test_single_loop_equals_the_scalar_oracle(model_seed, n, data):
    """I, A, Q, J, Phi and S on a multi-seed source, read in pieces of any
    size, equal the scalar oracle's, which routes the tickets one at a time
    and reads each visited house's notices one at a time."""
    params = random_subcritical_params(np.random.default_rng(model_seed))
    T = data.draw(st.integers(1, 5))
    seeds = data.draw(st.lists(st.integers(-(2**64), 2**65), min_size=T, max_size=T))
    M = np.array(data.draw(st.lists(st.integers(0, 3 * n), min_size=T * params.num_villages, max_size=T * params.num_villages)))
    src = StackSource(params, n, seeds)
    want = reference_single_loop(params, n, src, M)
    for piece in (1, 7, 50, 1 << 14):
        with scan_slice(piece):
            got = single_loop(params, n, src, M)
        for field in ("I", "A", "Q", "J", "Phi", "S"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.data())
def test_single_loop_tilde_equals_the_scalar_oracle(model_seed, n, data):
    """Phi_tilde on a multi-seed source, read in pieces of any size, equals
    the scalar oracle's, which shares no code with the evaluator: it routes
    the tickets one at a time and draws each trial's uniforms from its own
    default_rng."""
    params = random_subcritical_params(np.random.default_rng(model_seed))
    T = data.draw(st.integers(1, 5))
    seeds = data.draw(st.lists(st.integers(-(2**64), 2**65), min_size=T, max_size=T))
    aux = data.draw(st.lists(st.integers(0, 2**128 - 1), min_size=T, max_size=T))
    M = np.array(data.draw(st.lists(st.integers(0, 3 * n), min_size=T * params.num_villages, max_size=T * params.num_villages)))
    src = StackSource(params, n, seeds)
    want = reference_single_loop_tilde(params, n, src, M, aux)
    for piece in (1, 7, 50, 1 << 14):
        with scan_slice(piece):
            assert np.array_equal(single_loop_tilde(params, n, src, M, aux), want)


def test_single_loop_trials_equal_the_scalar_oracle_across_read_out_windows():
    """At the production window size: 60 trials of two villages at n = 300
    are 36,000 houses in one engine, so the windows of _SCAN_SLICE houses
    that count A and Q and draw the fresh notices end inside streams.  A, Q,
    J, Phi and Phi_tilde of every trial equal the scalar oracle's."""
    params, n, T = two_village_params(), 300, 60
    seeds, aux, M = list(range(1, T + 1)), [2**100 + t for t in range(T)], np.array([150, 100])
    assert simulator_mod._trials_per_chunk(2, n) >= T and (2 * n * T) % simulator_mod._SCAN_SLICE
    got = single_loop_trials(params, n, seeds, M, aux_seeds=aux)
    src = StackSource(params, n, seeds)
    want = reference_single_loop(params, n, src, np.tile(M, T))
    for field in ("A", "Q", "J", "Phi"):
        assert np.array_equal(getattr(got, field).ravel(), getattr(want, field)), field
    assert np.array_equal(got.Phi_tilde.ravel(), reference_single_loop_tilde(params, n, src, np.tile(M, T), aux))
    assert np.all(got.Q > 0) and np.any(got.Phi_tilde != got.Phi)


def test_single_loop_tilde_takes_one_aux_seed_per_trial():
    params = two_village_params()
    one, two = StackSource(params, 30, 4), StackSource(params, 30, [4, -5])
    by_int, *others = (
        single_loop_tilde(params, 30, one, [9, 7], aux)
        for aux in (11, [11], np.array([11], dtype=np.int32), np.array([11], dtype=np.uint8))
    )
    for got in others:
        assert np.array_equal(got, by_int)
    for src, aux in [(one, [11, 12]), (two, [11]), (two, [11, 12, 13]), (two, 11)]:
        with pytest.raises(ValidationError, match=rf"got {np.size(aux)} aux seeds for {src.trials} trials"):
            single_loop_tilde(params, 30, src, np.tile([9, 7], src.trials), aux)
    for aux in (-1, 1.5, "3", 2**128, np.array([-1], dtype=np.int32)):
        with pytest.raises(ValidationError, match="aux seed"):
            single_loop_tilde(params, 30, one, [9, 7], aux)
        with pytest.raises(ValidationError, match="aux seed"):
            single_loop_trials(params, 30, [4], [9, 7], aux_seeds=[aux])


@pytest.mark.parametrize("ragged", [[[1, 2], 3], [3, [1, 2]], [[1], [2, 3]]], ids=str)
def test_ragged_seed_lists_raise_validation_error(ragged):
    """numpy refuses a ragged nest of sequences with a ValueError of its own;
    the seed and aux-seed reads answer with a ValidationError instead."""
    params = two_village_params()
    with pytest.raises(ValidationError, match="aux seed must be an integer"):
        single_loop_tilde(params, 30, StackSource(params, 30, [4, -5]), [9, 7, 9, 7], ragged)
    with pytest.raises(ValidationError, match="aux seed must be an integer"):
        single_loop_trials(params, 30, [4, -5], [9, 7], aux_seeds=ragged)
    with pytest.raises(ValidationError, match="1-d sequence of integers"):
        single_loop_trials(params, 30, ragged, [9, 7])
    with pytest.raises(ValidationError, match="1-d sequence of integers"):
        StackSource(params, 30, ragged)


EDGE_AUX_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**127 + 3, 2**128 - 1]
UNIFORM_SHAPES = [(1, 1), (1, 7), (4, 5), (3, 50)]


def _joined_uniforms(words, shape, piece):
    """_fresh_uniforms' windows of at most `piece` values, joined, as a
    (trials, *shape) array; the windows follow one another, and each is
    full but the last."""
    V, n = shape
    windows = []
    with mock.patch.object(simulator_mod, "_SCAN_SLICE", piece):
        for a, values in simulator_mod._fresh_uniforms(words, V, n):
            assert a == sum(w.size for w in windows) and values.ndim == 1 and values.size <= piece
            windows.append(values.copy())  # the next window reuses the buffer
    assert all(w.size == piece for w in windows[:-1])
    return np.concatenate(windows).reshape(len(words), V, n)


UNIFORM_PIECES = [1, 7, 12, 50, simulator_mod._SCAN_SLICE]


@pytest.mark.parametrize("piece", UNIFORM_PIECES)
@pytest.mark.parametrize("shape", UNIFORM_SHAPES, ids=str)
def test_fresh_uniforms_equal_one_default_rng_per_trial(shape, piece):
    want = reference_fresh_uniforms(EDGE_AUX_SEEDS, shape)
    words = simulator_mod._aux_seeds(EDGE_AUX_SEEDS, len(EDGE_AUX_SEEDS))
    assert np.array_equal(_joined_uniforms(words, shape, piece), want)
    # derive_seeds returns uint64; narrower integer arrays are taken value by value too.
    for dtype, k in [(np.uint64, 6), (np.int64, 4), (np.int32, 2), (np.uint16, 2), (np.uint8, 2)]:
        words = simulator_mod._aux_seeds(np.array(EDGE_AUX_SEEDS[:k], dtype=dtype), k)
        assert np.array_equal(_joined_uniforms(words, shape, piece), want[:k])
    with pytest.raises(ValidationError, match=rf"^aux seeds must be below 2\^128, got {2**128}$"):
        simulator_mod._aux_seeds([1, 2**128], 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=6),
    st.sampled_from(UNIFORM_SHAPES),
    st.sampled_from(UNIFORM_PIECES),
)
def test_fresh_uniforms_equal_default_rng_on_any_seed_below_2_128(aux, shape, piece):
    words = simulator_mod._aux_seeds(aux, len(aux))
    assert np.array_equal(_joined_uniforms(words, shape, piece), reference_fresh_uniforms(aux, shape))


def test_single_loop_tilde_keeps_few_bytes_per_house():
    """The resampled draws are drawn and counted in windows of at most
    _SCAN_SLICE uniforms, so they add almost nothing per house to the
    evaluation.  tracemalloc read 19.04 B/house here with one float64
    uniform per house, and 4.11 with the windows."""
    params = one_village_params(q=0.5, lam=1.0, sigma=0.3, nu=1e-6)  # two immigrants
    single_loop_tilde(params, 10, StackSource(params, 10, 7), [1], 5)  # imports numpy.random outside the trace
    n = 2 * 10**6
    src = StackSource(params, n, 7)
    tracemalloc.start()
    try:
        single_loop_tilde(params, n, src, [1], 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 4.3


def test_single_loop_keeps_few_bytes_per_house():
    """Per house the engine keeps one int32 word, 2 * notices + terminal.
    tracemalloc read 26.0 B/house here with the former per-house hit counts
    (int64, plus a bincount over all houses each round), 9.0 with an int64
    notice count and a uint8 terminal notice, and 4.0 with the word."""
    params = one_village_params(q=0.5, lam=1.0, sigma=0.3, nu=1e-6)  # two immigrants
    n = 2 * 10**6
    src = StackSource(params, n, 7)
    tracemalloc.start()
    try:
        loop = single_loop(params, n, src, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loop.I.tolist() == [2]
    assert peak / n <= 4.5


def test_stabilize_keeps_few_bytes_per_house():
    """Round 1's route is the peak: one int32 house index per arrival, read
    in bounded pieces, and the int32 engine word.  tracemalloc read 35.0
    B/house here when the configuration was built from int64 particle
    counts and a sleeping mask, 23.6 with int64 house indices read in one
    piece, 14.4 with np.unique's copy of them, and 12.8 with the houses
    sorted in place."""
    params = two_village_params()
    n = 2 * 10**5
    src = StackSource(params, n, 7)
    tracemalloc.start()
    try:
        sim = stabilize(params, n, src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.occupied.shape == (2, n)
    assert peak / (2 * n) <= 13.3


def test_single_loop_at_the_stabilizing_odometer_keeps_few_bytes_per_house():
    """One round routes every arrival of the run: tracemalloc read 35.1
    B/house here with int64 house indices read in one piece, 20.3 with
    int32 ones read in pieces into one reserved array, and 18.0 with that
    array sorted in place and the landlord notices read in pieces."""
    params = two_village_params()
    n = 2 * 10**5
    src = StackSource(params, n, 7)
    M = stabilize(params, n, src).M_star
    tracemalloc.start()
    try:
        loop = single_loop(params, n, src, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loop.Phi, M)
    assert peak / (2 * n) <= 18.4


def test_single_loop_scans_many_houses_in_bounded_slices():
    """One round hits far more houses than one scan slice holds, and the
    landlord scan's per-notice temporaries grow with the slice, not with the
    hit houses.  tracemalloc read 27.0 B/house here with the route's int64
    temporaries as the peak, 51.0 with slices of 2^16 houses, 70.5 with one
    slice for all, 16.9 with the int32 route read in pieces, and 15.8 with
    the route sorted in place and the notices read in pieces."""
    params = one_village_params(q=0.5, lam=1.0, sigma=0.3, nu=0.5)
    n = 1 << 18
    assert n >= 16 * simulator_mod._SCAN_SLICE
    src = StackSource(params, n, 7)
    tracemalloc.start()
    try:
        loop = single_loop(params, n, src, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loop.I.tolist() == [n // 2] and loop.A[0] > n // 4
    assert peak / n <= 16.2


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([np.int32, np.int64]),
    st.one_of(
        st.lists(st.integers(0, 2**31 - 1), max_size=40),
        st.lists(st.integers(0, 5), max_size=40),
        st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 40)).map(lambda vc: [vc[0]] * vc[1]),  # all equal
    ),
)
def test_route_hit_counts_equal_np_unique(dtype, values):
    """The route's in-place cut gives what np.unique(houses,
    return_counts=True) gives, values, counts and dtypes, on empty,
    single-entry and all-equal house arrays too."""
    houses = np.array(values, dtype=dtype)
    want = np.unique(houses, return_counts=True)
    got = simulator_mod._hit_counts(houses.copy())
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _house_notices(params, n, src, M) -> np.ndarray:
    """Landlord notices each house reads in one evaluation at M."""
    engine = simulator_mod._LoopEngine(params, n, src)
    engine.advance(np.asarray(M, dtype=np.int64))
    return engine.word >> 1


def test_house_past_the_notice_limit_raises_before_its_read(monkeypatch):
    """A house's int32 word counts at most _MAX_NOTICES notices.  With the
    limit patched down to the most notices any house reads, the evaluation
    runs; one below, it raises InputSizeError naming the run and the
    village, and no notice past the limit is read."""
    params = two_village_params()
    n, M = 10, [40, 30]
    src = StackSource(params, n, 5)
    most = int(_house_notices(params, n, src, M).max())
    assert most >= 3
    want = single_loop(params, n, src, M)
    monkeypatch.setattr(simulator_mod, "_MAX_NOTICES", most)
    assert np.array_equal(single_loop(params, n, src, M).Phi, want.Phi)

    read_to = []
    real_reader = StackSource._landlord_reader

    def recording_reader(self, villages, houses):
        read = real_reader(self, villages, houses)

        def recorded(pos, first, width):
            read_to.extend((first + width - 1).tolist())
            return read(pos, first, width)

        return recorded

    monkeypatch.setattr(StackSource, "_landlord_reader", recording_reader)
    monkeypatch.setattr(simulator_mod, "_MAX_NOTICES", most - 1)
    message = rf"^house \d+ would read more than {most - 1} landlord notices \(n=10, seed=5\) in village [01]$"
    with pytest.raises(InputSizeError, match=message):
        single_loop(params, n, src, M)
    assert max(read_to) <= most - 1
    with pytest.raises(InputSizeError, match=r"\(n=10, trial 1, seed=5\) in village [01]$"):
        single_loop_trials(params, n, [4, 5], M)


def test_int64_house_indices_give_the_same_runs(monkeypatch):
    """Past 2^31 houses in all streams the route keeps int64 house indices;
    forced at small n, they change nothing."""
    params = two_village_params()
    n, seeds = 300, [3, -4]
    want = stabilize(params, n, StackSource(params, n, seeds))
    want_tilde = single_loop_tilde(params, n, StackSource(params, n, seeds), want.M_star, [1, 2])
    init = simulator_mod._LoopEngine.__init__

    def wide(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert self.house_dtype == np.int32
        self.house_dtype = np.int64

    monkeypatch.setattr(simulator_mod._LoopEngine, "__init__", wide)
    _assert_same_run(stabilize(params, n, StackSource(params, n, seeds)), want)
    got_tilde = single_loop_tilde(params, n, StackSource(params, n, seeds), want.M_star, [1, 2])
    assert np.array_equal(got_tilde, want_tilde)


@settings(max_examples=40, deadline=None)
@given(multi_seed_runs())
def test_multi_seed_stabilize_equals_per_seed_runs(case):
    params, n, seeds = case
    V = params.num_villages
    sim = stabilize(params, n, StackSource(params, n, seeds))
    for t, seed in enumerate(seeds):
        ref = stabilize(params, n, StackSource(params, n, seed))
        for got, want in zip(_sim_arrays(sim), _sim_arrays(ref)):
            assert got.dtype == want.dtype and got.shape[0] == len(seeds) * V == len(seeds) * want.shape[0]
            assert np.array_equal(got[t * V : (t + 1) * V], want)


def test_single_loop_on_a_multi_seed_source_fixes_every_trials_odometer():
    params = two_village_params()
    src = StackSource(params, 200, [0, 5, 2**63 + 1])
    sim = stabilize(params, 200, src)
    loop = single_loop(params, 200, src, sim.M_star)
    assert loop.Phi.shape == (6,)
    assert np.array_equal(loop.Phi, sim.M_star)
    assert np.array_equal(loop.S, sim.S_star)
    with pytest.raises(ValidationError, match=r"M has shape \(2,\), expected \(6,\)"):
        single_loop(params, 200, src, sim.M_star[:2])


def test_step_cap_counts_the_instructions_of_all_trials():
    params = two_village_params()
    n, seeds = 300, [4, 5, 6]
    totals = []
    for seed in seeds:
        c = stabilize(params, n, StackSource(params, n, seed)).consumed
        post_landing_taxi = c.taxi - floor_counts(params.init_actives, n)
        totals.append(int(c.airplane.sum() + post_landing_taxi.sum() + c.landlord.sum()))
    src = StackSource(params, n, seeds)
    stabilize(params, n, src, step_cap=sum(totals))
    for cap in (sum(totals) - 1, max(totals)):
        with pytest.raises(StepCapError):
            stabilize(params, n, src, step_cap=cap)


def _break_mass_balance(monkeypatch):
    real = simulator_mod._lone_sleepers
    monkeypatch.setattr(simulator_mod, "_lone_sleepers", lambda occupied: real(occupied) + 1)


def _break_monotone_iterates(monkeypatch):
    real, calls = simulator_mod._outflux, []

    def outflux(*args):
        calls.append(None)
        Phi = real(*args)
        return Phi if len(calls) == 1 else Phi * 0  # the second iterate falls back to 0

    monkeypatch.setattr(simulator_mod, "_outflux", outflux)


@pytest.mark.parametrize(
    "breaker, message",
    [
        (_break_mass_balance, "mass balance violated"),
        (_break_monotone_iterates, "iterates from M=0 must be nondecreasing"),
    ],
    ids=["mass-balance", "nondecreasing"],
)
def test_stabilize_invariant_errors_name_n_and_seed(monkeypatch, breaker, message):
    params = two_village_params()
    src = StackSource(params, 10, 3)
    runs = [
        (src, r"n=10, seed=3"),
        (InjectedStackSource(params, 10, fallback=src), r"n=10, seed=None"),
    ]
    for source, run in runs:
        breaker(monkeypatch)
        with pytest.raises(AcceptanceCheckError, match=rf"{message} \({run}\)"):
            stabilize(params, 10, source)
        monkeypatch.undo()


@pytest.mark.parametrize("broken", ["mass-balance", "nondecreasing"])
def test_stabilize_invariant_errors_name_the_trial_and_its_seed(monkeypatch, broken):
    """The seed is named as the caller passed it, not by its residue mod 2^64,
    and the first failing village after it: village 1 of trial 1 here."""
    params, V = two_village_params(), 2
    for seed in (9, -9, 2**64 + 9):
        if broken == "mass-balance":  # one sleeper too many in village 1 of trial 1
            real = simulator_mod._lone_sleepers

            def off_by_one(occupied):
                return real(occupied) + (np.arange(len(occupied)) == V + 1)

            monkeypatch.setattr(simulator_mod, "_lone_sleepers", off_by_one)
            message = "mass balance violated"
        else:  # trial 1's second iterate falls back to 0 in village 1
            real_outflux, calls = simulator_mod._outflux, []

            def outflux(*args):
                calls.append(None)
                Phi = real_outflux(*args)
                if len(calls) == 2:
                    Phi[V + 1] = 0
                return Phi

            monkeypatch.setattr(simulator_mod, "_outflux", outflux)
            message = "iterates from M=0 must be nondecreasing"
        with pytest.raises(AcceptanceCheckError, match=rf"{message} \(n=10, trial 1, seed={seed}\) in village 1\b"):
            stabilize(params, 10, StackSource(params, 10, [3, seed]))
        monkeypatch.undo()
