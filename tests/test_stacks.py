import numpy as np
import pytest
from scipy.stats import chi2_contingency

from helpers import one_village_params, two_village_params

from varw import (
    GRAVEYARD,
    JUMP,
    SLEEP,
    InjectedStackSource,
    StackSource,
    StackExhaustedError,
    ValidationError,
    derive_seed,
    inject_stacks,
)


def test_airplane_zero_row_always_graveyard():
    src = StackSource(one_village_params(q=0.0), 10, 1)
    assert all(src.airplane(0, j) == GRAVEYARD for j in range(1, 200))


def test_airplane_deterministic_row():
    params = type(two_village_params())(
        kernel=np.array([[0.0, 1.0], [0.5, 0.0]]),
        sleep_rates=[1.0, 1.0],
        init_sleepers=[0.0, 0.0],
        init_actives=[0.0, 0.0],
    )
    src = StackSource(params, 10, 5)
    assert all(src.airplane(0, j) == 1 for j in range(1, 200))


def test_airplane_graveyard_frequency():
    src = StackSource(one_village_params(q=0.5), 10, 42)
    draws = src.airplane_prefix(0, 100_000)
    freq = float(np.mean(draws == GRAVEYARD))
    assert abs(freq - 0.5) <= 0.01


def test_taxi_single_house():
    src = StackSource(one_village_params(), 1, 3)
    assert all(src.taxi(0, j) == 1 for j in range(1, 100))


def test_taxi_memoization():
    src = StackSource(one_village_params(), 7, 3)
    assert src.taxi(0, 5) == src.taxi(0, 5)


def test_taxi_uniformity():
    src = StackSource(one_village_params(), 4, 11)
    draws = src.taxi_prefix(0, 100_000)
    for house in range(1, 5):
        freq = float(np.mean(draws == house))
        assert abs(freq - 0.25) <= 0.01


def test_landlord_zero_rate_always_jumps():
    src = StackSource(one_village_params(lam=0.0), 5, 9)
    assert all(src.landlord(0, 2, j) == JUMP for j in range(1, 200))


def test_landlord_sleep_frequency():
    src = StackSource(one_village_params(lam=1.0), 5, 13)
    draws = [src.landlord(0, 1, j) for j in range(1, 100_001)]
    freq = draws.count(SLEEP) / len(draws)
    assert abs(freq - 0.5) <= 0.01


def test_landlord_memoization_across_interleaved_houses():
    src = StackSource(one_village_params(), 10, 21)
    first = [src.landlord(0, 1, 1), src.landlord(0, 2, 1), src.landlord(0, 1, 2)]
    again = [src.landlord(0, 1, 1), src.landlord(0, 2, 1), src.landlord(0, 1, 2)]
    assert first == again


def test_query_order_independence():
    params = two_village_params()
    a = StackSource(params, 20, 123)
    b = StackSource(params, 20, 123)
    # realize a forward, b backward and interleaved
    fwd = [a.airplane(0, j) for j in range(1, 101)]
    bwd = [b.airplane(0, j) for j in range(100, 0, -1)][::-1]
    assert fwd == bwd
    fwd_t = a.taxi_prefix(1, 50)
    for j in (50, 3, 17):
        assert b.taxi(1, j) == fwd_t[j - 1]
    assert np.array_equal(a.taxi_prefix(1, 50), b.taxi_prefix(1, 50))


def test_sources_with_equal_seed_agree():
    params = two_village_params()
    a = StackSource(params, 16, 77)
    b = StackSource(params, 16, 77)
    assert np.array_equal(a.airplane_prefix(1, 1000), b.airplane_prefix(1, 1000))
    assert np.array_equal(a.taxi_prefix(0, 1000), b.taxi_prefix(0, 1000))
    houses = np.arange(1, 17)
    for j in range(1, 10):
        assert np.array_equal(a.landlord_batch(0, houses, j), b.landlord_batch(0, houses, j))


def test_scalar_and_batch_landlord_agree():
    params = two_village_params()
    src = StackSource(params, 40, 2024)
    houses = np.arange(1, 41)
    for j in range(1, 8):
        batch = src.landlord_batch(1, houses, j)
        scalar = np.array([src.landlord(1, int(i), j) for i in houses], dtype=np.uint8)
        assert np.array_equal(batch, scalar)


def test_prefix_matches_scalar_access():
    src = StackSource(two_village_params(), 9, 31)
    pre = src.airplane_prefix(0, 64)
    assert [src.airplane(0, j) for j in range(1, 65)] == pre.tolist()


def test_cross_stack_independence_chi_square():
    src = StackSource(one_village_params(q=0.5, lam=1.0), 50, 314)
    n_draws = 10_000
    air = src.airplane_prefix(0, n_draws) == GRAVEYARD
    land = np.array([src.landlord(0, 1, j) for j in range(1, n_draws + 1)], dtype=bool)
    table = np.array(
        [
            [np.sum(air & land), np.sum(air & ~land)],
            [np.sum(~air & land), np.sum(~air & ~land)],
        ]
    )
    _, p, _, _ = chi2_contingency(table)
    assert p > 0.001


def test_served_counters_track_high_water():
    src = StackSource(two_village_params(), 12, 8)
    src.airplane(0, 7)
    src.airplane(0, 3)
    assert src.served_airplane[0] == 7
    src.taxi_prefix(1, 9)
    assert src.served_taxi[1] == 9
    src.landlord(1, 4, 6)
    assert src.served_landlord[(1, 4)] == 6


def test_source_rejects_bad_arguments():
    params = one_village_params()
    with pytest.raises(ValidationError):
        StackSource(params, 0, 1)
    src = StackSource(params, 5, 1)
    with pytest.raises(ValidationError):
        src.airplane(1, 1)
    with pytest.raises(ValidationError):
        src.taxi(0, 0)
    with pytest.raises(ValidationError):
        src.landlord(0, 6, 1)


def test_inject_taxi_echo():
    params = one_village_params()
    src = inject_stacks(params, 4, taxi={0: [2]})
    assert src.taxi(0, 1) == 2


def test_inject_landlord_echo():
    params = one_village_params()
    src = inject_stacks(params, 4, landlord={(0, 2): [SLEEP]})
    assert src.landlord(0, 2, 1) == SLEEP


def test_inject_strict_overflow_errors():
    params = one_village_params()
    src = inject_stacks(params, 4, taxi={0: [2]})
    with pytest.raises(StackExhaustedError):
        src.taxi(0, 2)
    with pytest.raises(StackExhaustedError):
        src.airplane(0, 1)


def test_inject_fallback_delegates():
    params = one_village_params(q=0.5)
    fallback = StackSource(params, 4, 55)
    src = inject_stacks(params, 4, taxi={0: [3]}, strict=False, fallback=fallback)
    assert src.taxi(0, 1) == 3
    assert src.taxi(0, 2) == fallback.taxi(0, 2)


def test_inject_validates_values():
    params = one_village_params()
    with pytest.raises(ValidationError):
        inject_stacks(params, 4, taxi={0: [9]})
    with pytest.raises(ValidationError):
        inject_stacks(params, 4, airplane={0: [4]})
    with pytest.raises(ValidationError):
        inject_stacks(params, 4, landlord={(0, 1): [7]})
    with pytest.raises(ValidationError):
        inject_stacks(params, 4, taxi={0: [1]}, strict=True, fallback=StackSource(params, 4, 1))


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, 1, t) for t in range(1000)}
    assert len(seen) == 1000


def test_range_accessors_match_prefixes_on_both_sources():
    params = two_village_params()
    src = StackSource(params, 30, 17)
    air, taxi = src.airplane_prefix(1, 40), src.taxi_prefix(0, 40)
    inj = InjectedStackSource(params, 30, airplane={1: air.tolist()}, taxi={0: taxi.tolist()})
    for source in (src, inj):
        assert np.array_equal(source.airplane_range(1, 5, 41), air[4:])
        assert np.array_equal(source.taxi_range(0, 1, 12), taxi[:11])
        assert source.airplane_range(1, 7, 7).shape == (0,)
    with pytest.raises(StackExhaustedError):
        inj.taxi_range(0, 39, 42)
    with pytest.raises(ValidationError):
        src.airplane_range(1, 0, 3)


def test_array_index_landlord_batch_matches_scalar_on_both_sources():
    params = two_village_params()
    src = StackSource(params, 30, 5)
    houses = np.array([3, 1, 3, 30, 7, 1])
    j = np.array([1, 4, 2, 9, 1, 1])
    want = [src.landlord(1, int(i), int(k)) for i, k in zip(houses, j)]
    inj = InjectedStackSource(
        params, 30, landlord={(1, i): [src.landlord(1, i, k) for k in range(1, 10)] for i in (1, 3, 7, 30)}
    )
    for source in (src, inj):
        assert source.landlord_batch(1, houses, j).tolist() == want
        assert source.landlord_batch(1, houses, 2).tolist() == [src.landlord(1, int(i), 2) for i in houses]
        with pytest.raises(ValidationError):
            source.landlord_batch(1, houses, j - 1)
