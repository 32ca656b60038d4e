import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from helpers import one_village_params, two_village_params
from reference import InjectedStackSource, ScalarStacks, StackExhaustedError, _derive_seed, _stream_key

from varw import (
    GRAVEYARD,
    JUMP,
    SLEEP,
    InputSizeError,
    ModelParams,
    StackSource,
    ValidationError,
    derive_seed,
    derive_seeds,
    single_loop_trials,
)
from varw.stacks import _Cutpoints, _notices, _seed_words, _stream_keys


def test_airplane_zero_row_always_graveyard():
    src = StackSource(one_village_params(q=0.0), 10, 1)
    assert src.airplane(0, 1) == GRAVEYARD
    assert (src.airplane_range(0, 1, 200) == GRAVEYARD).all()


def test_airplane_deterministic_row():
    params = type(two_village_params())(
        kernel=np.array([[0.0, 1.0], [0.5, 0.0]]),
        sleep_rates=[1.0, 1.0],
        init_sleepers=[0.0, 0.0],
        init_actives=[0.0, 0.0],
    )
    src = StackSource(params, 10, 5)
    assert src.airplane(0, 1) == 1
    assert (src.airplane_range(0, 1, 200) == 1).all()


def test_airplane_graveyard_frequency():
    src = StackSource(one_village_params(q=0.5), 10, 42)
    draws = src.airplane_prefix(0, 100_000)
    freq = float(np.mean(draws == GRAVEYARD))
    assert abs(freq - 0.5) <= 0.01


def test_taxi_single_house():
    src = StackSource(one_village_params(), 1, 3)
    assert src.taxi(0, 1) == 1
    assert (src.taxi_range(0, 1, 100) == 1).all()


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
    assert src.landlord(0, 2, 1) == JUMP
    assert (_notice_block(src, 0, 2, 199) == JUMP).all()


def _notice_block(src, x, i, count):
    """Notices 1..count of house (x, i), read as one block."""
    return src._landlord_reader(np.array([x]), np.array([i]))(np.array([0]), np.array([1]), np.array([count]))


def test_landlord_sleep_frequency():
    src = StackSource(one_village_params(lam=1.0), 5, 13)
    freq = float(np.mean(_notice_block(src, 0, 1, 100_000) == SLEEP))
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
    fwd = a.airplane_range(0, 1, 101)
    bwd = b.airplane_range(np.zeros(100, dtype=np.int64), np.arange(100, 0, -1), np.arange(101, 1, -1))[::-1]
    assert np.array_equal(fwd, bwd)
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
    twin = ScalarStacks(src)
    houses = np.arange(1, 41)
    for j in range(1, 8):
        batch = src.landlord_batch(1, houses, j)
        scalar = np.array([twin.landlord(1, int(i), j) for i in houses], dtype=np.uint8)
        assert np.array_equal(batch, scalar)
    assert src.landlord(1, 40, 7) == twin.landlord(1, 40, 7)


def test_prefix_matches_scalar_access():
    src = StackSource(two_village_params(), 9, 31)
    twin = ScalarStacks(src)
    pre = src.airplane_prefix(0, 64)
    assert [twin.airplane(0, j) for j in range(1, 65)] == pre.tolist()
    assert src.airplane(0, 64) == pre[-1]


def test_cross_stack_independence_chi_square():
    src = StackSource(one_village_params(q=0.5, lam=1.0), 50, 314)
    n_draws = 10_000
    air = src.airplane_prefix(0, n_draws) == GRAVEYARD
    land = _notice_block(src, 0, 1, n_draws).astype(bool)
    table = np.array(
        [
            [np.sum(air & land), np.sum(air & ~land)],
            [np.sum(~air & land), np.sum(~air & ~land)],
        ]
    )
    _, p, _, _ = chi2_contingency(table)
    assert p > 0.001


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


BELOW_2_63 = r"stack reads take integers below 2\^63"
BAD_READS = [
    ("airplane", (0, 1.5), ValidationError, BELOW_2_63),
    ("airplane", (0, 2**63), ValidationError, BELOW_2_63),
    ("airplane", (0.5, 1), ValidationError, BELOW_2_63),
    ("taxi", (0, 1.5), ValidationError, BELOW_2_63),
    ("taxi", (0, 2**63), ValidationError, BELOW_2_63),
    ("landlord", (0, 1, 1.5), ValidationError, BELOW_2_63),
    ("landlord", (0, 1, 2**63), ValidationError, BELOW_2_63),
    ("landlord", (0, 1.5, 1), ValidationError, BELOW_2_63),
    ("landlord", (0, 11, 1), ValidationError, r"house index 11 out of range 1\.\.10"),
    ("airplane_range", (0, 1.5, 3.7), ValidationError, BELOW_2_63),
    ("airplane_range", (0, 1, 2**63), ValidationError, BELOW_2_63),
    ("airplane_range", (0, 1, 2**62), InputSizeError, "too large for a 64-bit address space"),
    ("taxi_range", ([0, 1], [1, 1], [2.5, 3]), ValidationError, BELOW_2_63),
    ("airplane_prefix", (0, 1.5), ValidationError, BELOW_2_63),
    ("taxi_prefix", (0, 2**63), ValidationError, BELOW_2_63),
    ("landlord_batch", (0, [1, 2], 1.7), ValidationError, BELOW_2_63),
    ("landlord_batch", (0, [1, 2], 2**63), ValidationError, BELOW_2_63),
    ("landlord_batch", (0, [1.5], 1), ValidationError, BELOW_2_63),
    ("landlord_batch", (0.5, [1], 1), ValidationError, BELOW_2_63),
    ("landlord_batch", (2, [1], 1), ValidationError, "village index 2 out of range"),
    ("landlord_batch", (0, [0, 11], 1), ValidationError, r"house index 0 out of range 1\.\.10"),
    ("landlord_batch", (0, [1, 11], 1), ValidationError, r"house index 11 out of range 1\.\.10"),
    ("landlord_batch", (0, [1, 2, 3], [1, 2]), ValidationError, r"one stack index or one per house \(3\), got 2"),
    ("landlord_batch", (0, [1], [1, 2]), ValidationError, r"one stack index or one per house \(1\), got 2"),
]


@pytest.mark.parametrize("read, args, error, message", BAD_READS, ids=[f"{read}{args}" for read, args, _, _ in BAD_READS])
def test_public_reads_reject_non_integer_and_out_of_range_arguments(read, args, error, message):
    src = StackSource(two_village_params(), 10, 1)
    with pytest.raises(error, match=message):
        getattr(src, read)(*args)


def test_inject_taxi_echo():
    params = one_village_params()
    src = InjectedStackSource(params, 4, taxi={0: [2]})
    assert src.taxi(0, 1) == 2


def test_inject_landlord_echo():
    params = one_village_params()
    src = InjectedStackSource(params, 4, landlord={(0, 2): [SLEEP]})
    assert src.landlord(0, 2, 1) == SLEEP


def test_inject_strict_overflow_errors():
    params = one_village_params()
    src = InjectedStackSource(params, 4, taxi={0: [2]})
    with pytest.raises(StackExhaustedError):
        src.taxi(0, 2)
    with pytest.raises(StackExhaustedError):
        src.airplane(0, 1)


def test_inject_fallback_delegates():
    params = one_village_params(q=0.5)
    fallback = StackSource(params, 4, 55)
    src = InjectedStackSource(params, 4, taxi={0: [3]}, fallback=fallback)
    assert src.taxi(0, 1) == 3
    assert src.taxi(0, 2) == fallback.taxi(0, 2)


def test_inject_validates_values():
    params = one_village_params()
    with pytest.raises(ValidationError):
        InjectedStackSource(params, 4, taxi={0: [9]})
    with pytest.raises(ValidationError):
        InjectedStackSource(params, 4, airplane={0: [4]})
    with pytest.raises(ValidationError):
        InjectedStackSource(params, 4, landlord={(0, 1): [7]})


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3) == _derive_seed(1, 2, 3)
    assert isinstance(derive_seed(1, 2, 3), int)
    seen = set(derive_seeds(0, 1, np.arange(1000)).tolist())
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
    twin = ScalarStacks(src)
    houses = np.array([3, 1, 3, 30, 7, 1])
    j = np.array([1, 4, 2, 9, 1, 1])
    want = [twin.landlord(1, int(i), int(k)) for i, k in zip(houses, j)]
    inj = InjectedStackSource(
        params, 30, landlord={(1, i): [twin.landlord(1, i, k) for k in range(1, 10)] for i in (1, 3, 7, 30)}
    )
    blocks = np.array([1, 0, 2, 3]), np.array([2, 1, 1, 5]), np.array([3, 0, 1, 4])  # pos, first, width
    want_blocks = [twin.landlord(1, int(houses[k]), int(a + d)) for k, a, w in zip(*blocks) for d in range(w)]
    for source in (src, inj):
        assert source._landlord_reader(np.full(houses.size, 1), houses)(*blocks).tolist() == want_blocks
    assert src.landlord_batch(1, houses, j).tolist() == want
    assert src.landlord_batch(1, houses, 2).tolist() == [twin.landlord(1, int(i), 2) for i in houses]
    with pytest.raises(ValidationError):
        src.landlord_batch(1, houses, j - 1)


@st.composite
def stack_instances(draw):
    """Valid stack parameters with zero kernel entries (CDF ties), rows that
    sum to exactly 1.0 next to a deficient row, rows that mostly leak to
    GRAVEYARD, the all-GRAVEYARD row of one village with q = 0, and some
    sleep rates 0.  Returns (params, n, stack seed)."""
    V = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.uniform(0.0, 1.0, (V, V)) * (rng.uniform(0.0, 1.0, (V, V)) < 0.5)
    if V == 1:
        row_sums = np.array([draw(st.sampled_from((0.0, 0.02, 0.5)))])
    else:
        P[np.arange(V), (np.arange(V) + 1) % V] += 0.1  # a ring keeps the support irreducible
        row_sums = np.array(draw(st.lists(st.sampled_from((0.02, 0.5, 1.0)), min_size=V, max_size=V)))
        row_sums[draw(st.integers(0, V - 1))] = draw(st.sampled_from((0.02, 0.5)))  # a deficient row
    P = P / np.maximum(P.sum(axis=1, keepdims=True), 1e-12) * row_sums[:, None]
    zero_rate = np.array(draw(st.lists(st.booleans(), min_size=V, max_size=V)))
    lam = np.where(zero_rate, 0.0, rng.uniform(0.1, 3.0, V))
    params = ModelParams(kernel=P, sleep_rates=lam, init_sleepers=np.zeros(V), init_actives=np.zeros(V))
    return params, draw(st.integers(1, 500)), draw(st.integers(0, 2**63 - 1))


@settings(max_examples=30, deadline=None)
@given(stack_instances(), st.lists(st.integers(1, 8192), min_size=1, max_size=6))
def test_scalar_reads_match_range_and_reader_reads(case, js):
    params, n, seed = case
    src = StackSource(params, n, seed)
    twin = ScalarStacks(src)
    V = params.num_villages
    js = js + [4096, 4097]  # either side of where prefixes were once cached in chunks
    air = [src.airplane_prefix(x, 8194) for x in range(V)]  # the ranges below end at js[0] + 2
    taxi = [src.taxi_prefix(x, 8192) for x in range(V)]
    for x in range(V):
        for j in js:
            assert twin.airplane(x, j) == air[x][j - 1] == src.airplane_range(x, j, j + 1)[0]
            assert twin.taxi(x, j) == taxi[x][j - 1] == src.taxi_range(x, j, j + 1)[0]
        assert src.airplane(x, js[0]) == air[x][js[0] - 1] and src.taxi(x, js[0]) == taxi[x][js[0] - 1]
    villages = np.arange(V).repeat(2)
    houses = np.tile([1, n], V)
    read = src._landlord_reader(villages, houses)
    pos = np.repeat(np.arange(villages.size), len(js))
    first = np.tile(js, villages.size)
    width = np.arange(pos.size) % 4  # blocks of 0 to 3 consecutive notices
    want = [
        twin.landlord(int(villages[k]), int(houses[k]), int(a + d)) for k, a, w in zip(pos, first, width) for d in range(w)
    ]
    assert read(pos, first, width).tolist() == want
    assert src.landlord(V - 1, n, js[0]) == twin.landlord(V - 1, n, js[0])
    starts = np.array([js[0]] * V)
    stops = starts + np.arange(V) % 3  # some ranges empty
    assert np.array_equal(
        src.airplane_range(np.arange(V), starts, stops),
        np.concatenate([air[x][starts[x] - 1 : stops[x] - 1] for x in range(V)]),
    )


def test_array_ranges_match_single_village_calls_on_both_sources():
    params = two_village_params()
    src = StackSource(params, 30, 17)
    inj = InjectedStackSource(
        params,
        30,
        airplane={x: src.airplane_prefix(x, 50).tolist() for x in range(2)},
        taxi={x: src.taxi_prefix(x, 50).tolist() for x in range(2)},
    )
    x = np.array([1, 0, 1, 0])
    starts = np.array([5, 1, 9, 7])
    stops = np.array([41, 1, 12, 30])
    for source in (src, inj):
        for read in (source.airplane_range, source.taxi_range):
            want = np.concatenate([read(int(v), int(a), int(b)) for v, a, b in zip(x, starts, stops)])
            got = read(x, starts, stops)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert read(x[:0], starts[:0], stops[:0]).shape == (0,)
            for bad in ((x + 1, starts, stops), (x, starts - 1, stops), (x, starts, starts - 1)):
                with pytest.raises(ValidationError):
                    read(*bad)


def test_inject_scalar_reads_reject_index_below_one():
    params = one_village_params()
    src = InjectedStackSource(params, 4, taxi={0: [2, 3]}, airplane={0: [0]}, landlord={(0, 1): [SLEEP]})
    for j in (0, -1):
        with pytest.raises(ValidationError, match="must be >= 1"):
            src.taxi(0, j)
        with pytest.raises(ValidationError, match="must be >= 1"):
            src.airplane(0, j)
        with pytest.raises(ValidationError, match="must be >= 1"):
            src.landlord(0, 1, j)


# Seeds of any sign and size: the stacks read them mod 2^64.
any_seed = st.one_of(
    st.integers(-(2**64), 2**65),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63)]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(any_seed, min_size=1, max_size=8), st.integers(1, 9), st.lists(st.integers(-(2**63), 2**64 - 1), max_size=3))
def test_vector_seed_and_key_derivation_match_scalar(seeds, V, components):
    keys = _stream_keys(_seed_words(seeds), V)
    for k, kind in enumerate((1, 2, 3)):
        want = [_stream_key(s, kind, x) for s in seeds for x in range(V)]
        assert keys[k].tolist() == want
    want = [_derive_seed(s, *components) for s in seeds]
    assert derive_seeds(seeds, *components).tolist() == want
    assert derive_seed(seeds[0], *components) == want[0]
    # The per-trial form: one master seed, a trial axis in the last component.
    for s in seeds[:2]:
        t = np.arange(len(seeds)) - 3  # negative components too
        assert derive_seeds(s, *components, t).tolist() == [
            _derive_seed(s, *components, int(k)) for k in t
        ]


def test_trial_source_streams_match_single_trial_sources():
    params = two_village_params()
    n, V = 30, 2
    seeds = [5, -7, 2**63 + 1, 5]
    batch = StackSource(params, n, seeds)
    twin = ScalarStacks(batch)
    assert batch.trials == 4 and batch.num_streams == 8
    assert batch.master_seed == tuple(seeds)  # as given: -7 is not named by its residue
    for t, seed in enumerate(seeds):
        one = StackSource(params, n, seed)
        for x in range(V):
            s = t * V + x
            air = one.airplane_prefix(x, 60)
            want = np.where(air == GRAVEYARD, GRAVEYARD, air + t * V)
            assert np.array_equal(batch.airplane_prefix(s, 60), want)
            assert [twin.airplane(s, j) for j in (1, 17, 60)] == [int(want[j - 1]) for j in (1, 17, 60)]
            assert batch.airplane(s, 17) == want[16]
            assert np.array_equal(batch.taxi_prefix(s, 60), one.taxi_prefix(x, 60))
            assert batch.taxi(s, 9) == twin.taxi(s, 9) == one.taxi(x, 9)
            assert batch.landlord(s, 3, 4) == twin.landlord(s, 3, 4) == one.landlord(x, 3, 4)
            houses = np.arange(1, n + 1)
            assert np.array_equal(batch.landlord_batch(s, houses, 2), one.landlord_batch(x, houses, 2))
    with pytest.raises(ValidationError):
        batch.airplane(8, 1)
    with pytest.raises(ValidationError):
        StackSource(params, n, [])
    with pytest.raises(ValidationError):
        StackSource(params, n, [[1, 2]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: StackSource(p, 10, 1.5), "seed must be an integer"),
        (lambda p: StackSource(p, 10.5, 1), "n must be an integer"),
        (lambda p: InjectedStackSource(p, 10.5), "n must be an integer"),
        (lambda p: single_loop_trials(p, 10, np.array([1.5, 2.0]), [3, 3]), "seed must be an integer"),
        (lambda p: single_loop_trials(p, 10.5, [1, 2], [3, 3]), "n must be an integer"),
        (lambda p: derive_seed(1.5, 2), "seed must be an integer"),
        (lambda p: derive_seed(1, 2.5), "seed component must be an integer"),
        (lambda p: derive_seeds(np.array([1.5]), 2), "seed must be an integer"),
    ],
    ids=[
        "seed", "n", "injected-n", "trial-seeds", "trials-n", "derive-seed", "derive-component", "derive-seeds",
    ],
)
def test_non_integer_seeds_and_n_are_rejected(call, message):
    with pytest.raises(ValidationError, match=message):
        call(two_village_params())


# The frozen stream contract, (seed, stack identity, index) -> value, as
# literals: each list is one village (airplane, taxi) or house (landlord,
# houses 1 and 7 of n = 7) over GOLDEN_INDICES.  Any change of the counter
# generator, the key derivation or the lookups shows here by value.
GOLDEN_SEEDS = (0, -1, 2**64 + 5)
GOLDEN_INDICES = (1, 2, 3, 4096, 4097, 2**31 + 1)
DYADIC_KERNEL = [[0.0, 0.5, 0.25], [0.5, 0.0, 0.5], [0.5, 0.0, 0.0]]  # zero entries, and row 1 sums to 1.0
GOLDEN_AIRPLANE = {
    ("two_village", 0): [[-1, 1, -1, -1, 1, -1], [0, 0, -1, -1, -1, -1]],
    ("two_village", -1): [[1, 1, 1, -1, 1, 1], [-1, -1, -1, 0, -1, 0]],
    ("two_village", 2**64 + 5): [[1, 1, -1, 1, -1, -1], [0, -1, 0, 0, -1, -1]],
    ("dyadic", 0): [[-1, 1, -1, 2, 1, -1], [0, 0, 2, 2, 2, 0], [-1, 0, -1, -1, -1, 0]],
    ("dyadic", -1): [[1, 1, 1, -1, 1, 1], [2, 0, 2, 0, 2, 0], [0, 0, 0, -1, -1, -1]],
    ("dyadic", 2**64 + 5): [[1, 1, -1, 1, -1, -1], [0, 2, 0, 0, 2, 2], [0, -1, 0, -1, 0, 0]],
}
GOLDEN_TAXI = {
    (1, 0): [[1] * 6, [1] * 6],
    (1, -1): [[1] * 6, [1] * 6],
    (1, 2**64 + 5): [[1] * 6, [1] * 6],
    (7, 0): [[2, 5, 7, 4, 2, 4], [7, 4, 7, 6, 7, 5]],
    (7, -1): [[1, 1, 2, 7, 7, 7], [4, 6, 1, 3, 7, 2]],
    (7, 2**64 + 5): [[6, 4, 4, 3, 6, 4], [3, 2, 4, 1, 7, 1]],
    (2**31, 0): [
        [79606801, 270912136, 477688962, 347146815, 1159942045, 769281309],
        [1788445170, 1234149867, 1298197657, 253017849, 1470299285, 2031334422],
    ],
    (2**31, -1): [
        [607106047, 917337691, 1877411440, 1351356471, 287966928, 1039270606],
        [945456219, 1488306121, 1553660937, 620848154, 2080176588, 780400422],
    ],
    (2**31, 2**64 + 5): [
        [663272275, 1042801077, 39638026, 860460461, 2064533241, 85086560],
        [1015880202, 1591455604, 1838761424, 329825656, 1497245871, 700017788],
    ],
}
GOLDEN_LANDLORD = {  # lambda = 1e300 gives p_sleep = 1.0: every notice is SLEEP (0)
    (0.0, 0): ["111111", "111111"],
    (0.0, -1): ["111111", "111111"],
    (0.0, 2**64 + 5): ["111111", "111111"],
    (1.0, 0): ["010111", "110011"],
    (1.0, -1): ["110001", "000101"],
    (1.0, 2**64 + 5): ["010101", "000010"],
    (1e300, 0): ["000000", "000000"],
    (1e300, -1): ["000000", "000000"],
    (1e300, 2**64 + 5): ["000000", "000000"],
}


def _golden_model(name):
    if name == "two_village":
        return two_village_params()
    V = len(DYADIC_KERNEL)
    return ModelParams(kernel=np.array(DYADIC_KERNEL), sleep_rates=[1.0] * V, init_sleepers=[0.0] * V, init_actives=[0.0] * V)


def _golden_ranges(V, trials=1):
    """(streams, starts, stops) reading every golden index of every stream, in order."""
    js = np.tile(GOLDEN_INDICES, V * trials)
    return np.repeat(np.arange(V * trials), len(GOLDEN_INDICES)), js, js + 1


@pytest.mark.parametrize("family", ["airplane", "taxi"])
def test_golden_tickets_through_scalar_and_range_reads(family):
    golden = GOLDEN_AIRPLANE if family == "airplane" else GOLDEN_TAXI
    for model_or_n in dict.fromkeys(key for key, _ in golden):
        params, n = (_golden_model(model_or_n), 7) if family == "airplane" else (two_village_params(), model_or_n)
        V = params.num_villages
        for seed in GOLDEN_SEEDS:
            want = golden[model_or_n, seed]
            src = StackSource(params, n, seed)
            for scalar in (getattr(ScalarStacks(src), family), getattr(src, family)):
                assert [[scalar(x, j) for j in GOLDEN_INDICES] for x in range(V)] == want
            got = getattr(src, f"{family}_range")(*_golden_ranges(V))
            assert got.reshape(V, -1).tolist() == want
        # One multi-seed source: trial t reads seed t's tickets, destinations offset by t*V.
        batch = StackSource(params, n, list(GOLDEN_SEEDS))
        got = getattr(batch, f"{family}_range")(*_golden_ranges(V, len(GOLDEN_SEEDS))).reshape(-1, V, len(GOLDEN_INDICES))
        twin = getattr(ScalarStacks(batch), family)
        for t, seed in enumerate(GOLDEN_SEEDS):
            want = np.array(golden[model_or_n, seed])
            if family == "airplane":
                want = np.where(want == GRAVEYARD, GRAVEYARD, want + t * V)
            assert got[t].tolist() == want.tolist()
            assert [[twin(t * V + x, j) for j in GOLDEN_INDICES] for x in range(V)] == want.tolist()


def test_golden_notices_through_scalar_reader_and_batch_reads():
    houses = np.array([1, 7])
    js = np.array(GOLDEN_INDICES)
    for (lam, seed), want in GOLDEN_LANDLORD.items():
        want = [[int(c) for c in row] for row in want]
        src = StackSource(one_village_params(lam=lam), 7, seed)
        for scalar in (ScalarStacks(src).landlord, src.landlord):
            assert [[scalar(0, int(i), j) for j in GOLDEN_INDICES] for i in houses] == want
        assert [src.landlord_batch(0, houses, j).tolist() for j in GOLDEN_INDICES] == np.transpose(want).tolist()
        read = src._landlord_reader(np.zeros(2, dtype=np.int64), houses)
        one_each = read(np.repeat([0, 1], js.size), np.tile(js, 2), np.ones(2 * js.size, dtype=np.int64))
        assert one_each.reshape(2, -1).tolist() == want
        # Blocks of consecutive notices: 1..3, 4096..4097 and 2^31+1 of each house.
        blocks = read(np.repeat([0, 1], 3), np.tile(js[[0, 3, 5]], 2), np.tile([3, 2, 1], 2))
        assert blocks.reshape(2, -1).tolist() == want


# Kernels for the lookup on crafted words: one village with a zero row (all
# GRAVEYARD), a power-of-two V, and V just above one (2^k + 1), with zero
# entries (runs of equal CDF values) and rows summing to exactly 1.0.
CRAFTED_KERNELS = {
    "V1-zero-row": [[0.0]],
    "V4": [[0.0, 0.25, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.125], [1 / 3, 1 / 3, 0.0, 0.0]],
    "V5": [
        [0.0, 0.0, 0.0, 0.0, 0.9],
        [0.2, 0.0, 0.0, 0.0, 0.8],
        [0.0, 0.1, 0.1, 0.1, 0.1],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.25, 0.25, 0.0, 0.25, 0.0],
    ],
}


def _crafted_words(cdf: np.ndarray, bits: int) -> np.ndarray:
    """Words around every CDF breakpoint (its exact 53-bit uniform and +-1)
    and every bucket edge, plus 0 and 2^64 - 1; the low 11 bits vary too."""
    k = np.ceil(cdf.ravel() * 2.0**53)
    k = k[k < 2.0**53].astype(np.uint64)
    edges = np.arange(1 << bits, dtype=np.uint64) << np.uint64(53 - bits)
    k53 = np.concatenate([k, k + np.uint64(1), k - np.uint64(1), edges, edges - np.uint64(1)])
    k53 = k53[k53 < 2**53]  # drops the wrapped 0 - 1
    low = np.array([0, 1, 2**11 - 1], dtype=np.uint64)
    words = (k53[:, None] << np.uint64(11)) | low
    return np.concatenate([words.ravel(), np.array([0, 2**64 - 1], dtype=np.uint64)])


@pytest.mark.parametrize("name", list(CRAFTED_KERNELS))
def test_cutpoint_lookup_matches_searchsorted_on_crafted_words(name):
    kernel = np.array(CRAFTED_KERNELS[name])
    V = kernel.shape[0]
    cdf = np.cumsum(kernel, axis=1)
    lookup = _Cutpoints(kernel)
    for x in range(V):
        z = _crafted_words(cdf, lookup.bits)
        want = np.searchsorted(cdf[x], (z >> np.uint64(11)) * 2.0**-53, "right")
        want[want == V] = GRAVEYARD
        assert lookup(np.full(z.size, x), z.copy()).tolist() == want.tolist()
    # One table entry per distinct CDF value and one sentinel per row, so that
    # a step passes a whole run of zero kernel entries.
    assert lookup.cut.size == sum(np.unique(row).size for row in cdf) + V


def test_sources_of_one_model_share_its_cutpoint_tables():
    params = two_village_params()
    tables = StackSource(params, 10, 1)._cutpoints
    assert StackSource(params, 500, [2, 3])._cutpoints is tables
    assert StackSource(two_village_params(), 10, 1)._cutpoints is not tables  # an equal model of its own


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1e300])
def test_notice_compare_matches_float_uniform_on_crafted_words(lam):
    """p_sleep is 0, 1/3, 0.5 and (at lambda = 1e300) 1.0."""
    src = StackSource(one_village_params(lam=lam), 5, 1)
    p = lam / (1.0 + lam)
    k = int(np.ceil(p * 2.0**53))
    words = [0, 2**64 - 1] + [w for w in ((k << 11) - 1, k << 11, (k << 11) + 1) if 0 <= w < 2**64]
    z = np.array(words, dtype=np.uint64)
    want = ((z >> np.uint64(11)) * 2.0**-53 >= p).astype(np.uint8)
    assert _notices(z.copy(), src._jump_from[[0]]).tolist() == want.tolist()
