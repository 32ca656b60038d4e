import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import one_village_params, random_subcritical_params, two_village_params

from varw import (
    InputSizeError,
    ModelParams,
    ValidationError,
    compute_spectral,
    critical_profile,
    eta_norm,
    load_model,
    parse_model,
    validate_model,
)
import varw.model as model_mod
from varw.model import floor_counts

# analytic Perron data for the default 2x2 kernel [[0, .5], [.4, 0]]
MU_2X2 = 0.4472135954999579  # sqrt(0.2)
ETA1_2X2 = 0.894427190999916  # 0.4 / sqrt(0.2)


def test_validate_accepts_single_village():
    params = one_village_params(q=0.5, lam=1.0, sigma=0.2, nu=1.0)
    assert validate_model(params) is params


def test_validate_rejects_doubly_stochastic_kernel():
    with pytest.raises(ValidationError, match="no strictly sub-stochastic row"):
        ModelParams(
            kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
            sleep_rates=[1.0, 1.0],
            init_sleepers=[0.0, 0.0],
            init_actives=[0.0, 0.0],
        )


def test_validate_rejects_reducible_support():
    with pytest.raises(ValidationError, match="reducible"):
        ModelParams(
            kernel=np.array([[0.0, 0.5], [0.0, 0.5]]),
            sleep_rates=[1.0, 1.0],
            init_sleepers=[0.0, 0.0],
            init_actives=[0.0, 0.0],
        )


def test_validate_rejects_row_sum_above_one():
    with pytest.raises(ValidationError, match="exceeds 1"):
        ModelParams(
            kernel=np.array([[0.6, 0.5], [0.4, 0.0]]),
            sleep_rates=[1.0, 1.0],
            init_sleepers=[0.0, 0.0],
            init_actives=[0.0, 0.0],
        )


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match="length"):
        ModelParams(
            kernel=np.array([[0.5]]),
            sleep_rates=[1.0, 2.0],
            init_sleepers=[0.0],
            init_actives=[0.0],
        )


def test_validate_rejects_sigma_outside_unit_interval():
    with pytest.raises(ValidationError, match="sigma"):
        one_village_params(sigma=1.5)


def test_validate_rejects_bad_entries():
    with pytest.raises(ValidationError, match="negative"):
        ModelParams(kernel=np.array([[-0.1]]), sleep_rates=[1.0], init_sleepers=[0.0], init_actives=[0.0])
    with pytest.raises(ValidationError, match="non-finite"):
        ModelParams(kernel=np.array([[np.nan]]), sleep_rates=[1.0], init_sleepers=[0.0], init_actives=[0.0])
    with pytest.raises(ValidationError, match="sleep rates"):
        one_village_params(lam=-1.0)
    with pytest.raises(ValidationError, match="nu"):
        one_village_params(nu=-0.5)
    with pytest.raises(ValidationError, match="labels"):
        ModelParams(kernel=np.array([[0.5]]), sleep_rates=[1.0],
                    init_sleepers=[0.0], init_actives=[0.0], labels=["a", "b"])


def test_validate_subcritical_flag():
    params = one_village_params(lam=1.0, sigma=0.9)
    with pytest.raises(ValidationError, match="not subcritical"):
        validate_model(params)


def test_validate_accepts_critical_profile_exactly():
    params = one_village_params(lam=1.0, sigma=0.5)
    validate_model(params)


def test_zero_kernel_single_village_is_valid():
    # lone village, all jumps leak: irreducibility holds vacuously (zero-step paths)
    params = one_village_params(q=0.0)
    validate_model(params)
    spectral = compute_spectral(params)
    assert spectral.mu == 0.0
    assert spectral.eta[0] == 1.0


def test_spectral_scalar_kernel():
    spectral = compute_spectral(one_village_params(q=0.5))
    assert abs(spectral.mu - 0.5) < 1e-12
    assert spectral.eta[0] == 1.0
    assert spectral.eta_min == 1.0


def test_spectral_symmetric_kernel():
    params = ModelParams(
        kernel=np.array([[0.0, 0.3], [0.3, 0.0]]),
        sleep_rates=[1.0, 1.0],
        init_sleepers=[0.0, 0.0],
        init_actives=[0.0, 0.0],
    )
    spectral = compute_spectral(params)
    assert abs(spectral.mu - 0.3) < 1e-10
    assert np.allclose(spectral.eta, [1.0, 1.0], atol=1e-10)


def test_spectral_matches_analytic_two_by_two():
    spectral = compute_spectral(two_village_params())
    assert abs(spectral.mu - MU_2X2) < 1e-10
    assert abs(spectral.eta[0] - 1.0) == 0.0
    assert abs(spectral.eta[1] - ETA1_2X2) < 1e-10
    assert np.max(np.abs(two_village_params().kernel @ spectral.eta - spectral.mu * spectral.eta)) <= 1e-10


def test_spectral_is_deterministic():
    params = two_village_params()
    a = compute_spectral(params)
    b = compute_spectral(params)
    assert a.mu == b.mu
    assert np.array_equal(a.eta, b.eta)


def test_eta_norm_examples(default_spectral):
    assert eta_norm(default_spectral, [0.0, 0.0]) == 0.0
    sym = compute_spectral(
        ModelParams(
            kernel=np.array([[0.0, 0.3], [0.3, 0.0]]),
            sleep_rates=[1.0, 1.0],
            init_sleepers=[0.0, 0.0],
            init_actives=[0.0, 0.0],
        )
    )
    assert abs(eta_norm(sym, [3.0, -4.0]) - 7.0) < 1e-9
    assert abs(eta_norm(default_spectral, [1.0, 1.0]) - (1.0 + ETA1_2X2)) < 1e-9


def test_eta_norm_rejects_length_mismatch(default_spectral):
    with pytest.raises(ValidationError):
        eta_norm(default_spectral, [1.0, 2.0, 3.0])


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
def test_norm_sandwich(w):
    spectral = compute_spectral(two_village_params())
    w = np.array(w)
    l1 = float(np.sum(np.abs(w)))
    eta = eta_norm(spectral, w)
    assert spectral.eta_min * l1 <= eta + 1e-12
    assert eta <= l1 + 1e-12
    assert np.max(np.abs(w)) <= l1 + 1e-12
    assert l1 <= 2 * np.max(np.abs(w)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_eigen_action_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    params = random_subcritical_params(rng)
    spectral = compute_spectral(params)
    m = rng.uniform(0.0, 5.0, params.num_villages)
    lhs = eta_norm(spectral, m @ params.kernel)
    rhs = spectral.mu * eta_norm(spectral, m)
    assert abs(lhs - rhs) <= 1e-9


def test_critical_profile_values():
    params = two_village_params()
    assert np.allclose(critical_profile(params), [0.5, 0.5])


# --- model documents ---------------------------------------------------------


def test_load_model_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    doc = {
        "kernel": [[0.0, 0.5], [0.4, 0.0]],
        "lambda": [1.0, 1.0],
        "sigma": [0.2, 0.3],
        "nu": [0.5, 0.3],
        "labels": ["a", "b"],
    }
    path.write_text(json.dumps(doc))
    params = load_model(path)
    assert params.num_villages == 2
    assert params.labels == ("a", "b")
    assert np.array_equal(params.kernel, np.array(doc["kernel"]))


def test_parse_model_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_model(
            {"kernel": [[0.5]], "lambda": [1.0], "sigma": [0.0], "nu": [0.0], "extra": 1}
        )


def test_parse_model_rejects_missing_keys():
    with pytest.raises(ValidationError, match="missing keys"):
        parse_model({"kernel": [[0.5]]})


def test_parse_model_rejects_ragged_kernel():
    with pytest.raises(ValidationError):
        parse_model({"kernel": [[0.5, 0.1], [0.2]], "lambda": [1, 1], "sigma": [0, 0], "nu": [0, 0]})


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_model(tmp_path / "nope.json")


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_model(path)


def test_params_arrays_are_immutable():
    params = two_village_params()
    with pytest.raises(ValueError):
        params.kernel[0, 0] = 1.0


@pytest.mark.parametrize(
    "copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copied_params_are_rebuilt_read_only_and_checked(monkeypatch, copy_of):
    # worker processes of run_lln receive their ModelParams by pickle
    params = ModelParams(kernel=np.array([[0.0, 0.5], [0.4, 0.0]]), sleep_rates=[1.0, 2.0],
                         init_sleepers=[0.2, 0.3], init_actives=[0.5, 0.3], labels=["west", "east"])
    checked = []
    real = model_mod._check_structure
    monkeypatch.setattr(model_mod, "_check_structure", lambda p: checked.append(p) or real(p))
    dup = copy_of(params)
    assert dup is not params and checked == [dup]
    assert dup.labels == ("west", "east")
    for name in ("kernel", "sleep_rates", "init_sleepers", "init_actives"):
        arr = getattr(dup, name)
        assert np.array_equal(arr, getattr(params, name)) and not arr.flags.writeable
    with pytest.raises(ValueError):
        dup.kernel[0, 1] = 5.0


def test_validate_accepts_wide_irreducible_kernel():
    # 0 -> {1..256} -> 257 -> 0 has 256 two-step paths from 0 to 257; a path
    # count kept in uint8 wraps to 0 and used to reject this kernel.
    V = 258
    P = np.zeros((V, V))
    P[0, 1:257] = 1.0 / 256
    P[1:257, 257] = 0.5
    P[257, 0] = 0.5
    params = ModelParams(
        kernel=P, sleep_rates=np.ones(V), init_sleepers=np.zeros(V), init_actives=np.zeros(V)
    )
    assert validate_model(params) is params
    P[257, 0] = 0.0
    with pytest.raises(ValidationError, match="village 0 unreachable from 1"):
        ModelParams(kernel=P, sleep_rates=np.ones(V), init_sleepers=np.zeros(V), init_actives=np.zeros(V))


def test_floor_counts_uses_binary_float_products():
    # 0.29 * 100 == 28.999999999999996 in binary floating point
    assert floor_counts(np.array([0.29, 0.5, 1.0]), 100).tolist() == [28, 50, 100]


def test_floor_counts_beyond_64_bits_raise_input_size_error():
    # nu may exceed 1, so floor(nu * n) can overflow an int64 while n fits
    with pytest.raises(InputSizeError, match="n=9223372036854775807"):
        floor_counts(np.array([0.2, 2.5]), 2**63 - 1)


def _csgraph_unreachable_pair(support: np.ndarray):
    """The scipy.sparse.csgraph reachability check that `_unreachable_pair`
    replaced, kept as its oracle."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    V = support.shape[0]
    if V == 1:
        return None
    graph = csr_matrix(support.astype(np.float64))
    if connected_components(graph, directed=True, connection="strong")[0] == 1:
        return None
    missing = np.setdiff1d(np.arange(V), breadth_first_order(graph, 0, return_predecessors=False))
    if missing.size:
        return 0, int(missing[0])
    reached = breadth_first_order(graph.T.tocsr(), 0, return_predecessors=False)
    return int(np.setdiff1d(np.arange(V), reached)[0]), 0


def _chain_digraph(rng, V: int, parts: int, zero_last: bool, density: float) -> np.ndarray:
    """A support digraph whose strong components form the chain C_1 -> ... ->
    C_parts: each component is a cycle plus random edges, with random forward
    edges between components.  Village 0 lies in C_1, or in C_parts when
    `zero_last`, so it reaches every village, or only its own component."""
    order = rng.permutation(V)
    order = np.concatenate([order[order != 0], [0]] if zero_last else [[0], order[order != 0]])
    blocks = np.split(order, np.sort(rng.choice(np.arange(1, V), parts - 1, replace=False)))
    comp = np.empty(V, dtype=np.int64)
    for i, block in enumerate(blocks):
        comp[block] = i
    support = (rng.random((V, V)) < density) & (comp[:, None] <= comp[None, :])
    for block in blocks:
        support[block, np.roll(block, -1)] = True
    for a, b in zip(blocks, blocks[1:]):
        support[a[-1], b[0]] = True
    return support


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["strong", "unreachable_from_0", "0_unreachable", "one_village"]),
    st.integers(2, 300),
    st.integers(2, 6),
    st.floats(0.0, 0.3),
    st.integers(0, 2**32 - 1),
)
def test_unreachable_pair_matches_csgraph(kind, V, parts, density, seed):
    from varw.model import _unreachable_pair

    rng = np.random.default_rng(seed)
    if kind == "one_village":
        support = rng.random((1, 1)) < density
    else:
        parts = 1 if kind == "strong" else min(parts, V)
        support = _chain_digraph(rng, V, parts, kind == "unreachable_from_0", density)
    want = _csgraph_unreachable_pair(support)
    assert _unreachable_pair(support) == want
    if kind in ("strong", "one_village"):
        assert want is None
    else:
        assert want is not None and (want[0] == 0) == (kind == "unreachable_from_0")

    V = support.shape[0]
    kernel = support / (support.sum(axis=1, keepdims=True) + 1.0)

    def build():
        return ModelParams(
            kernel=kernel, sleep_rates=np.ones(V), init_sleepers=np.zeros(V), init_actives=np.zeros(V)
        )

    if want is None:
        params = build()
        assert validate_model(params) is params
    else:
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == f"kernel support is reducible: village {want[1]} unreachable from {want[0]}"
