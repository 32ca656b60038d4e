"""Seeded instruction stacks: airplane tickets, taxi tickets, landlord notices.

Every instruction is a pure function of (master_seed, stack identity, index),
computed with a splitmix64-style counter generator.  Sources keep no record
of what was read: every entry is computed on demand from its counter, so
reads are query-order independent and may repeat: the stabilization rounds
and the single-loop evaluator read the same prefixes, through the range reads
and the landlord reader, and see bitwise-identical values.
This shared-randomness coupling is what turns the stabilizing odometer into
an exact fixed point of the single-loop map, per run, not just in law.

Stack identities and distributions:
  - airplane zeta_{j,x}: destination village sampled from kernel row x, or
    GRAVEYARD with the row's deficit mass 1 - sum_y P[x,y];
  - taxi gamma_{j,x}: uniform house index in {1..n};
  - landlord kappa_{j,(x,i)}: SLEEP with probability lambda_x/(1+lambda_x),
    JUMP otherwise.
"""

from __future__ import annotations

import operator
import weakref

import numpy as np

from .errors import InputSizeError, ValidationError
from .model import ModelParams

GRAVEYARD = -1
SLEEP = 0
JUMP = 1

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
_K_KIND = 0xC2B2AE3D27D4EB4F
_K_VILLAGE = 0xFF51AFD7ED558CCD
_K_HOUSE = 0xD6E8FEB86659FD93

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_C1 = np.uint64(_MIX_C1)
_U64_C2 = np.uint64(_MIX_C2)
_U64_K_VILLAGE = np.uint64(_K_VILLAGE)
_U64_K_HOUSE = np.uint64(_K_HOUSE)
_U64_ONE = np.uint64(1)
_U64_11 = np.uint64(11)
_U64_27 = np.uint64(27)
_U64_30 = np.uint64(30)
_U64_31 = np.uint64(31)
_NEVER = np.uint64(_MASK64)  # a cut no 53-bit uniform reaches
_MAX_ENTRIES = 1 << 60  # no array of this many 8-byte entries fits in a 64-bit address space


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, mod 2^64: mixes the uint64 array z in place
    and returns it."""
    t = z >> _U64_30
    z ^= t
    z *= _U64_C1
    np.right_shift(z, _U64_27, out=t)
    z ^= t
    z *= _U64_C2
    np.right_shift(z, _U64_31, out=t)
    z ^= t
    return z


def _counter_words(keys: np.ndarray, first, width: np.ndarray) -> np.ndarray:
    """Mixed counter words of width[k] consecutive stack indices from first[k]
    of the stream with key keys[k], block after block (uint64): entry e of
    block k, at index first[k] + e - start[k], has the word
    mix(keys[k] + index * golden)."""
    stops = width.cumsum()
    z = np.arange(stops[-1] if stops.size else 0, dtype=np.uint64)
    z *= _U64_GOLDEN
    z += (keys + (first - (stops - width)).view(np.uint64) * _U64_GOLDEN).repeat(width)
    return _mix64_np(z)


def _stream_keys(seeds: np.ndarray, V: int) -> np.ndarray:
    """Stream keys: row k-1 holds the kind-k keys of every (trial, village)
    stream t*V + x under the master seeds `seeds` (uint64), each
    mix(mix(mix(seed ^ golden) ^ (kind * K_KIND + 1)) ^ (x * K_VILLAGE + 1))."""
    kinds = [(kind * _K_KIND + 1) & _MASK64 for kind in (1, 2, 3)]  # airplane, taxi, landlord
    h = _mix64_np(seeds ^ _U64_GOLDEN)
    h = _mix64_np(h ^ np.array(kinds, dtype=np.uint64)[:, None])
    x = np.arange(V, dtype=np.uint64) * _U64_K_VILLAGE + _U64_ONE
    return _mix64_np(h[:, :, None] ^ x).reshape(len(kinds), -1)


def derive_seed(master_seed: int, *components: int) -> int:
    """Stable 64-bit child seed from a master seed and integer components."""
    components = [_as_int(c, "seed component") for c in components]
    return int(derive_seeds(_as_int(master_seed, "seed"), *components)[0])


def derive_seeds(master_seed, *components) -> np.ndarray:
    """Child seeds of master seeds and components, each an integer or a 1-d
    integer array; arrays broadcast together.  Returns uint64 seeds."""
    h = _mix64_np(_seed_words(master_seed) ^ _U64_C1)
    for c in components:
        h = _mix64_np(h ^ (_seed_words(c) * _U64_K_VILLAGE + _U64_ONE))
    return h


def _seed_words(values) -> np.ndarray:
    """An integer or a sequence of integers, of any sign and size, as a 1-d
    uint64 array of their residues mod 2^64."""
    if _ndim(values) > 1:
        raise ValidationError("seeds must be an integer or a 1-d sequence of integers")
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return np.atleast_1d(values.astype(np.uint64))
    if np.ndim(values) == 0:
        values = [values]
    return np.array([_as_int(v, "seed") & _MASK64 for v in values], dtype=np.uint64)


def _ndim(values) -> int:
    """np.ndim, with a ragged nest of sequences such as [[1, 2], 3], which
    numpy refuses, counted as 2-d."""
    try:
        return np.ndim(values)
    except ValueError:
        return 2


def _as_int(value, what: str) -> int:
    """`value` as a Python int.  Anything that is not an integer, such as a
    float, raises ValidationError instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _check_count(value, what: str) -> int:
    """A count (houses per village, trials) as a Python int in 1.._MAX_ENTRIES-1."""
    value = _as_int(value, what)
    if value < 1:
        raise ValidationError(f"{what} must be >= 1, got {value!r}")
    if value >= _MAX_ENTRIES:
        raise InputSizeError(f"{what} = {value} is too large for a 64-bit address space")
    return value


def _int64_vector(values) -> np.ndarray:
    """An integer or integer array as an int64 array of at least one
    dimension; a float or an integer past int64 raises ValidationError."""
    a = np.atleast_1d(np.asarray(values))
    if a.dtype.kind not in "iu" or (a.dtype.kind == "u" and (a >> np.uint64(63)).any()):
        raise ValidationError(f"stack reads take integers below 2^63, got {values!r}")
    return a.astype(np.int64, copy=False)


def _check_ranges(x, j_start, j_stop, num_villages: int):
    """The ranges j_start..j_stop-1 of villages x as checked int64 vectors
    (x, j_start, lengths).  x, j_start and j_stop are scalars, read as one
    range, or equal-length vectors."""
    x, j_start, j_stop = map(_int64_vector, (x, j_start, j_stop))
    if x.ndim != 1 or not x.shape == j_start.shape == j_stop.shape:
        raise ValidationError("villages, starts and stops must be equal-length vectors")
    lengths = j_stop - j_start
    for bad, message in (
        (x[(x < 0) | (x >= num_villages)], "village index {} out of range"),
        (j_start[j_start < 1], "stack index must be >= 1, got {}"),
        (lengths[lengths < 0], "prefix length must be >= 0, got {}"),
    ):
        if bad.size:
            raise ValidationError(message.format(int(bad[0])))
    _check_read_size(lengths)
    return x, j_start, lengths


def _check_read_size(lengths: np.ndarray) -> None:
    """Raise InputSizeError when a read of ranges of these int64 lengths
    could not fit in a 64-bit address space."""
    if lengths.sum(dtype=np.float64) >= _MAX_ENTRIES:
        raise InputSizeError(f"a read of {lengths.sum(dtype=object)} stack entries is too large for a 64-bit address space")


class _Cutpoints:
    """Exact inverse of the row CDFs of a kernel by the cutpoint (guide
    table) method of Chen & Asau (1974), in expected O(1) steps per draw.

    The destination of a 64-bit word z in row x is the number of entries of
    row x's CDF that are <= the uniform u = (z >> 11) * 2^-53, or GRAVEYARD
    when all V are.  With k = z >> 11, a CDF value c is <= u exactly when its
    cut ceil(c * 2^53) is <= k, so every compare is on integers.

    The tables hold, row after row, one entry per run of equal cuts (a run
    spans the zero kernel entries after its first column), then a sentinel
    whose cut no k reaches: `cut` is the run's cut and `dest` its first
    column, the answer for every u below it (GRAVEYARD for the sentinel).
    The answer is the first entry of its row with cut > k.  With
    m = 2^bits >= V buckets, guide[x * m + b] is the first entry of row x
    with a value > b / m; bucket b = z >> (64 - bits) = floor(u * m) starts
    the search there, which never passes the answer, and each step passes
    one whole run.
    """

    def __init__(self, kernel: np.ndarray):
        V = kernel.shape[0]
        W = V + 1
        self.bits = bits = max(1, (V - 1).bit_length())
        cut = np.empty((V, W), dtype=np.uint64)
        cut[:, :V] = np.ceil(np.cumsum(kernel, axis=1) * 2.0**53)
        cut[:, V] = _NEVER
        first = np.ones((V, W), dtype=bool)  # first columns of runs of equal cuts; the sentinel
        np.greater(cut[:, 1:], cut[:, :V], out=first[:, 1:])
        flat = first.ravel().nonzero()[0]
        rows, cols = np.divmod(flat, W)
        self.cut = cut.ravel()[flat]
        self.dest = np.where(cols == V, GRAVEYARD, cols)
        # A value is <= b / m exactly when its cut is <= b * 2^shift, that is
        # for the buckets b >= ceil(cut / 2^shift); the sentinel takes bucket m.
        shift = 53 - bits
        bucket = (np.minimum(self.cut, np.uint64(1 << 53)) + np.uint64((1 << shift) - 1)) >> np.uint64(shift)
        # The entry keys x * m + bucket are sorted, and guide[g] counts the keys <= g.
        edges = np.concatenate(([0], (rows << bits) + bucket.view(np.int64), [V << bits]))
        self.guide = np.repeat(np.arange(flat.size + 1), edges[1:] - edges[:-1])

    def __call__(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Destination village (or GRAVEYARD) of word z[k] in row rows[k]
        (int64).  Shifts z in place."""
        pos = self.guide[(rows << self.bits) + (z >> np.uint64(64 - self.bits)).view(np.int64)]
        z >>= _U64_11
        step = (self.cut[pos] <= z).nonzero()[0]
        while step.size:
            nxt = pos[step] + 1
            pos[step] = nxt
            step = step[self.cut[nxt] <= z[step]]
        return self.dest[pos]


# One _Cutpoints per model: a source of any n and seeds reuses its model's tables.
_CUTPOINTS: weakref.WeakKeyDictionary[ModelParams, _Cutpoints] = weakref.WeakKeyDictionary()


def _cutpoints_of(params: ModelParams) -> _Cutpoints:
    table = _CUTPOINTS.get(params)
    if table is None:
        table = _CUTPOINTS[params] = _Cutpoints(params.kernel)
    return table


class StackSource:
    """All three instruction families for one (seed, params, n) triple.

    The source holds only per-village constants (stream keys, the kernel's
    cutpoint tables, sleep thresholds) and computes every entry from its
    counter, so it can be shared by any number of runs and readers.

    With a 1-d sequence of T master seeds the source holds T independent
    trials: stream s = t*V + x is village x of trial t, and every method
    takes stream indices where it takes villages.  Trial t reads exactly the
    entries of StackSource(params, n, master_seed[t]), except that airplane
    destinations are streams t*V + y.  `master_seed` keeps the seeds given,
    as an int or a tuple of ints; the keys use their residues mod 2^64.
    """

    def __init__(self, params: ModelParams, n: int, master_seed):
        self.n = _check_count(n, "n")
        seeds = _seed_words(master_seed)
        if not seeds.size:
            raise ValidationError("master_seed must hold at least one seed")
        self.params = params
        scalar = np.ndim(master_seed) == 0
        self.master_seed = operator.index(master_seed) if scalar else tuple(map(operator.index, master_seed))
        self.trials = seeds.size
        V = self._V = params.num_villages
        self.num_streams = V * self.trials
        self._air_key, self._taxi_key, self._land_key = _stream_keys(seeds, V)
        self._cutpoints = _cutpoints_of(params)
        lam = params.sleep_rates
        # A notice is JUMP when its uniform (z >> 11) * 2^-53 is >= p = lambda/(1+lambda),
        # that is when z >> 11 >= ceil(p * 2^53); exact also for p 0 and 1.
        self._jump_from = np.ceil(np.tile(lam / (1.0 + lam), self.trials) * 2.0**53).astype(np.uint64)

    # -- airplane tickets ------------------------------------------------------

    def airplane(self, x: int, j: int) -> int:
        """Destination of the j-th jump ticket of village x (or GRAVEYARD)."""
        return int(self.airplane_range(x, j, j + 1)[0])

    def airplane_range(self, x, j_start, j_stop) -> np.ndarray:
        """Tickets zeta_{j_start,x}..zeta_{j_stop-1,x} as an int64 array.

        With equal-length arrays of villages x, starts and stops, the ranges
        of all villages, one village after another.
        """
        return self._airplane_range(*_check_ranges(x, j_start, j_stop, self.num_streams))

    def _airplane_range(self, streams: np.ndarray, j_start: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """airplane_range over int64 vectors of streams, starts >= 1 and
        lengths >= 0, unchecked: the engine's read of ranges it built."""
        z = _counter_words(self._air_key[streams], j_start, lengths)
        village = streams % self._V
        dest = self._cutpoints(np.repeat(village, lengths), z)
        # trial offsets t*V, on the tickets that did not go to GRAVEYARD
        np.add(dest, np.repeat(streams - village, lengths), out=dest, where=dest != GRAVEYARD)
        return dest

    def airplane_prefix(self, x: int, count: int) -> np.ndarray:
        """Tickets zeta_{1,x}..zeta_{count,x} as an int64 array."""
        return self.airplane_range(x, 1, count + 1)

    # -- taxi tickets ----------------------------------------------------------

    def taxi(self, x: int, j: int) -> int:
        """House chosen by the j-th taxi ticket of village x, in {1..n}."""
        return int(self.taxi_range(x, j, j + 1)[0])

    def taxi_range(self, x, j_start, j_stop) -> np.ndarray:
        """Tickets gamma_{j_start,x}..gamma_{j_stop-1,x} as an int64 array,
        with the array form of airplane_range."""
        return self._taxi_range(*_check_ranges(x, j_start, j_stop, self.num_streams))

    def _taxi_range(self, streams: np.ndarray, j_start: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """taxi_range over unchecked int64 vectors, as _airplane_range."""
        z = _counter_words(self._taxi_key[streams], j_start, lengths)
        z %= np.uint64(self.n)
        houses = z.view(np.int64)
        houses += 1
        return houses

    def taxi_prefix(self, x: int, count: int) -> np.ndarray:
        """Tickets gamma_{1,x}..gamma_{count,x} as an int64 array."""
        return self.taxi_range(x, 1, count + 1)

    # -- landlord notices --------------------------------------------------------

    def landlord(self, x: int, i: int, j: int) -> int:
        """The j-th notice of house (x, i): SLEEP or JUMP."""
        return int(self.landlord_batch(x, [i], j)[0])

    def _landlord_reader(self, villages: np.ndarray, houses: np.ndarray):
        """Notice reader for the fixed house list (villages[k], houses[k]),
        unchecked: the engine reads only houses it routed to.

        Each house's stream key is computed once, here.  The returned
        `read(pos, first, width)` gives, block after block, the width[k]
        notices first[k], first[k] + 1, ... of the house at list position
        pos[k] (uint8), for int64 arrays pos, first and width >= 0.
        """
        x = np.asarray(villages, dtype=np.intp)
        h = np.asarray(houses, dtype=np.uint64)
        keys = _mix64_np(self._land_key[x] ^ (h * _U64_K_HOUSE + _U64_ONE))
        jump_from = self._jump_from[x]

        def read(pos: np.ndarray, first: np.ndarray, width: np.ndarray) -> np.ndarray:
            return _notices(_counter_words(keys[pos], first, width), jump_from[pos].repeat(width))

        return read

    def landlord_batch(self, x: int, houses: np.ndarray, j) -> np.ndarray:
        """Notices of many houses of village x at once (uint8 array).

        `j` is one stack index for every house or an array of per-house
        indices.
        """
        houses = _int64_vector(houses)
        first = _int64_vector(j)
        if first.size != 1 and first.shape != houses.shape:
            raise ValidationError(f"expected one stack index or one per house ({houses.size}), got {first.size}")
        bad = houses[(houses < 1) | (houses > self.n)]
        if bad.size:
            raise ValidationError(f"house index {int(bad[0])!r} out of range 1..{self.n}")
        x, first = np.broadcast_arrays(x, first, houses)[:2]
        x, first, _ = _check_ranges(x, first, first, self.num_streams)
        return self._landlord_reader(x, houses)(np.arange(houses.size), first, np.ones(houses.size, dtype=np.int64))


def _notices(z: np.ndarray, jump_from) -> np.ndarray:
    """Notices of mixed counter words z: JUMP (1) when z >> 11 >= jump_from,
    else SLEEP (0).  Shifts z in place."""
    z >>= _U64_11
    return (z >= jump_from).view(np.uint8)
