"""Seeded instruction stacks: airplane tickets, taxi tickets, landlord notices.

Every instruction is a pure function of (master_seed, stack identity, index),
computed with a splitmix64-style counter generator.  That makes the three
families trivially memoized and query-order independent: the stabilization
loop can consume a stack one entry at a time while the single-loop evaluator
re-reads the same prefixes in bulk, and both see bitwise-identical values.
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

import numpy as np

from .errors import StackExhaustedError, ValidationError
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

_KIND_AIRPLANE = 1
_KIND_TAXI = 2
_KIND_LANDLORD = 3

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_C1 = np.uint64(_MIX_C1)
_U64_C2 = np.uint64(_MIX_C2)
_U64_K_HOUSE = np.uint64(_K_HOUSE)
_TO_UNIT = 2.0**-53

_CHUNK = 4096


def _mix64(z: int) -> int:
    """Scalar splitmix64 finalizer over Python ints (mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized twin of _mix64; identical output for identical inputs."""
    z = z ^ (z >> np.uint64(30))
    z *= _U64_C1
    z ^= z >> np.uint64(27)
    z *= _U64_C2
    z ^= z >> np.uint64(31)
    return z


def _stream_key(master_seed: int, kind: int, x: int) -> int:
    h = _mix64((master_seed & _MASK64) ^ _GOLDEN)
    h = _mix64(h ^ ((kind * _K_KIND + 1) & _MASK64))
    return _mix64(h ^ ((x * _K_VILLAGE + 1) & _MASK64))


def derive_seed(master_seed: int, *components: int) -> int:
    """Stable 64-bit child seed from a master seed and integer components."""
    h = _mix64((master_seed & _MASK64) ^ _MIX_C1)
    for c in components:
        h = _mix64(h ^ ((c * _K_VILLAGE + 1) & _MASK64))
    return h


class StackSource:
    """All three instruction families for one (seed, params, n) triple.

    A source may be shared between a stabilization run and subsequent
    single-loop evaluations, but is single-writer: it must not be fed to two
    concurrently running simulations.
    """

    def __init__(self, params: ModelParams, n: int, master_seed: int):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n!r}")
        self.params = params
        self.n = int(n)
        self.master_seed = int(master_seed)
        V = params.num_villages
        self._num_villages = V
        self._cdf = [np.cumsum(params.kernel[x]) for x in range(V)]
        lam = params.sleep_rates
        self._p_sleep = [float(lx / (1.0 + lx)) for lx in lam]
        self._air_key = [_stream_key(self.master_seed, _KIND_AIRPLANE, x) for x in range(V)]
        self._taxi_key = [_stream_key(self.master_seed, _KIND_TAXI, x) for x in range(V)]
        self._land_key = [_stream_key(self.master_seed, _KIND_LANDLORD, x) for x in range(V)]
        self._p_sleep_arr = np.array(self._p_sleep, dtype=np.float64)
        self._land_key_arr = np.array(self._land_key, dtype=np.uint64)
        self._house_key: dict[int, int] = {}
        # realized prefixes, grown geometrically
        self._air_cache = [np.empty(0, dtype=np.int64) for _ in range(V)]
        self._taxi_cache = [np.empty(0, dtype=np.int64) for _ in range(V)]
        self.served_airplane = np.zeros(V, dtype=np.int64)
        self.served_taxi = np.zeros(V, dtype=np.int64)
        self.served_landlord: dict[tuple[int, int], int] = {}

    # -- raw counter streams -------------------------------------------------

    def _raw_block(self, key: int, j_start: int, j_stop: int) -> np.ndarray:
        """uint64 outputs for indices j_start..j_stop-1 of one stream."""
        idx = np.arange(j_start, j_stop, dtype=np.uint64)
        return _mix64_np(np.uint64(key) + idx * _U64_GOLDEN)

    def _check_village(self, x: int) -> None:
        if not 0 <= x < self._num_villages:
            raise ValidationError(f"village index {x!r} out of range")

    def _check_index(self, j: int) -> None:
        if j < 1:
            raise ValidationError(f"stack index must be >= 1, got {j!r}")

    def _check_range(self, x: int, j_start: int, j_stop: int) -> None:
        self._check_village(x)
        self._check_index(j_start)
        if j_stop < j_start:
            raise ValidationError(f"prefix length must be >= 0, got {j_stop - j_start!r}")

    # -- airplane tickets ------------------------------------------------------

    def _ensure_airplane(self, x: int, upto: int) -> None:
        cache = self._air_cache[x]
        have = cache.shape[0]
        if upto <= have:
            return
        new_len = max(upto, 2 * have, _CHUNK)
        out = self._raw_block(self._air_key[x], have + 1, new_len + 1)
        u = (out >> np.uint64(11)).astype(np.float64) * _TO_UNIT
        dest = np.searchsorted(self._cdf[x], u, side="right").astype(np.int64)
        dest[dest == self._num_villages] = GRAVEYARD
        self._air_cache[x] = np.concatenate([cache, dest])

    def airplane(self, x: int, j: int) -> int:
        """Destination of the j-th jump ticket of village x (or GRAVEYARD)."""
        self._check_village(x)
        self._check_index(j)
        self._ensure_airplane(x, j)
        if j > self.served_airplane[x]:
            self.served_airplane[x] = j
        return int(self._air_cache[x][j - 1])

    def airplane_prefix(self, x: int, count: int) -> np.ndarray:
        """Tickets zeta_{1,x}..zeta_{count,x} as an int64 array."""
        return self.airplane_range(x, 1, count + 1)

    def airplane_range(self, x: int, j_start: int, j_stop: int) -> np.ndarray:
        """Tickets zeta_{j_start,x}..zeta_{j_stop-1,x} as an int64 array."""
        self._check_range(x, j_start, j_stop)
        self._ensure_airplane(x, j_stop - 1)
        if j_stop - 1 > self.served_airplane[x]:
            self.served_airplane[x] = j_stop - 1
        return self._air_cache[x][j_start - 1 : j_stop - 1].copy()

    # -- taxi tickets ----------------------------------------------------------

    def _ensure_taxi(self, x: int, upto: int) -> None:
        cache = self._taxi_cache[x]
        have = cache.shape[0]
        if upto <= have:
            return
        new_len = max(upto, 2 * have, _CHUNK)
        out = self._raw_block(self._taxi_key[x], have + 1, new_len + 1)
        houses = (out % np.uint64(self.n)).astype(np.int64) + 1
        self._taxi_cache[x] = np.concatenate([cache, houses])

    def taxi(self, x: int, j: int) -> int:
        """House chosen by the j-th taxi ticket of village x, in {1..n}."""
        self._check_village(x)
        self._check_index(j)
        self._ensure_taxi(x, j)
        if j > self.served_taxi[x]:
            self.served_taxi[x] = j
        return int(self._taxi_cache[x][j - 1])

    def taxi_prefix(self, x: int, count: int) -> np.ndarray:
        """Tickets gamma_{1,x}..gamma_{count,x} as an int64 array."""
        return self.taxi_range(x, 1, count + 1)

    def taxi_range(self, x: int, j_start: int, j_stop: int) -> np.ndarray:
        """Tickets gamma_{j_start,x}..gamma_{j_stop-1,x} as an int64 array."""
        self._check_range(x, j_start, j_stop)
        self._ensure_taxi(x, j_stop - 1)
        if j_stop - 1 > self.served_taxi[x]:
            self.served_taxi[x] = j_stop - 1
        return self._taxi_cache[x][j_start - 1 : j_stop - 1].copy()

    # -- landlord notices --------------------------------------------------------

    def _landlord_house_key(self, x: int, i: int) -> int:
        packed = x * (self.n + 1) + i
        key = self._house_key.get(packed)
        if key is None:
            key = _mix64(self._land_key[x] ^ ((i * _K_HOUSE + 1) & _MASK64))
            self._house_key[packed] = key
        return key

    def landlord(self, x: int, i: int, j: int) -> int:
        """The j-th notice of house (x, i): SLEEP or JUMP."""
        self._check_village(x)
        self._check_index(j)
        if not 1 <= i <= self.n:
            raise ValidationError(f"house index {i!r} out of range 1..{self.n}")
        key = self._landlord_house_key(x, i)
        out = _mix64((key + j * _GOLDEN) & _MASK64)
        prev = self.served_landlord.get((x, i), 0)
        if j > prev:
            self.served_landlord[(x, i)] = j
        u = (out >> 11) * _TO_UNIT
        return SLEEP if u < self._p_sleep[x] else JUMP

    def landlord_batch(self, x: int, houses: np.ndarray, j) -> np.ndarray:
        """Notices of many houses of village x at once (uint8 array).

        `j` is one stack index for every house or an array of per-house
        indices.  Raw accessor: does not advance the served counters.
        """
        self._check_village(x)
        h = np.asarray(houses, dtype=np.uint64)
        keys = _mix64_np(np.uint64(self._land_key[x]) ^ (h * _U64_K_HOUSE + np.uint64(1)))
        keys += _index_array(j).view(np.uint64) * _U64_GOLDEN
        return _notices(keys, self._p_sleep[x])

    def landlord_reader(self, villages: np.ndarray, houses: np.ndarray):
        """Notice reader for the fixed house list (villages[k], houses[k]).

        Each house's stream key is computed once, here.  The returned
        `read(sel, j)` gives notice j[k] of the house at list position
        sel[k] (uint8), for an index array `sel` and aligned `j`; it does
        not advance the served counters.
        """
        x = np.asarray(villages, dtype=np.intp)
        h = np.asarray(houses, dtype=np.uint64)
        keys = _mix64_np(self._land_key_arr[x] ^ (h * _U64_K_HOUSE + np.uint64(1)))
        p_sleep = self._p_sleep_arr[x]

        def read(sel: np.ndarray, j: np.ndarray) -> np.ndarray:
            return _notices(keys[sel] + j.view(np.uint64) * _U64_GOLDEN, p_sleep[sel])

        return read


def _notices(z: np.ndarray, p_sleep) -> np.ndarray:
    """Notices from counter inputs z = key + j*golden: SLEEP (0) when the
    uniform falls below p_sleep, else JUMP (1)."""
    z = _mix64_np(z)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= _TO_UNIT
    return (u >= p_sleep).view(np.uint8)


def _index_array(j) -> np.ndarray:
    """Stack indices `j` as a 1-d int64 array, each checked >= 1; a single
    index becomes an array of length one, which broadcasts over houses."""
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    if j.size and int(j.min()) < 1:
        raise ValidationError(f"stack index must be >= 1, got {int(j.min())!r}")
    return j


class InjectedStackSource:
    """A stack source serving hand-written instruction prefixes.

    Built for hand-traced tests: in strict mode (the default) any query past
    an injected prefix raises StackExhaustedError; with a fallback source,
    out-of-prefix queries are delegated to it instead.
    """

    def __init__(
        self,
        params: ModelParams,
        n: int,
        airplane: dict[int, list[int]] | None = None,
        taxi: dict[int, list[int]] | None = None,
        landlord: dict[tuple[int, int], list[int]] | None = None,
        strict: bool = True,
        fallback: StackSource | None = None,
    ):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n!r}")
        if strict and fallback is not None:
            raise ValidationError("strict injected stacks cannot have a fallback source")
        self.params = params
        self.n = int(n)
        self.strict = strict
        self.fallback = fallback
        V = params.num_villages
        self._air = {int(x): [int(v) for v in seq] for x, seq in (airplane or {}).items()}
        self._taxi = {int(x): [int(v) for v in seq] for x, seq in (taxi or {}).items()}
        self._land = {
            (int(x), int(i)): [int(v) for v in seq] for (x, i), seq in (landlord or {}).items()
        }
        for x, seq in self._air.items():
            if not 0 <= x < V:
                raise ValidationError(f"injected airplane stack for bad village {x}")
            for v in seq:
                if v != GRAVEYARD and not 0 <= v < V:
                    raise ValidationError(f"injected airplane value {v!r} out of range")
        for x, seq in self._taxi.items():
            if not 0 <= x < V:
                raise ValidationError(f"injected taxi stack for bad village {x}")
            for v in seq:
                if not 1 <= v <= self.n:
                    raise ValidationError(f"injected taxi value {v!r} out of range 1..{self.n}")
        for (x, i), seq in self._land.items():
            if not 0 <= x < V or not 1 <= i <= self.n:
                raise ValidationError(f"injected landlord stack for bad house ({x}, {i})")
            for v in seq:
                if v not in (SLEEP, JUMP):
                    raise ValidationError(f"injected landlord value {v!r} is not SLEEP/JUMP")
        self.served_airplane = np.zeros(V, dtype=np.int64)
        self.served_taxi = np.zeros(V, dtype=np.int64)
        self.served_landlord: dict[tuple[int, int], int] = {}

    def _lookup(self, seq: list[int] | None, j: int, what: str):
        """Injected value at index j, or None to signal fallback delegation."""
        if seq is not None and j <= len(seq):
            return seq[j - 1]
        if self.fallback is not None:
            return None
        raise StackExhaustedError(f"{what} queried at index {j} beyond injected prefix")

    def airplane(self, x: int, j: int) -> int:
        got = self._lookup(self._air.get(x), j, f"airplane stack of village {x}")
        if got is None:
            return self.fallback.airplane(x, j)
        if j > self.served_airplane[x]:
            self.served_airplane[x] = j
        return got

    def taxi(self, x: int, j: int) -> int:
        got = self._lookup(self._taxi.get(x), j, f"taxi stack of village {x}")
        if got is None:
            return self.fallback.taxi(x, j)
        if j > self.served_taxi[x]:
            self.served_taxi[x] = j
        return got

    def landlord(self, x: int, i: int, j: int) -> int:
        got = self._lookup(self._land.get((x, i)), j, f"landlord stack of house ({x}, {i})")
        if got is None:
            return self.fallback.landlord(x, i, j)
        prev = self.served_landlord.get((x, i), 0)
        if j > prev:
            self.served_landlord[(x, i)] = j
        return got

    def airplane_prefix(self, x: int, count: int) -> np.ndarray:
        return self.airplane_range(x, 1, count + 1)

    def airplane_range(self, x: int, j_start: int, j_stop: int) -> np.ndarray:
        return np.array([self.airplane(x, j) for j in range(j_start, j_stop)], dtype=np.int64)

    def taxi_prefix(self, x: int, count: int) -> np.ndarray:
        return self.taxi_range(x, 1, count + 1)

    def taxi_range(self, x: int, j_start: int, j_stop: int) -> np.ndarray:
        return np.array([self.taxi(x, j) for j in range(j_start, j_stop)], dtype=np.int64)

    def landlord_batch(self, x: int, houses: np.ndarray, j) -> np.ndarray:
        houses = np.asarray(houses, dtype=np.int64)
        return self.landlord_reader(np.full(houses.shape, x), houses)(
            np.arange(houses.size), np.broadcast_to(_index_array(j), houses.shape)
        )

    def landlord_reader(self, villages: np.ndarray, houses: np.ndarray):
        xs = np.asarray(villages).tolist()
        hs = np.asarray(houses).tolist()

        def read(sel: np.ndarray, j: np.ndarray) -> np.ndarray:
            pairs = zip(sel.tolist(), j.tolist())
            return np.array([self.landlord(xs[k], hs[k], jk) for k, jk in pairs], dtype=np.uint8)

        return read


def inject_stacks(
    params: ModelParams,
    n: int,
    airplane: dict[int, list[int]] | None = None,
    taxi: dict[int, list[int]] | None = None,
    landlord: dict[tuple[int, int], list[int]] | None = None,
    strict: bool = True,
    fallback: StackSource | None = None,
) -> InjectedStackSource:
    """Build a stack source from explicit instruction prefixes."""
    return InjectedStackSource(
        params, n, airplane=airplane, taxi=taxi, landlord=landlord, strict=strict, fallback=fallback
    )
