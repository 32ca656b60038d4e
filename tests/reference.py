"""Test tools: the scalar toppling oracle, hand-written stacks, and scalar
twins of stack and simulator formulas.

`ScalarStacks` is a second implementation of the frozen stream contract,
(seed, stack identity, index) -> value, over Python ints, one entry at a
time, written from the contract's constants.  It shares no code with the
vector reads of `varw.StackSource` that it is checked against.

`reference_stabilize` topples one landlord notice at a time from a schedule
of active houses, reading every instruction through scalar `airplane`,
`taxi` and `landlord` reads, one entry at a time: those of `ScalarStacks`
for a `StackSource`.  It holds its houses in a `DiscreteConfig`, which
counts every particle, and checks that the configuration it ends in is
stable.  By the abelian property every schedule consumes the
same stack prefixes and gives the same result as `varw.stabilize`; the
tests check that on shared stacks.

`reference_single_loop` and `reference_single_loop_tilde` evaluate the
single-loop map from scalar reads, one house at a time.

`InjectedStackSource` serves hand-written stack prefixes through the reads
the round engine makes, so hand-traced runs and strict prefix checks go
through `varw.stabilize` and `varw.single_loop` unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate

import numpy as np

from varw import GRAVEYARD, JUMP, SLEEP, ModelParams, StackSource, StepCapError, ValidationError, VarwError
from varw.model import floor_counts
from varw.simulator import DEFAULT_STEP_CAP, ConsumedCounters, SimResult, SingleLoopResult
from varw.stacks import (
    _GOLDEN,
    _K_HOUSE,
    _K_KIND,
    _K_VILLAGE,
    _MASK64,
    _MIX_C1,
    _MIX_C2,
    _check_count,
    _check_ranges,
)

SCHEDULES = ("fifo-house-queue", "village-round-robin", "lowest-index-first")


@dataclass(frozen=True, eq=False)
class DiscreteConfig:
    """House-level configuration of the oracle at fixed n.

    Row x, column i-1 describes house i of village x: its particle count
    and, when it holds exactly one particle, whether that particle is
    asleep.  Unlike `SimResult.occupied`, it can hold houses with several
    particles, as the initial configuration and the toppling loop do.
    """

    n: int
    counts: np.ndarray
    sleeping: np.ndarray

    @property
    def is_stable(self) -> bool:
        if np.any(self.counts > 1):
            return False
        return bool(np.all(self.sleeping[self.counts == 1]))


class _FifoSchedule:
    """One global FIFO over active houses."""

    def __init__(self):
        self._q = deque()

    def push(self, hid: int) -> None:
        self._q.append(hid)

    def pop(self) -> int:
        return self._q.popleft() if self._q else -1


class _LowestIndexSchedule:
    """Always topples the lexicographically smallest active house."""

    def __init__(self):
        self._heap = []

    def push(self, hid: int) -> None:
        heappush(self._heap, hid)

    def pop(self) -> int:
        return heappop(self._heap) if self._heap else -1


class _RoundRobinSchedule:
    """Cycles the villages, toppling one house from each non-empty one."""

    def __init__(self, num_villages: int, n: int):
        self._queues = [deque() for _ in range(num_villages)]
        self._n = n
        self._cursor = -1  # first pop starts the cycle at village 0
        self._size = 0

    def push(self, hid: int) -> None:
        self._queues[hid // self._n].append(hid)
        self._size += 1

    def pop(self) -> int:
        if self._size == 0:
            return -1
        V = len(self._queues)
        c = self._cursor
        for off in range(1, V + 1):
            x = (c + off) % V
            if self._queues[x]:
                self._cursor = x
                self._size -= 1
                return self._queues[x].popleft()
        return -1


def _make_schedule(schedule: str, V: int, n: int):
    if schedule == "fifo-house-queue":
        return _FifoSchedule()
    if schedule == "lowest-index-first":
        return _LowestIndexSchedule()
    if schedule == "village-round-robin":
        return _RoundRobinSchedule(V, n)
    raise ValueError(f"unknown schedule {schedule!r}; choose one of {SCHEDULES}")


def _mix64(z: int) -> int:
    """The splitmix64 finalizer over Python ints (mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return z ^ (z >> 31)


def _stream_key(master_seed: int, kind: int, x: int) -> int:
    """Key of the kind-`kind` stack (1 airplane, 2 taxi, 3 landlord) of
    village x under `master_seed`, one scalar mix at a time."""
    h = _mix64((master_seed & _MASK64) ^ _GOLDEN)
    h = _mix64(h ^ ((kind * _K_KIND + 1) & _MASK64))
    return _mix64(h ^ ((x * _K_VILLAGE + 1) & _MASK64))


def _derive_seed(master_seed: int, *components: int) -> int:
    """Child seed of a master seed and integer components, one scalar mix at
    a time: the twin of `varw.derive_seed`."""
    h = _mix64((master_seed & _MASK64) ^ _MIX_C1)
    for c in components:
        h = _mix64(h ^ ((c * _K_VILLAGE + 1) & _MASK64))
    return h


class ScalarStacks:
    """The entries of a `StackSource`, read one at a time over Python ints.

    Entry j of the stream with key k has the counter word
    z = mix(k + j * golden) and the uniform u = (z >> 11) * 2^-53.  An
    airplane ticket of stream s = t*V + x is the number of entries of row x's
    CDF that are <= u, or GRAVEYARD when all V are, offset by t*V; a taxi
    ticket is z % n + 1; the notice of house i is SLEEP when the u of its
    key mix(k ^ (i * K_HOUSE + 1)) is below lambda_x/(1+lambda_x).
    """

    def __init__(self, src: StackSource):
        params, self.n = src.params, src.n
        V = self._V = params.num_villages
        seeds = [src.master_seed] if np.ndim(src.master_seed) == 0 else list(src.master_seed)
        self._keys = [[_stream_key(seed, kind, x) for seed in seeds for x in range(V)] for kind in (1, 2, 3)]
        self._cdf = [list(accumulate(row)) for row in params.kernel.tolist()]
        self._p_sleep = [lam / (1.0 + lam) for lam in params.sleep_rates.tolist()]

    def _word(self, kind: int, s: int, j: int) -> int:
        return _mix64(self._keys[kind - 1][s] + j * _GOLDEN)

    def airplane(self, s: int, j: int) -> int:
        V = self._V
        dest = bisect_right(self._cdf[s % V], (self._word(1, s, j) >> 11) * 2.0**-53)
        return GRAVEYARD if dest == V else s - s % V + dest

    def taxi(self, s: int, j: int) -> int:
        return self._word(2, s, j) % self.n + 1

    def landlord(self, s: int, i: int, j: int) -> int:
        key = _mix64(self._keys[2][s] ^ ((i * _K_HOUSE + 1) & _MASK64))
        u = (_mix64(key + j * _GOLDEN) >> 11) * 2.0**-53
        return SLEEP if u < self._p_sleep[s % self._V] else JUMP


def scalar_reads(src):
    """The scalar reads the oracle makes on `src`: `ScalarStacks` for a
    `StackSource`, and any other source (hand-written stacks, a recording
    twin) as it is."""
    return ScalarStacks(src) if isinstance(src, StackSource) else src


def reference_init_config(params, n: int, src) -> DiscreteConfig:
    """Initial configuration, read one scalar taxi ticket at a time: one
    sleeper in each of the first floor(sigma*n) houses, then floor(nu*n)
    immigrants landed by taxi ticket, each waking any sleeper it hits."""
    src = scalar_reads(src)
    counts, sleeping = [], []
    floor_sigma = floor_counts(params.init_sleepers, n).tolist()
    for x, immigrants in enumerate(floor_counts(params.init_actives, n).tolist()):
        row = [1] * floor_sigma[x] + [0] * (n - floor_sigma[x])
        asleep = [c == 1 for c in row]
        for j in range(1, immigrants + 1):
            i = src.taxi(x, j) - 1
            row[i] += 1
            asleep[i] = False
        counts.append(row)
        sleeping.append(asleep)
    return DiscreteConfig(n=n, counts=np.array(counts, dtype=np.int64), sleeping=np.array(sleeping, dtype=bool))


def reference_stabilize(params, n: int, src, schedule: str, step_cap: int = DEFAULT_STEP_CAP) -> SimResult:
    """Stabilize by scalar toppling in the order of `schedule`.

    Starts from `reference_init_config`.  SLEEP puts a lone particle to
    sleep and is a consumed no-op in a multi-particle house; JUMP sends one
    particle through the next airplane ticket (removal on GRAVEYARD) and, on
    arrival, the destination village's next taxi ticket.  Raises
    StepCapError once more than `step_cap` instructions (landlord notices,
    airplane tickets and post-landing taxi tickets) have been executed.
    """
    V = params.num_villages
    src = scalar_reads(src)
    cfg = reference_init_config(params, n, src)
    # House (x, i) is hid = x*n + i - 1, so hid order is (village, house) order.
    counts = cfg.counts.ravel().tolist()
    sleeping = bytearray(cfg.sleeping.ravel().tobytes())
    floor_nu = floor_counts(params.init_actives, n).tolist()

    sched = _make_schedule(schedule, V, n)
    in_queue = bytearray(V * n)
    for hid, c in enumerate(counts):
        if c >= 2 or (c == 1 and not sleeping[hid]):
            sched.push(hid)
            in_queue[hid] = 1

    M_star = [0] * V
    inflow = list(floor_nu)
    taxi_next = [k + 1 for k in floor_nu]
    air_next = [1] * V
    landlord_used = [0] * V
    ll_next: dict[int, int] = {}
    steps = 0

    while True:
        hid = sched.pop()
        if hid < 0:
            break
        in_queue[hid] = 0
        x = hid // n
        jn = ll_next.get(hid, 1)
        ll_next[hid] = jn + 1
        notice = src.landlord(x, hid - x * n + 1, jn)
        landlord_used[x] += 1
        steps += 1
        c = counts[hid]
        if notice == SLEEP:
            if c == 1:
                sleeping[hid] = 1
            else:
                sched.push(hid)
                in_queue[hid] = 1
        else:
            counts[hid] = c - 1
            M_star[x] += 1
            aj = air_next[x]
            air_next[x] = aj + 1
            dest = src.airplane(x, aj)
            steps += 1
            if c > 1:
                sched.push(hid)
                in_queue[hid] = 1
            if dest != GRAVEYARD:
                tj = taxi_next[dest]
                taxi_next[dest] = tj + 1
                hid2 = dest * n + src.taxi(dest, tj) - 1
                steps += 1
                inflow[dest] += 1
                counts[hid2] += 1
                sleeping[hid2] = 0
                if not in_queue[hid2]:
                    sched.push(hid2)
                    in_queue[hid2] = 1
        if steps > step_cap:
            raise StepCapError(f"reference toppling exceeded the {step_cap} instruction guard")

    final = DiscreteConfig(
        n=n,
        counts=np.array(counts, dtype=np.int64).reshape(V, n),
        sleeping=np.frombuffer(bytes(sleeping), dtype=np.uint8).reshape(V, n) > 0,
    )
    assert final.is_stable, f"{schedule} toppling ended in a non-stable configuration"
    occupied = final.sleeping & (final.counts == 1)  # lone sleepers
    return SimResult(
        M_star=np.array(M_star, dtype=np.int64),
        S_star=np.count_nonzero(occupied, axis=1),
        inflow=np.array(inflow, dtype=np.int64),
        consumed=ConsumedCounters(
            airplane=np.array([j - 1 for j in air_next], dtype=np.int64),
            taxi=np.array([j - 1 for j in taxi_next], dtype=np.int64),
            landlord=np.array(landlord_used, dtype=np.int64),
        ),
        occupied=occupied,
    )


def reference_runs(params, n: int, seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(M*, S*) of `reference_stabilize` under every schedule, each on a
    fresh `StackSource` of the seed."""
    runs = {}
    for schedule in SCHEDULES:
        sim = reference_stabilize(params, n, StackSource(params, n, seed), schedule)
        runs[schedule] = (sim.M_star, sim.S_star)
    return runs


class StackExhaustedError(VarwError):
    """A strict injected stack was queried beyond its explicit prefix."""


class InjectedStackSource:
    """A stack source serving hand-written instruction prefixes.

    It has the reads the round engine and the oracle make: the scalar
    `airplane`, `taxi` and `landlord`, the checked range reads, and the
    engine's unchecked `_airplane_range` and `_taxi_range`, which read one
    piece given by origins as `StackSource`'s do, and `_landlord_reader`.
    Any query past an injected prefix raises StackExhaustedError, unless a
    fallback `StackSource` is given, whose `ScalarStacks` twin then serves
    it.
    """

    master_seed = None  # hand-written stacks come from no seed
    trials = 1

    def __init__(
        self,
        params: ModelParams,
        n: int,
        airplane: dict[int, list[int]] | None = None,
        taxi: dict[int, list[int]] | None = None,
        landlord: dict[tuple[int, int], list[int]] | None = None,
        fallback: StackSource | None = None,
    ):
        self.n = _check_count(n, "n")
        self.params = params
        self.fallback = None if fallback is None else ScalarStacks(fallback)
        V = self.num_streams = params.num_villages
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

    def _lookup(self, seq: list[int] | None, j: int, what: str):
        """Injected value at index j, or None to signal fallback delegation."""
        if j < 1:
            raise ValidationError(f"stack index must be >= 1, got {j!r}")
        if seq is not None and j <= len(seq):
            return seq[j - 1]
        if self.fallback is not None:
            return None
        raise StackExhaustedError(f"{what} queried at index {j} beyond injected prefix")

    def airplane(self, x: int, j: int) -> int:
        got = self._lookup(self._air.get(x), j, f"airplane stack of village {x}")
        return self.fallback.airplane(x, j) if got is None else got

    def taxi(self, x: int, j: int) -> int:
        got = self._lookup(self._taxi.get(x), j, f"taxi stack of village {x}")
        return self.fallback.taxi(x, j) if got is None else got

    def landlord(self, x: int, i: int, j: int) -> int:
        got = self._lookup(self._land.get((x, i)), j, f"landlord stack of house ({x}, {i})")
        return self.fallback.landlord(x, i, j) if got is None else got

    @staticmethod
    def _read_ranges(scalar, x, j_start, lengths) -> np.ndarray:
        ranges = zip(x.tolist(), j_start.tolist(), lengths.tolist())
        return np.array([scalar(v, j) for v, a, k in ranges for j in range(a, a + k)], dtype=np.int64)

    @staticmethod
    def _first_indices(origin, width) -> np.ndarray:
        """The first stack index of each range of a piece the engine reads:
        its entry e, in range k, has index origin[k] + e."""
        return origin + (width.cumsum() - width)

    def airplane_range(self, x, j_start, j_stop) -> np.ndarray:
        return self._read_ranges(self.airplane, *_check_ranges(x, j_start, j_stop, self.num_streams))

    def taxi_range(self, x, j_start, j_stop) -> np.ndarray:
        return self._read_ranges(self.taxi, *_check_ranges(x, j_start, j_stop, self.num_streams))

    def _airplane_range(self, x, origin, width) -> np.ndarray:
        return self._read_ranges(self.airplane, x, self._first_indices(origin, width), width)

    def _taxi_range(self, x, origin, width) -> np.ndarray:
        return self._read_ranges(self.taxi, x, self._first_indices(origin, width), width)

    def _landlord_reader(self, villages: np.ndarray, houses: np.ndarray):
        xs = np.asarray(villages).tolist()
        hs = np.asarray(houses).tolist()

        def read(pos: np.ndarray, first: np.ndarray, width: np.ndarray) -> np.ndarray:
            blocks = zip(pos.tolist(), first.tolist(), width.tolist())
            return np.array(
                [self.landlord(xs[k], hs[k], j) for k, a, w in blocks for j in range(a, a + w)], dtype=np.uint8
            )

        return read


def expected_outflux_given_influx(params: ModelParams, x: int, n: int, u: int) -> float:
    """Exact conditional mean of the single-loop outflux of village x given
    that u particles arrived there."""
    lam = float(params.sleep_rates[x])
    sc = float(floor_counts(params.init_sleepers, n)[x])
    visited_frac = 1.0 - (1.0 - 1.0 / n) ** u
    return n * (sc / n - lam / (1.0 + lam)) * visited_frac + u


def _scalar_arrivals(params, n: int, src: StackSource, M):
    """The single-loop inbound phase, one scalar read at a time: stream s
    receives its floor(nu n) immigrants and every airplane ticket 1..M[s']
    of any stream s' that lands on it, I[s] in all, and taxi ticket j of s
    lands arrival j on its house.  Returns the `ScalarStacks` twin, I, and
    per stream a dict from each visited house to its arrivals."""
    twin = ScalarStacks(src)
    I = floor_counts(params.init_actives, n).tolist() * src.trials
    for s, m in enumerate(np.asarray(M).tolist()):
        for j in range(1, m + 1):
            dest = twin.airplane(s, j)
            if dest != GRAVEYARD:
                I[dest] += 1
    hits = []
    for s in range(src.num_streams):
        hits.append({})
        for j in range(1, I[s] + 1):
            i = twin.taxi(s, j)
            hits[s][i] = hits[s].get(i, 0) + 1
    return twin, I, hits


def reference_single_loop(params, n: int, src: StackSource, M) -> SingleLoopResult:
    """I, A, Q, J, Phi and S of `single_loop` on every stream of `src`, from
    scalar reads.  Each visited house holds its arrivals and its initial
    sleeper, if it has one, and reads its landlord notices one at a time
    until all its particles but one have jumped; the next notice is its
    terminal one, and that last particle jumps too when it is JUMP.  A
    counts the visited houses, Q the initial sleepers of the unvisited
    ones, J the terminal JUMPs, and Phi every jump."""
    twin, I, hits = _scalar_arrivals(params, n, src, M)
    floor_sigma = floor_counts(params.init_sleepers, n).tolist() * src.trials
    A, Q, J, Phi = [], [], [], []
    for s in range(src.num_streams):
        jumps = terminal_jumps = 0
        for i, arrivals in hits[s].items():
            particles = arrivals + (i <= floor_sigma[s])
            j = left = 0
            while left < particles - 1:
                j += 1
                left += twin.landlord(s, i, j) == JUMP
            last = twin.landlord(s, i, j + 1) == JUMP
            jumps += left + last
            terminal_jumps += last
        A.append(len(hits[s]))
        Q.append(floor_sigma[s] - sum(i <= floor_sigma[s] for i in hits[s]))
        J.append(terminal_jumps)
        Phi.append(jumps)
    S = np.array(floor_sigma) + np.array(I) - np.asarray(M)
    fields = dict(Phi=Phi, S=S, I=I, A=A, Q=Q, J=J)
    return SingleLoopResult(**{k: np.array(v, dtype=np.int64) for k, v in fields.items()})


def reference_single_loop_tilde(params, n: int, src: StackSource, M, aux_seeds) -> np.ndarray:
    """Phi_tilde of `single_loop_tilde` on every stream of `src`, from
    scalar reads and one default_rng per trial.  The visited houses are
    those of `_scalar_arrivals`.  Each visited house sends on all its
    particles but one, and that one too when the house's fresh uniform is
    below 1/(1+lambda_x); unvisited houses send nothing."""
    V, S = params.num_villages, src.num_streams
    _, I, hits = _scalar_arrivals(params, n, src, M)
    floor_sigma = floor_counts(params.init_sleepers, n).tolist() * src.trials
    fresh = reference_fresh_uniforms(aux_seeds, (V, n)).reshape(S, n).tolist()
    p_jump = [1.0 / (1.0 + lam) for lam in params.sleep_rates.tolist()]
    Phi = []
    for s in range(S):
        visited = hits[s].keys()
        J = sum(fresh[s][i - 1] < p_jump[s % V] for i in visited)
        # particles of visited houses: the arrivals and the initial sleepers woken
        woken = sum(i <= floor_sigma[s] for i in visited)
        Phi.append(I[s] + woken - len(visited) + J)
    return np.array(Phi, dtype=np.int64)


def reference_fresh_uniforms(aux_seeds, shape) -> np.ndarray:
    """The resampled uniforms of `single_loop_tilde`, one
    np.random.default_rng per trial: row t is
    default_rng(aux_seeds[t]).random(shape)."""
    fresh = np.empty((len(aux_seeds), *shape))
    for a, row in zip(aux_seeds, fresh):
        np.random.default_rng(a).random(out=row)
    return fresh
