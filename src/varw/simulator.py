"""Discrete village dynamics: stabilization and the single-loop evaluator.

`single_loop` evaluates the one-pass odometer map Phi on shared stacks:
given a jump count per village it routes all implied arrivals through the
taxi tickets, finds each visited house's terminal landlord notice, and
reports the resulting outflux.  Both run on one flat engine whose state is a
few dense arrays over all V*n houses.  `single_loop_trials` evaluates many
independent trials on the same engine, one stream per (trial, village).

`stabilize` computes the stabilizing odometer M* by default with the
"single-loop-rounds" policy: Phi is monotone, so iterating M <- Phi(M) from
M = 0 rises to its least fixed point, which by the least-action principle is
M*.  Each round only reads the tickets and notices revealed since the last
one, so the rounds read exactly the stack prefixes a toppling run consumes.
The other order policies topple one landlord notice at a time from a
schedule of active houses; by the abelian property every schedule gives the
same result, and these scalar schedules are kept as the reference oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import AcceptanceCheckError, StepCapError, ValidationError
from .model import ModelParams, floor_counts, validate_model
from .stacks import GRAVEYARD, SLEEP, StackSource, _seed_words

ORDER_POLICIES = (
    "single-loop-rounds",
    "fifo-house-queue",
    "village-round-robin",
    "lowest-index-first",
)
DEFAULT_STEP_CAP = 10**9
_SCAN_SLICE = 1 << 16  # houses per block of landlord reads
_TRIAL_HOUSES = 1 << 14  # houses per chunk of trials in single_loop_trials


@dataclass(frozen=True, eq=False)
class DiscreteConfig:
    """House-level configuration of one village model at fixed n.

    Row x, column i-1 describes house (x, i): its particle count and, when
    it holds exactly one particle, whether that particle is asleep.
    """

    n: int
    counts: np.ndarray
    sleeping: np.ndarray

    @property
    def is_stable(self) -> bool:
        if np.any(self.counts > 1):
            return False
        return bool(np.all(self.sleeping[self.counts == 1]))

    def sleepers_per_village(self) -> np.ndarray:
        return np.sum(self.sleeping & (self.counts == 1), axis=1).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ConsumedCounters:
    """Instructions consumed per village during one stabilization."""

    airplane: np.ndarray
    taxi: np.ndarray
    landlord: np.ndarray


@dataclass(frozen=True, eq=False)
class SimResult:
    """Stabilization outputs: jump odometer, final sleepers, arrivals."""

    M_star: np.ndarray
    S_star: np.ndarray
    inflow: np.ndarray
    consumed: ConsumedCounters
    final_config: DiscreteConfig


@dataclass(frozen=True, eq=False)
class SingleLoopResult:
    """Single-loop evaluation: outflux Phi, sleeper functional S, and the
    inbound/active/quiet/jumped diagnostics they are assembled from.
    `single_loop_trials` returns (trials, V) arrays and may add Phi_tilde,
    the outflux with resampled terminal notices."""

    Phi: np.ndarray
    S: np.ndarray
    I: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    J: np.ndarray
    Phi_tilde: np.ndarray | None = None


def _init_state(params: ModelParams, n: int, src):
    """Flat mutable state after seeding sleepers and landing immigrants.

    Houses are packed as hid = x*(n+1) + i with i in 1..n, so hid order is
    exactly lexicographic (village, house) order.
    """
    V = params.num_villages
    W = n + 1
    floor_sigma = floor_counts(params.init_sleepers, n)
    floor_nu = floor_counts(params.init_actives, n)
    counts = [0] * (V * W)
    sleeping = bytearray(V * W)
    for x in range(V):
        base = x * W
        for i in range(1, int(floor_sigma[x]) + 1):
            counts[base + i] = 1
            sleeping[base + i] = 1
        k = int(floor_nu[x])
        if k:
            for i in src.taxi_prefix(x, k).tolist():
                hid = base + i
                counts[hid] += 1
                sleeping[hid] = 0
    return counts, sleeping, floor_nu


def _to_config(n: int, V: int, counts, sleeping) -> DiscreteConfig:
    W = n + 1
    counts_arr = np.array(counts, dtype=np.int64).reshape(V, W)[:, 1:]
    sleep_arr = np.frombuffer(bytes(sleeping), dtype=np.uint8).reshape(V, W)[:, 1:] > 0
    return DiscreteConfig(n=n, counts=counts_arr, sleeping=sleep_arr)


def init_config(params: ModelParams, n: int, src) -> DiscreteConfig:
    """Initial configuration: one sleeper in each of the first floor(sigma*n)
    houses, then floor(nu*n) immigrants landed by taxi ticket, waking any
    sleeper they hit."""
    validate_model(params)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    counts, sleeping, _ = _init_state(params, n, src)
    return _to_config(n, params.num_villages, counts, sleeping)


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

    def __init__(self, num_villages: int, width: int):
        self._queues = [deque() for _ in range(num_villages)]
        self._width = width
        self._cursor = -1  # first pop starts the cycle at village 0
        self._size = 0

    def push(self, hid: int) -> None:
        self._queues[hid // self._width].append(hid)
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


def _make_schedule(order_policy: str, V: int, W: int):
    if order_policy == "fifo-house-queue":
        return _FifoSchedule()
    if order_policy == "lowest-index-first":
        return _LowestIndexSchedule()
    if order_policy == "village-round-robin":
        return _RoundRobinSchedule(V, W)
    raise ValidationError(
        f"unknown order policy {order_policy!r}; choose one of {ORDER_POLICIES}"
    )


def stabilize(
    params: ModelParams,
    n: int,
    src,
    order_policy: str = ORDER_POLICIES[0],
    step_cap: int = DEFAULT_STEP_CAP,
) -> SimResult:
    """Run the particle system to its stable configuration.

    The default policy iterates the single-loop map from M = 0 until
    Phi(M) == M; the others topple one landlord notice at a time (see
    `_topple`).  Every policy consumes the same stack prefixes and returns
    the same result.  Raises StepCapError once more than `step_cap`
    instructions (landlord notices, airplane tickets and post-landing taxi
    tickets) have been executed.
    """
    validate_model(params)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    V = params.num_villages
    floor_sigma = floor_counts(params.init_sleepers, n)
    if order_policy == ORDER_POLICIES[0]:
        M_star, inflow, consumed, final = _single_loop_rounds(params, n, src, step_cap)
    else:
        schedule = _make_schedule(order_policy, V, n + 1)
        M_star, inflow, consumed, final = _topple(params, n, src, schedule, step_cap)
    S_star = final.sleepers_per_village()

    if not final.is_stable:
        raise AcceptanceCheckError("stabilization ended in a non-stable configuration")
    balance = floor_sigma + inflow - M_star
    if not np.array_equal(S_star, balance):
        raise AcceptanceCheckError(
            f"mass balance violated: S*={S_star.tolist()} but "
            f"floor(sigma n)+inflow-M*={balance.tolist()}"
        )
    return SimResult(
        M_star=M_star, S_star=S_star, inflow=inflow, consumed=consumed, final_config=final
    )


def _step_cap_error(step_cap: int) -> StepCapError:
    return StepCapError(
        f"stabilization exceeded the {step_cap} instruction guard; "
        "input is runaway or the kernel is effectively stochastic"
    )


def _topple(params: ModelParams, n: int, src, schedule, step_cap: int):
    """Scalar toppling loop, one landlord notice per schedule slot.

    SLEEP puts a lone particle to sleep and is a consumed no-op in a
    multi-particle house; JUMP sends one particle through the next airplane
    ticket (removal on GRAVEYARD) and, on arrival, the destination village's
    next taxi ticket.  Returns (M*, inflow, consumed, final configuration).
    """
    V = params.num_villages
    W = n + 1
    counts, sleeping, floor_nu = _init_state(params, n, src)

    in_queue = bytearray(V * W)
    for hid in range(V * W):
        c = counts[hid]
        if c >= 2 or (c == 1 and not sleeping[hid]):
            schedule.push(hid)
            in_queue[hid] = 1

    M_star = [0] * V
    inflow = [int(v) for v in floor_nu]
    taxi_next = [int(v) + 1 for v in floor_nu]
    air_next = [1] * V
    landlord_used = [0] * V
    ll_next: dict[int, int] = {}
    steps = 0

    landlord = src.landlord
    airplane = src.airplane
    taxi = src.taxi
    push = schedule.push
    pop = schedule.pop

    while True:
        hid = pop()
        if hid < 0:
            break
        in_queue[hid] = 0
        x = hid // W
        jn = ll_next.get(hid, 1)
        ll_next[hid] = jn + 1
        notice = landlord(x, hid - x * W, jn)
        landlord_used[x] += 1
        steps += 1
        c = counts[hid]
        if notice == SLEEP:
            if c == 1:
                sleeping[hid] = 1
            else:
                push(hid)
                in_queue[hid] = 1
        else:
            counts[hid] = c - 1
            M_star[x] += 1
            aj = air_next[x]
            air_next[x] = aj + 1
            dest = airplane(x, aj)
            steps += 1
            if c > 1:
                push(hid)
                in_queue[hid] = 1
            if dest != GRAVEYARD:
                tj = taxi_next[dest]
                taxi_next[dest] = tj + 1
                house = taxi(dest, tj)
                steps += 1
                inflow[dest] += 1
                hid2 = dest * W + house
                c2 = counts[hid2]
                counts[hid2] = c2 + 1
                if sleeping[hid2]:
                    sleeping[hid2] = 0
                if not in_queue[hid2]:
                    push(hid2)
                    in_queue[hid2] = 1
        if steps > step_cap:
            raise _step_cap_error(step_cap)

    consumed = ConsumedCounters(
        airplane=np.array([v - 1 for v in air_next], dtype=np.int64),
        taxi=np.array([v - 1 for v in taxi_next], dtype=np.int64),
        landlord=np.array(landlord_used, dtype=np.int64),
    )
    M_arr = np.array(M_star, dtype=np.int64)
    inflow_arr = np.array(inflow, dtype=np.int64)
    return M_arr, inflow_arr, consumed, _to_config(n, V, counts, sleeping)


class _LoopEngine:
    """Single-loop state on flat arrays over all houses, advanced in rounds.

    The engine runs every stream of its source: village x of trial t is
    stream s = t*V + x, and a one-trial source has one stream per village.
    House (s, i) is flat index s*n + i - 1.  Per house the engine keeps the
    arrivals so far (`hits`), the landlord notices read (`revealed`) and the
    last of them, the terminal notice (`terminal`); per stream the airplane
    tickets read (`M`), the arrivals implied so far (`I`, initial immigrants
    included) and the taxi tickets read.  Every read is the next unread
    entry of its stack, so advancing through M_1 <= M_2 <= ... reads the
    same prefixes as one evaluation at the last odometer.
    """

    def __init__(self, params: ModelParams, n: int, src, step_cap: int | None = None):
        self.n = n
        self.src = src
        self.step_cap = step_cap
        self.floor_sigma = np.tile(floor_counts(params.init_sleepers, n), src.trials)
        self.floor_nu = np.tile(floor_counts(params.init_actives, n), src.trials)
        S = self.floor_sigma.size
        self.sleeper = np.arange(n) < self.floor_sigma[:, None]  # (S, n) initial sleepers
        self.M = np.zeros(S, dtype=np.int64)
        self.I = self.floor_nu.copy()
        self.taxi_read = np.zeros(S, dtype=np.int64)
        self.hits = np.zeros(S * n, dtype=np.int64)
        self.revealed = np.zeros(S * n, dtype=np.int64)
        self.terminal = np.zeros(S * n, dtype=np.uint8)
        self.tickets = 0  # airplane tickets plus post-landing taxi tickets read
        self.notices = 0  # landlord notices read

    def advance(self, M: np.ndarray) -> None:
        """Move the input odometer (one entry per stream) up to M,
        componentwise >= the current one."""
        touched, new_hits = self.route(M)
        self._check_cap()
        self._scan(touched, new_hits)

    def route(self, M: np.ndarray):
        """Inbound phase: read the airplane tickets past the current odometer
        and land the arrivals they imply on the next taxi tickets.  Returns
        the houses hit and how many arrivals each received."""
        S, n, src = self.I.shape[0], self.n, self.src
        if M.shape != (S,):
            raise ValidationError(f"odometer has shape {M.shape}, expected ({S},) for the source's streams")
        streams = np.arange(S)
        dests = src.airplane_range(streams, self.M + 1, M + 1)
        self.M = M
        self.I = self.I + np.bincount(dests[dests != GRAVEYARD], minlength=S)
        houses = src.taxi_range(streams, self.taxi_read + 1, self.I + 1)
        houses += np.repeat(streams * n - 1, self.I - self.taxi_read)  # flat house index
        self.taxi_read = self.I.copy()
        self.tickets = int(M.sum() + self.I.sum() - self.floor_nu.sum())
        if not houses.size:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
        new_hits = np.bincount(houses, minlength=S * n)
        touched = np.flatnonzero(new_hits)
        new_hits = new_hits[touched]
        self.hits[touched] += new_hits
        return touched, new_hits

    def _scan(self, touched: np.ndarray, new_hits: np.ndarray) -> None:
        """Resume the landlord scan of every newly hit house until it has seen
        one JUMP per particle but the last, then read one terminal notice."""
        # Slices of houses keep the per-notice temporaries bounded at large n.
        for lo in range(0, touched.size, _SCAN_SLICE):
            self._scan_slice(touched[lo : lo + _SCAN_SLICE], new_hits[lo : lo + _SCAN_SLICE])

    def _scan_slice(self, touched: np.ndarray, new_hits: np.ndarray) -> None:
        hit_before = self.hits[touched] > new_hits
        # Jumps still owed before the terminal notice.  A house hit before owes
        # none and holds a terminal notice, which now becomes an ordinary one.
        need = np.where(
            hit_before,
            new_hits - self.terminal[touched],
            new_hits + self.sleeper.ravel()[touched] - 1,
        )
        x, i = np.divmod(touched, self.n)
        read = self.src.landlord_reader(x, i + 1)
        pos = np.arange(touched.size)
        j = self.revealed[touched] + 1  # next unread notice
        while pos.size:
            # A house owing k JUMPs reads at least k + 1 more notices, and only
            # the last of them can be terminal: read those k + 1 in one block.
            width = need + 1
            stops = np.cumsum(width)
            starts = stops - width
            draws = read(
                np.repeat(pos, width), np.repeat(j - starts, width) + np.arange(stops[-1])
            )
            self.notices += int(stops[-1])
            self._check_cap()
            jumps = np.add.reduceat(draws, starts, dtype=np.int64)
            last = draws[stops - 1]
            final = jumps - last == need
            if final.any():
                done = touched[pos[final]]
                self.terminal[done] = last[final]
                self.revealed[done] = j[final] + need[final]
                more = ~final
                pos, j, need, width, jumps = pos[more], j[more], need[more], width[more], jumps[more]
            need = need - jumps
            j = j + width

    def _check_cap(self) -> None:
        if self.step_cap is not None and self.tickets + self.notices > self.step_cap:
            raise _step_cap_error(self.step_cap)

    def totals(self):
        """(I, A, Q, J) per stream: arrivals, visited houses, initial
        sleepers never hit, and terminal JUMP notices."""
        S, n = self.I.shape[0], self.n
        visited = self.hits.reshape(S, n) > 0
        A = np.count_nonzero(visited, axis=1).astype(np.int64)
        Q = self.floor_sigma - np.count_nonzero(visited & self.sleeper, axis=1)
        J = self.terminal.reshape(S, n).sum(axis=1, dtype=np.int64)
        return self.I.copy(), A, Q, J


def _outflux(floor_sigma, I, A, Q, J) -> np.ndarray:
    """Phi: every particle through a visited house leaves it but the last,
    which leaves on a terminal JUMP; unvisited houses send nothing."""
    return floor_sigma - Q + I - A + J


def _single_loop_rounds(params: ModelParams, n: int, src, step_cap: int):
    """Iterate M <- Phi(M) from M = 0 on one engine until Phi(M) == M."""
    V = params.num_villages
    engine = _LoopEngine(params, n, src, step_cap)
    M = np.zeros(V, dtype=np.int64)
    while True:
        engine.advance(M)
        Phi = _outflux(engine.floor_sigma, *engine.totals())
        if np.array_equal(Phi, M):
            break
        if np.any(Phi < M):
            raise AcceptanceCheckError(
                f"single-loop iterates from M=0 must be nondecreasing: Phi={Phi.tolist()} "
                f"below M={M.tolist()}"
            )
        M = Phi

    visited = engine.hits.reshape(V, n) > 0
    terminal = engine.terminal.reshape(V, n)
    counts = np.where(visited, 1 - terminal.astype(np.int64), engine.sleeper.astype(np.int64))
    final = DiscreteConfig(n=n, counts=counts, sleeping=counts == 1)
    consumed = ConsumedCounters(
        airplane=M.copy(),
        taxi=engine.I.copy(),
        landlord=engine.revealed.reshape(V, n).sum(axis=1),
    )
    return M, engine.I.copy(), consumed, final


def _check_odometer(params: ModelParams, M) -> np.ndarray:
    M = np.asarray(M)
    if M.shape != (params.num_villages,):
        raise ValidationError(f"M has shape {M.shape}, expected ({params.num_villages},)")
    if np.issubdtype(M.dtype, np.floating):
        if not np.all(M == np.floor(M)):
            raise ValidationError("M must be integer-valued")
    elif not np.issubdtype(M.dtype, np.integer):
        raise ValidationError(f"M must be an integer vector, got dtype {M.dtype}")
    M = M.astype(np.int64)
    if np.any(M < 0):
        raise ValidationError("M must be componentwise >= 0")
    return M


def single_loop(params: ModelParams, n: int, src, M) -> SingleLoopResult:
    """Evaluate the one-pass odometer map at input odometer M.

    All outputs are exact integer counts; on the stack source used by a
    completed stabilization, single_loop(M_star) returns M_star and S_star.
    """
    validate_model(params)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    M = _check_odometer(params, M)
    engine = _LoopEngine(params, n, src)
    engine.advance(M)
    I, A, Q, J = engine.totals()
    Phi = _outflux(engine.floor_sigma, I, A, Q, J)
    S = -M + engine.floor_sigma + I
    return SingleLoopResult(Phi=Phi, S=S, I=I, A=A, Q=Q, J=J)


def single_loop_tilde(params: ModelParams, n: int, src, M, aux_seed: int) -> np.ndarray:
    """Single-loop outflux with the terminal notices resampled.

    Identical inbound phase, but each visited house's terminal notice is
    replaced by a fresh Bernoulli(1/(1+lambda_x)) draw seeded by `aux_seed`,
    independent of the landlord stacks: village by village, n uniforms, one
    per house.  Returns the outflux vector only.
    """
    validate_model(params)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    M = _check_odometer(params, M)
    engine = _LoopEngine(params, n, src)
    engine.route(M)
    I, A, Q, _ = engine.totals()
    V = params.num_villages
    rng = np.random.default_rng(aux_seed)
    p_jump = 1.0 / (1.0 + params.sleep_rates)
    fresh = rng.random((V, n)) < p_jump[:, None]
    visited = engine.hits.reshape(V, n) > 0
    J = np.count_nonzero(fresh & visited, axis=1).astype(np.int64)
    return _outflux(engine.floor_sigma, I, A, Q, J)


def single_loop_trials(params: ModelParams, n: int, seeds, M, aux_seeds=None) -> SingleLoopResult:
    """single_loop at one odometer M over T independent trials.

    Trial t reads the stacks of StackSource(params, n, seeds[t]), and row t
    of every (T, V) field of the result equals that field of single_loop on
    that source.  With `aux_seeds`, row t of Phi_tilde equals
    single_loop_tilde(params, n, src, M, aux_seeds[t]).  The model is
    validated once; the trials run in chunks of about _TRIAL_HOUSES houses,
    each chunk as the streams of one engine, so memory stays bounded.
    """
    validate_model(params)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    M = _check_odometer(params, M)
    seeds = _seed_words(seeds)
    T, V = seeds.size, params.num_villages
    if T < 1:
        raise ValidationError("seeds must hold at least one seed")
    if aux_seeds is not None and len(aux_seeds) != T:
        raise ValidationError(f"got {len(aux_seeds)} aux seeds for {T} trials")
    p_jump = (1.0 / (1.0 + params.sleep_rates))[:, None]
    per = max(1, _TRIAL_HOUSES // (V * n))
    parts = []
    for lo in range(0, T, per):
        chunk = seeds[lo : lo + per]
        engine = _LoopEngine(params, n, StackSource(params, n, chunk))
        engine.advance(np.tile(M, chunk.size))
        I, A, Q, J = engine.totals()
        fields = [_outflux(engine.floor_sigma, I, A, Q, J), -engine.M + engine.floor_sigma + I, I, A, Q, J]
        if aux_seeds is not None:
            # The draws of single_loop_tilde: per trial, village by village, n uniforms.
            fresh = np.stack(
                [np.random.default_rng(int(a)).random((V, n)) for a in aux_seeds[lo : lo + per]]
            )
            visited = engine.hits.reshape(chunk.size, V, n) > 0
            J_tilde = np.count_nonzero((fresh < p_jump) & visited, axis=2).ravel()
            fields.append(_outflux(engine.floor_sigma, I, A, Q, J_tilde))
        parts.append(fields)
    Phi, S, I, A, Q, J, *tilde = (np.concatenate(f).reshape(T, V) for f in zip(*parts))
    return SingleLoopResult(Phi=Phi, S=S, I=I, A=A, Q=Q, J=J, Phi_tilde=tilde[0] if tilde else None)


def expected_outflux_given_influx(params: ModelParams, x: int, n: int, u: int) -> float:
    """Exact conditional mean of the single-loop outflux of village x given
    that u particles arrived there."""
    lam = float(params.sleep_rates[x])
    sc = float(floor_counts(params.init_sleepers, n)[x])
    visited_frac = 1.0 - (1.0 - 1.0 / n) ** u
    return n * (sc / n - lam / (1.0 + lam)) * visited_frac + u
