"""Discrete village dynamics: stabilization and the single-loop evaluator.

Every entry point runs every stream of its stack source: stream s = t*V + x
is village x of trial t, and each per-village result has one entry per
stream (V for a one-seed source).  `single_loop` evaluates the one-pass
odometer map Phi on shared stacks: it routes the arrivals implied by a jump
count per stream through the taxi tickets, finds each visited house's
terminal landlord notice, and reports the resulting outflux, by the one
evaluation `single_loop_tilde` and `single_loop_trials` share.  All entry
points run on one flat engine that keeps one int32 word per house.

`stabilize` computes the stabilizing odometer M* in rounds: Phi is
monotone, so iterating M <- Phi(M) from M = 0 rises to its least fixed
point, which by the least-action principle is M*, each trial's own side by
side, since trials exchange no particles.  By the abelian property every
toppling order gives the same M*, so the order is not an input.  Each round
only reads the tickets and notices revealed since the last one, so the
rounds read exactly the stack prefixes a toppling run consumes; the tests
check this against a scalar toppling loop (`tests/reference.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AcceptanceCheckError, InputSizeError, StepCapError, ValidationError
from .model import ModelParams, critical_profile, floor_counts
from .model import validate_model  # noqa: F401  patched here by perfbench/traced.py
from .stacks import (
    _MAX_ENTRIES,
    _SCAN_SLICE,
    GRAVEYARD,
    JUMP,
    SLEEP,
    StackSource,
    _as_int,
    _check_count,
    _check_fits_memory,
    _check_read_size,
    _ndim,
    _pieces,
    _seed_words,
)

DEFAULT_STEP_CAP = 10**9
_MAX_NOTICES = (1 << 30) - 1  # landlord notices a house's int32 word counts
_TRIAL_HOUSES = 1 << 17  # houses per chunk of trials in single_loop_trials and run_lln
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constant before each hash and after the last, INIT * MULT^k mod 2^32: pool
# hashing and mixing hash 4 + 12 times with the A constants, the output 8 times with the B ones.
_HASH_A = np.array([_SEED_INIT_A * pow(_SEED_MULT_A, k, 1 << 32) & _MASK32 for k in range(17)], dtype=np.uint32)
_HASH_B = np.array([_SEED_INIT_B * pow(_SEED_MULT_B, k, 1 << 32) & _MASK32 for k in range(9)], dtype=np.uint32)


@dataclass(frozen=True, eq=False)
class ConsumedCounters:
    """Instructions consumed per stream during one stabilization."""

    airplane: np.ndarray
    taxi: np.ndarray
    landlord: np.ndarray


@dataclass(frozen=True, eq=False)
class SimResult:
    """Stabilization outputs: jump odometer, final sleepers, arrivals, and
    the stable configuration.  A stable configuration is a set of lone
    sleepers, so `occupied` holds all of it, as a (streams, n) bool array:
    row s, column i-1 is True exactly when house i of stream s (village x of
    trial t for s = t*V + x) holds its lone sleeper."""

    M_star: np.ndarray
    S_star: np.ndarray
    inflow: np.ndarray
    consumed: ConsumedCounters
    occupied: np.ndarray


@dataclass(frozen=True, eq=False)
class SingleLoopResult:
    """Single-loop evaluation: outflux Phi, sleeper functional S, arrivals
    I, visited houses A, unvisited initial sleepers Q and terminal JUMPs J.
    `single_loop_trials` returns (trials, V) arrays, and with aux seeds adds
    Phi_tilde, the outflux with resampled terminal notices."""

    Phi: np.ndarray
    S: np.ndarray
    I: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    J: np.ndarray
    Phi_tilde: np.ndarray | None = None


def stabilize(params: ModelParams, n: int, src, step_cap: int = DEFAULT_STEP_CAP) -> SimResult:
    """Run every trial of the source to its stable configuration.

    Iterates the single-loop map from M = 0 until Phi(M) == M, reading the
    same stack prefixes as any toppling order.  Raises StepCapError once
    more than `step_cap` instructions (landlord notices, airplane tickets and
    post-landing taxi tickets) of all trials together have been executed.
    """
    V = params.num_villages
    engine = _LoopEngine(params, n, src, step_cap)
    M = np.zeros(src.num_streams, dtype=np.int64)
    while True:
        engine.advance(M)
        Phi = _outflux(engine.floor_sigma, engine.I, engine.Z)
        if np.array_equal(Phi, M):
            break
        below = np.flatnonzero(Phi < M)
        if below.size:
            t = int(below[0]) // V
            raise AcceptanceCheckError(
                f"single-loop iterates from M=0 must be nondecreasing {_failed_at(src, int(below[0]), V)}: "
                f"Phi={Phi.reshape(-1, V)[t].tolist()} below M={M.reshape(-1, V)[t].tolist()}"
            )
        M = Phi

    word = engine.word.reshape(src.num_streams, engine.n)
    occupied = (word & 1) == SLEEP
    S_star, inflow = _lone_sleepers(occupied), engine.I.copy()
    balance = engine.floor_sigma + inflow - M
    bad = np.flatnonzero(S_star != balance)
    if bad.size:
        t = int(bad[0]) // V
        raise AcceptanceCheckError(
            f"mass balance violated {_failed_at(src, int(bad[0]), V)}: S*={S_star.reshape(-1, V)[t].tolist()} but "
            f"floor(sigma n)+inflow-M*={balance.reshape(-1, V)[t].tolist()}"
        )
    landlord = (word >> 1).sum(axis=1, dtype=np.int64)
    consumed = ConsumedCounters(airplane=M.copy(), taxi=inflow.copy(), landlord=landlord)
    return SimResult(M_star=M, S_star=S_star, inflow=inflow, consumed=consumed, occupied=occupied)


def _lone_sleepers(occupied: np.ndarray) -> np.ndarray:
    """S* per stream, counted house by house.  The mass-balance check needs
    this count: at the fixed point, the engine's running count Z equals
    floor(sigma n) + I - M identically, so only a per-house count checks Z."""
    return np.count_nonzero(occupied, axis=1)


def _failed_at(src, s: int, V: int) -> str:
    """Where an invariant failed first: the run of stream s's trial, then
    its village."""
    return f"({_run_name(src, s // V)}) in village {s % V}"


def _run_name(src, t: int) -> str:
    """The run an invariant failure happened in: n and the seed of trial t."""
    if np.ndim(src.master_seed) == 0:
        return f"n={src.n}, seed={src.master_seed}"
    return f"n={src.n}, trial {t}, seed={src.master_seed[t]}"


class _LoopEngine:
    """Single-loop state on flat arrays over all houses, advanced in rounds.

    The engine runs every stream of its source: village x of trial t is
    stream s = t*V + x, and a one-trial source has one stream per village.
    House (s, i) is flat index s*n + i - 1.  Per house the engine keeps what
    the next round reads in one int32 `word`, 2 * notices + occupancy bit:
    the landlord notices read (a house is visited exactly when it has read
    one, its terminal notice, so exactly when word > 1), and a bit that is
    SLEEP exactly when the house holds a lone sleeper: its initial sleeper
    (i <= floor_sigma[s]) until it is visited, its terminal notice after.
    Per stream it keeps the airplane tickets read (`M`), the taxi tickets
    read, the arrivals I and the lone sleepers Z, updated from the houses
    each round touches: all that Phi, by mass balance, needs.  Every read is
    the next unread entry of its stack, so advancing through M_1 <= M_2 <=
    ... reads the same prefixes as one evaluation at the last odometer.

    Every entry point builds one, so it is where the caller's model and n
    are checked against the source's, and where a source whose houses, at
    about 16 bytes each, would pass physical memory is refused.
    """

    def __init__(self, params: ModelParams, n: int, src, step_cap: int | None = None):
        if src.params is not params:
            raise ValidationError("the stack source was built for a different model")
        if src.n != n:
            raise ValidationError(f"the stack source has n={src.n}, but n={n!r} was given")
        # No notice of such a village is JUMP, so a house holding two particles would scan forever.
        if (never := np.flatnonzero(critical_profile(params) == 1.0)).size:
            x = int(never[0])
            raise ValidationError(
                f"village {x} has lambda={float(params.sleep_rates[x])!r}, where lambda/(1+lambda) "
                "rounds to 1.0, so none of its landlord notices can be JUMP"
            )
        n = self.n = src.n
        self.src = src
        self.step_cap = step_cap
        self.floor_sigma = np.tile(floor_counts(params.init_sleepers, n), src.trials)
        self.floor_nu = np.tile(floor_counts(params.init_actives, n), src.trials)
        S = self.floor_sigma.size
        _check_count(S * n, "houses in all streams")
        _check_fits_memory(S * n, 16, "houses in all streams")  # Tier-1 bounds stabilize at 13.3 B/house
        self.M = np.zeros(S, dtype=np.int64)
        self.I = self.floor_nu.copy()
        self.Z = self.floor_sigma.copy()  # lone sleepers
        self.taxi_read = np.zeros(S, dtype=np.int64)
        bits = np.tile(np.array([SLEEP, JUMP], dtype=np.int32), S)  # initial sleepers first
        self.word = bits.repeat(np.column_stack((self.floor_sigma, n - self.floor_sigma)).ravel())
        self.house_dtype = np.int32 if S * n < 1 << 31 else np.int64  # flat house indices
        self.tickets = 0  # airplane tickets plus post-landing taxi tickets read
        self.notices = 0  # landlord notices read

    def advance(self, M: np.ndarray) -> None:
        """Move the input odometer (one entry per stream) up to M,
        componentwise >= the current one: route the new arrivals, then resume
        the landlord scan of every newly hit house until it has seen one JUMP
        per particle but the last, and read one terminal notice."""
        touched, new_hits = self.route(M)
        self._check_cap()
        # Slices of houses keep the per-notice temporaries bounded at large n.
        for lo in range(0, touched.size, _SCAN_SLICE):
            self._scan_slice(touched[lo : lo + _SCAN_SLICE], new_hits[lo : lo + _SCAN_SLICE])

    def route(self, M: np.ndarray):
        """Inbound phase: read the airplane tickets past the current odometer
        and land the arrivals they imply on the next taxi tickets.  Returns
        the houses hit this round and how many arrivals each received.
        Both reads are of ranges built here, past what was read before, so
        only their total size is checked, and they are read in pieces
        (`_pieces`), so their per-ticket temporaries stay bounded."""
        S, n, src = self.I.shape[0], self.n, self.src
        streams = np.arange(S)
        flights = M - self.M
        _check_read_size(flights)
        possible = np.append(self.I - self.taxi_read, flights)  # unread arrivals, and one per flight at most
        _check_read_size(possible)
        # Reserved before the first piece, so an odometer too large for memory fails at once.
        houses = np.empty(int(possible.sum()), dtype=self.house_dtype)
        landed = np.zeros(S + 1, dtype=np.int64)
        for k, origin, width in _pieces(self.M + 1, flights):
            dest = src._airplane_range(streams[k], origin, width)
            dest -= GRAVEYARD  # GRAVEYARD lands in bin 0
            landed += np.bincount(dest, minlength=S + 1)
        self.M = M
        self.I = self.I + landed[1:]
        count = 0
        for k, origin, width in _pieces(self.taxi_read + 1, self.I - self.taxi_read):
            piece = src._taxi_range(streams[k], origin, width)
            piece += np.repeat(streams[k] * n - 1, width)  # flat house index
            houses[count : count + piece.size] = piece
            count += piece.size
        self.taxi_read = self.I.copy()
        self.tickets = int(M.sum() + self.I.sum() - self.floor_nu.sum())
        return _hit_counts(houses[:count])

    def _scan_slice(self, touched: np.ndarray, new_hits: np.ndarray) -> None:
        S, n = self.I.size, self.n
        touched = touched.astype(np.intp, copy=False)  # numpy gathers and scatters fastest with native indices
        x = touched // n
        read = self.src._landlord_reader(x, touched - x * n + 1)
        word = self.word[touched]
        before = word & 1  # SLEEP on a house that holds a lone sleeper
        # Jumps still owed before the terminal notice, one per particle but the
        # last; a lone sleeper, which the arrivals wake, is one particle more.
        need = new_hits - before
        pos = np.arange(touched.size)
        first = (word >> 1) + 1  # next unread notice
        while pos.size:
            # A house owing k JUMPs reads at least k + 1 more notices, and only
            # the last of them can be terminal: read those k + 1 in one block.
            width = need + 1
            # No house has read more notices than the engine, so only then can one pass the limit.
            if self.notices + width.sum() > _MAX_NOTICES and (past := (first + need > _MAX_NOTICES).nonzero()[0]).size:
                k = pos[past[0]]
                raise InputSizeError(
                    f"house {touched[k] % n + 1} would read more than {_MAX_NOTICES} landlord notices "
                    f"{_failed_at(self.src, int(x[k]), self.src.params.num_villages)}"
                )
            draws = read(pos, first, width)
            self.notices += draws.size
            self._check_cap()
            first += need  # notices read, below the limit checked above, so int32 holds them
            # JUMPs per house: differences of the running JUMP count at the block
            # ends, exact mod 2^32 since no house reads 2^32 notices in one block.
            ends = np.cumsum(width, out=width)
            ends -= 1
            jumps = draws.cumsum(dtype=np.uint32)[ends]
            jumps[1:] -= jumps[:-1]
            need -= jumps
            last = draws[ends]
            # Record each house's notice count and last notice.  A house whose
            # last notice is terminal (it owed no other jump: need + last == 0)
            # is done, and its record stays.
            word[pos] = 2 * first + last
            more = (need + last != 0).nonzero()[0]
            pos, first, need = pos[more], first[more] + 1, need[more]
        self.word[touched] = word
        self.Z += np.bincount(x, weights=before - (word & 1), minlength=S).astype(np.int64)

    def _check_cap(self) -> None:
        if self.step_cap is not None and self.tickets + self.notices > self.step_cap:
            raise StepCapError(
                f"stabilization exceeded the {self.step_cap} instruction guard; "
                "input is runaway or the kernel is effectively stochastic"
            )


def _outflux(floor_sigma, I, Z) -> np.ndarray:
    """Phi by mass balance: every particle a stream holds, its initial
    sleepers and its arrivals, leaves but its Z lone sleepers."""
    return floor_sigma + I - Z


def _hit_counts(houses: np.ndarray):
    """np.unique(houses, return_counts=True), but sorting `houses` in place
    where np.unique sorts a copy: the distinct values and how often each
    occurs (int64)."""
    houses.sort()
    first = np.empty(houses.size, dtype=bool)  # the first entry of each run of equal values
    first[:1] = True
    np.not_equal(houses[1:], houses[:-1], out=first[1:])
    starts = first.nonzero()[0]
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = houses.size - starts[-1:]
    return houses[starts], counts


def _check_odometer(M, size: int) -> np.ndarray:
    M = np.asarray(M)
    if M.shape != (size,):
        raise ValidationError(f"M has shape {M.shape}, expected ({size},)")
    if np.issubdtype(M.dtype, np.floating):
        if not np.all(M == np.floor(M)):
            raise ValidationError("M must be integer-valued")
    elif not np.issubdtype(M.dtype, np.integer):
        raise ValidationError(f"M must be an integer vector, got dtype {M.dtype}")
    if (big := M[np.abs(M) >= 2**63]).size:
        raise InputSizeError(f"M value {big[0].item()} does not fit in a 64-bit integer")
    M = M.astype(np.int64)
    if np.any(M < 0):
        raise ValidationError("M must be componentwise >= 0")
    # Bounded here, the engine's read stops M + 1 cannot wrap in int64.
    if (big := M[M >= _MAX_ENTRIES]).size:
        raise InputSizeError(f"M value {big[0]} is too large for a 64-bit address space")
    return M


def single_loop(params: ModelParams, n: int, src, M) -> SingleLoopResult:
    """Evaluate the one-pass odometer map at input odometer M.

    All outputs are exact integer counts; on the stack source used by a
    completed stabilization, single_loop(M_star) returns M_star and S_star.
    """
    return _evaluate(params, n, src, _check_odometer(M, src.num_streams))


def single_loop_tilde(params: ModelParams, n: int, src, M, aux_seed) -> np.ndarray:
    """Single-loop outflux with the terminal notices resampled.

    The evaluation of single_loop, but each visited house's terminal notice
    is replaced by a fresh Bernoulli(1/(1+lambda_x)) draw, independent of
    the landlord stacks (see `_fresh_uniforms`).  `aux_seed` holds one aux
    seed per trial of the source, each in 0..2^128-1; an integer is the aux
    seed of a one-seed source.  Trial t's draws are those of
    np.random.default_rng(aux_seed[t]), and every trial is seeded in one
    pass.  Returns the outflux vector only.
    """
    M = _check_odometer(M, src.num_streams)
    return _evaluate(params, n, src, M, _aux_seeds(aux_seed, src.trials)).Phi_tilde


def _aux_seeds(aux_seeds, trials: int) -> np.ndarray:
    """One aux seed per trial, in 0..2^128-1, as a (trials, 4) uint32 array
    of its little-endian 32-bit words; an integer is one seed."""
    aux = [_as_int(a, "aux seed") for a in ([aux_seeds] if _ndim(aux_seeds) == 0 else aux_seeds)]
    if len(aux) != trials:
        raise ValidationError(f"got {len(aux)} aux seeds for {trials} trials")
    if min(aux) < 0:
        raise ValidationError(f"aux seeds must be >= 0, got {min(aux)}")
    if max(aux) > _MASK128:
        raise ValidationError(f"aux seeds must be below 2^128, got {max(aux)}")
    return np.frombuffer(b"".join(a.to_bytes(16, "little") for a in aux), dtype="<u4").reshape(trials, 4)


def _evaluate(params: ModelParams, n: int, src, M: np.ndarray, aux_seeds=None) -> SingleLoopResult:
    """The single-loop map on every stream of `src` at the checked odometer
    M, with Phi_tilde when given its trials' aux seeds.  After the engine's
    one round, one pass over its words, in windows of _SCAN_SLICE houses,
    counts per stream the visited houses A (word > 1), the unvisited initial
    sleepers Q (word == SLEEP) and, with aux seeds, the visited houses whose
    fresh terminal notice is SLEEP: its uniform is >= 1/(1+lambda_x)."""
    engine = _LoopEngine(params, n, src)
    engine.advance(M)
    word, counts = engine.word, np.zeros((3, engine.I.size), dtype=np.int64)
    p_jump = np.tile(1.0 / (1.0 + params.sleep_rates), src.trials)
    unsampled = ((a, None) for a in range(0, word.size, _SCAN_SLICE))
    windows = unsampled if aux_seeds is None else _fresh_uniforms(aux_seeds, params.num_villages, n)
    for a, fresh in windows:
        window = word[a : a + _SCAN_SLICE]
        streams = np.arange(a // n, (a + window.size - 1) // n + 1)
        starts = np.maximum(streams * n, a) - a  # where each stream's houses start in the window
        rows = [window > 1, window == SLEEP]
        if fresh is not None:
            rows.append(rows[0] & (fresh >= p_jump[streams].repeat(np.diff(starts, append=window.size))))
        for row, mask in zip(counts, rows):  # one by one, since reduceat casts its whole input
            row[streams] += np.add.reduceat(mask, starts, dtype=np.int32)
    (A, Q, asleep), I, Z, floor_sigma = counts, engine.I, engine.Z, engine.floor_sigma
    Phi_tilde = None if aux_seeds is None else _outflux(floor_sigma, I, Q + asleep)
    Phi, S = _outflux(floor_sigma, I, Z), -M + floor_sigma + I
    return SingleLoopResult(Phi=Phi, S=S, I=I, A=A, Q=Q, J=A + Q - Z, Phi_tilde=Phi_tilde)


def _fresh_uniforms(aux_words: np.ndarray, V: int, n: int):
    """The uniforms of every trial, trial t's being default_rng(aux seed
    t).random((V, n)), bit for bit, for the seed words of `_aux_seeds`, one
    after another: value s*n + i - 1 is house i of stream s = t*V + x, the
    engine's flat house order.  Yields them in windows (a, values) of at
    most _SCAN_SLICE values, each in the buffer of the last: values[e] is
    value a + e.  Every trial is seeded in one pass (`_pcg64_states`), and
    one PCG64 draws every window with numpy's own uniform fill: it goes on
    with a trial begun in the window before, and is set to each new trial's
    state where that trial starts; consecutive fills give the bits of one."""
    m, total = V * n, len(aux_words) * V * n  # values per trial, and in all
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).random
    states = _pcg64_states(aux_words)
    buf = np.empty(min(total, _SCAN_SLICE))
    for a in range(0, total, _SCAN_SLICE):
        window = buf[: min(total - a, _SCAN_SLICE)]
        head = -a % m  # values left of the trial begun before the window
        draw(out=window[:head])
        t, rest = (a + head) // m, window[head:]
        whole = rest.size // m
        for state, row in zip(states[t : t + whole], rest[: whole * m].reshape(whole, m)):
            bits.state = state
            draw(out=row)
        if rest.size > whole * m:  # a trial that goes on in the next window
            bits.state = states[t + whole]
            draw(out=rest[whole * m :])
        yield a, window


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of values[k] (uint32 rows) with the k-th of the
    successive hash constants `consts`, which holds one more constant than
    there are rows: the constant after the last hash."""
    mixed = values ^ consts[:-1, None]
    mixed *= consts[1:, None]
    return mixed ^ (mixed >> 16)


def _pcg64_states(aux_words: np.ndarray) -> list[dict]:
    """The PCG64 state default_rng starts from, as a `PCG64.state` dict,
    for each row of seed words.  numpy's SeedSequence hashes the four words
    into a four-word pool, mixes the pool, and draws eight words from it:
    the PCG64 seed (initstate, initseq).  Here that runs for every row at
    once on uint32 arrays, whose products wrap mod 2^32 as SeedSequence's
    do, with the hash constants, which no seed changes, computed once
    (`_HASH_A`, `_HASH_B`); each mixing step hashes one pool word into the
    three others in one array op.  PCG64 then steps its LCG twice from
    state 0, adding initstate between the steps; that last part is
    Python-int arithmetic mod 2^128 per row.  numpy's own SeedSequence,
    built per trial, is no cheaper than the default_rng this replaces, so
    the hash is repeated here on arrays."""
    pool = _hashmix(aux_words.T, _HASH_A[:5])
    for i in range(4):
        others = [j for j in range(4) if j != i]
        mixed = pool[others] * _SEED_MIX_L - _hashmix(pool[i : i + 1], _HASH_A[4 + 3 * i : 8 + 3 * i]) * _SEED_MIX_R
        pool[others] = mixed ^ (mixed >> 16)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B)
    seed = out[1::2].T.astype(np.uint64) << 32 | out[0::2].T
    states = []
    for w0, w1, w2, w3 in seed.tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def single_loop_trials(params: ModelParams, n: int, seeds, M, aux_seeds=None) -> SingleLoopResult:
    """single_loop at one odometer M over T independent trials.

    Trial t reads the stacks of StackSource(params, n, seeds[t]), and row t
    of every (T, V) field of the result equals that field of single_loop on
    that source.  With `aux_seeds`, row t of Phi_tilde equals
    single_loop_tilde(params, n, src, M, aux_seeds[t]).  The trials run in
    chunks of about _TRIAL_HOUSES houses, each chunk as the streams of one
    engine, so memory stays bounded.
    """
    n = _check_count(n, "n")
    M = _check_odometer(M, params.num_villages)
    seeds = _seed_words(seeds)
    T, V = seeds.size, params.num_villages
    if T < 1:
        raise ValidationError("seeds must hold at least one seed")
    aux_seeds = None if aux_seeds is None else _aux_seeds(aux_seeds, T)
    per = _trials_per_chunk(V, n)
    parts = []
    for lo in range(0, T, per):
        chunk = seeds[lo : lo + per]
        aux = None if aux_seeds is None else aux_seeds[lo : lo + per]
        parts.append(_evaluate(params, n, StackSource(params, n, chunk), np.tile(M, chunk.size), aux))
    fields = (k for k, v in vars(parts[0]).items() if v is not None)
    return SingleLoopResult(**{k: np.concatenate([getattr(p, k) for p in parts]).reshape(T, V) for k in fields})


def _trials_per_chunk(V: int, n: int) -> int:
    """Trials per engine in batched calls: _TRIAL_HOUSES houses, at least one."""
    return max(1, _TRIAL_HOUSES // (V * n))
