"""Discrete village dynamics: stabilization and the single-loop evaluator.

Every entry point runs every stream of its stack source: stream s = t*V + x
is village x of trial t, and each per-village result has one entry per
stream (V for a one-seed source).  `single_loop` evaluates the one-pass
odometer map Phi on shared stacks: it routes the arrivals implied by a jump
count per stream through the taxi tickets, finds each visited house's
terminal landlord notice, and reports the resulting outflux, by the one
evaluation `single_loop_tilde` and `single_loop_trials` share.  All entry
points run on one flat engine of dense per-house arrays.

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
from .model import ModelParams, floor_counts
from .model import validate_model  # noqa: F401  patched here by perfbench/traced.py
from .stacks import _MAX_ENTRIES, GRAVEYARD, StackSource, _as_int, _check_count, _seed_words

DEFAULT_STEP_CAP = 10**9
_SCAN_SLICE = 1 << 16  # houses per block of landlord reads
_TRIAL_HOUSES = 1 << 14  # houses per chunk of trials in single_loop_trials and run_lln
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True, eq=False)
class DiscreteConfig:
    """House-level configuration of one village model at fixed n.

    Row s, column i-1 describes house i of stream s (village x of trial t
    for s = t*V + x): its particle count and, when it holds exactly one
    particle, whether that particle is asleep.
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
    """Instructions consumed per stream during one stabilization."""

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
        Phi = _outflux(engine.floor_sigma, *engine.totals())
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

    shape = (src.num_streams, engine.n)
    visited = engine.revealed.reshape(shape) > 0
    terminal = engine.terminal.reshape(shape)
    sleeper = np.arange(engine.n) < engine.floor_sigma[:, None]  # initial sleepers
    counts = np.where(visited, 1 - terminal.astype(np.int64), sleeper.astype(np.int64))
    final = DiscreteConfig(n=engine.n, counts=counts, sleeping=counts == 1)
    S_star, inflow = final.sleepers_per_village(), engine.I.copy()

    if not final.is_stable:
        rows = zip(counts, final.sleeping)
        s = next(s for s, (c, sl) in enumerate(rows) if not DiscreteConfig(engine.n, c[None], sl[None]).is_stable)
        raise AcceptanceCheckError(f"stabilization ended in a non-stable configuration {_failed_at(src, s, V)}")
    balance = engine.floor_sigma + inflow - M
    bad = np.flatnonzero(S_star != balance)
    if bad.size:
        t = int(bad[0]) // V
        raise AcceptanceCheckError(
            f"mass balance violated {_failed_at(src, int(bad[0]), V)}: S*={S_star.reshape(-1, V)[t].tolist()} but "
            f"floor(sigma n)+inflow-M*={balance.reshape(-1, V)[t].tolist()}"
        )
    landlord = engine.revealed.reshape(shape).sum(axis=1)
    consumed = ConsumedCounters(airplane=M.copy(), taxi=inflow.copy(), landlord=landlord)
    return SimResult(M_star=M, S_star=S_star, inflow=inflow, consumed=consumed, final_config=final)


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
    House (s, i) is flat index s*n + i - 1, and it holds an initial sleeper
    exactly when i <= floor_sigma[s].  Per house the engine keeps what the
    next round reads: the landlord notices read (`revealed`; a house is
    visited exactly when it has read one, its terminal notice) and the last
    of them (`terminal`).  Per stream it keeps the airplane tickets read
    (`M`), the taxi tickets read, and the running counts of `totals`, updated
    from the houses each round touches.  Every read is the next unread entry
    of its stack, so advancing through M_1 <= M_2 <= ... reads the same
    prefixes as one evaluation at the last odometer.

    Every entry point builds one, so it is where the caller's model and n
    are checked against the source's.
    """

    def __init__(self, params: ModelParams, n: int, src, step_cap: int | None = None):
        if src.params is not params:
            raise ValidationError("the stack source was built for a different model")
        if src.n != n:
            raise ValidationError(f"the stack source has n={src.n}, but n={n!r} was given")
        n = self.n = src.n
        self.src = src
        self.step_cap = step_cap
        self.floor_sigma = np.tile(floor_counts(params.init_sleepers, n), src.trials)
        self.floor_nu = np.tile(floor_counts(params.init_actives, n), src.trials)
        S = self.floor_sigma.size
        _check_count(S * n, "houses in all streams")
        self.M = np.zeros(S, dtype=np.int64)
        self.I = self.floor_nu.copy()
        self.A = np.zeros(S, dtype=np.int64)
        self.Q = self.floor_sigma.copy()
        self.J = np.zeros(S, dtype=np.int64)
        self.taxi_read = np.zeros(S, dtype=np.int64)
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
        the houses hit this round and how many arrivals each received."""
        S, n, src = self.I.shape[0], self.n, self.src
        streams = np.arange(S)
        dests = src.airplane_range(streams, self.M + 1, M + 1)
        self.M = M
        self.I = self.I + np.bincount(dests - GRAVEYARD, minlength=S + 1)[1:]  # GRAVEYARD lands in bin 0
        houses = src.taxi_range(streams, self.taxi_read + 1, self.I + 1)
        houses += np.repeat(streams * n - 1, self.I - self.taxi_read)  # flat house index
        self.taxi_read = self.I.copy()
        self.tickets = int(M.sum() + self.I.sum() - self.floor_nu.sum())
        return np.unique(houses, return_counts=True)

    def _scan(self, touched: np.ndarray, new_hits: np.ndarray) -> None:
        """Resume the landlord scan of every newly hit house until it has seen
        one JUMP per particle but the last, then read one terminal notice."""
        # Slices of houses keep the per-notice temporaries bounded at large n.
        for lo in range(0, touched.size, _SCAN_SLICE):
            self._scan_slice(touched[lo : lo + _SCAN_SLICE], new_hits[lo : lo + _SCAN_SLICE])

    def _scan_slice(self, touched: np.ndarray, new_hits: np.ndarray) -> None:
        S = self.I.size
        x, i = np.divmod(touched, self.n)
        revealed = self.revealed[touched]
        before = self.terminal[touched]
        # Jumps still owed before the terminal notice.  A house hit before holds
        # a terminal notice, which now becomes an ordinary one; an unvisited
        # house (terminal 0) lets its initial sleeper wake but owes a jump for
        # every other particle.
        need = new_hits - before
        new = (revealed == 0).nonzero()[0]
        new_x = x[new]
        sleeper = i[new] < self.floor_sigma[new_x]
        need[new] += sleeper - 1
        self.A += np.bincount(new_x, minlength=S)
        self.Q -= np.bincount(new_x[sleeper], minlength=S)
        read = self.src.landlord_reader(x, i + 1)
        pos = np.arange(touched.size)
        first = revealed + 1  # next unread notice
        after = before.copy()
        while pos.size:
            # A house owing k JUMPs reads at least k + 1 more notices, and only
            # the last of them can be terminal: read those k + 1 in one block.
            width = need + 1
            draws = read(pos, first, width)
            self.notices += draws.size
            self._check_cap()
            stops = width.cumsum()
            need -= np.add.reduceat(draws, stops - width, dtype=np.int64)
            last = draws[stops - 1]
            # Record each house's last notice read.  A house whose last notice
            # is terminal (it owed no other jump: need + last == 0) is done,
            # and its record stays.
            first += width - 1
            revealed[pos] = first
            after[pos] = last
            more = (need + last).nonzero()[0]
            pos, first, need = pos[more], first[more] + 1, need[more]
        self.revealed[touched] = revealed
        self.terminal[touched] = after
        self.J += np.bincount(x, weights=after.view(np.int8) - before.view(np.int8), minlength=S).astype(np.int64)

    def _check_cap(self) -> None:
        if self.step_cap is not None and self.tickets + self.notices > self.step_cap:
            raise StepCapError(
                f"stabilization exceeded the {self.step_cap} instruction guard; "
                "input is runaway or the kernel is effectively stochastic"
            )

    def totals(self):
        """(I, A, Q, J) per stream: arrivals, visited houses, initial
        sleepers never hit, and terminal JUMP notices."""
        return self.I.copy(), self.A.copy(), self.Q.copy(), self.J.copy()


def _outflux(floor_sigma, I, A, Q, J) -> np.ndarray:
    """Phi: every particle through a visited house leaves it but the last,
    which leaves on a terminal JUMP; unvisited houses send nothing."""
    return floor_sigma - Q + I - A + J


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
    the landlord stacks (see `_resampled_outflux`).  `aux_seed` holds one
    aux seed per trial of the source, each in 0..2^128-1; an integer is the
    aux seed of a one-seed source.  Trial t's draws are those of
    np.random.default_rng(aux_seed[t]), and every trial is seeded in one
    pass.  Returns the outflux vector only.
    """
    M = _check_odometer(M, src.num_streams)
    return _evaluate(params, n, src, M, _aux_seeds(aux_seed, src.trials)).Phi_tilde


def _aux_seeds(aux_seeds, trials: int) -> np.ndarray:
    """One aux seed per trial, in 0..2^128-1, as a (trials, 4) uint32 array
    of its little-endian 32-bit words; an integer is one seed."""
    aux = [_as_int(a, "aux seed") for a in ([aux_seeds] if np.ndim(aux_seeds) == 0 else aux_seeds)]
    if len(aux) != trials:
        raise ValidationError(f"got {len(aux)} aux seeds for {trials} trials")
    if min(aux) < 0:
        raise ValidationError(f"aux seeds must be >= 0, got {min(aux)}")
    if max(aux) > _MASK128:
        raise ValidationError(f"aux seeds must be below 2^128, got {max(aux)}")
    return np.frombuffer(b"".join(a.to_bytes(16, "little") for a in aux), dtype="<u4").reshape(trials, 4)


def _evaluate(params: ModelParams, n: int, src, M: np.ndarray, aux_seeds=None) -> SingleLoopResult:
    """The single-loop map on every stream of `src` at the checked odometer
    M, with Phi_tilde when given the aux seeds of its trials."""
    engine = _LoopEngine(params, n, src)
    engine.advance(M)
    totals = I, A, Q, J = engine.totals()
    Phi_tilde = None if aux_seeds is None else _resampled_outflux(params, engine, totals, aux_seeds)
    Phi = _outflux(engine.floor_sigma, I, A, Q, J)
    return SingleLoopResult(Phi=Phi, S=-M + engine.floor_sigma + I, I=I, A=A, Q=Q, J=J, Phi_tilde=Phi_tilde)


def _resampled_outflux(params: ModelParams, engine: _LoopEngine, totals, aux_words) -> np.ndarray:
    """Outflux per stream of an advanced engine with every visited house's
    terminal notice replaced by a fresh JUMP with probability
    1/(1+lambda_x): per trial, village by village, n uniforms, one per
    house, equal to default_rng(aux_seed).random((V, n)) for the trial's
    aux seed (see `_fresh_uniforms`)."""
    fresh = _fresh_uniforms(aux_words, (params.num_villages, engine.n))
    p_jump = (1.0 / (1.0 + params.sleep_rates))[:, None]
    visited = engine.revealed.reshape(fresh.shape) > 0
    J = np.count_nonzero((fresh < p_jump) & visited, axis=2).ravel()
    I, A, Q, _ = totals
    return _outflux(engine.floor_sigma, I, A, Q, J)


def _fresh_uniforms(aux_words: np.ndarray, shape) -> np.ndarray:
    """Row t is default_rng(aux seed t).random(shape), bit for bit, for the
    seed words of `_aux_seeds`.  Every trial is seeded in one pass
    (`_pcg64_states`), and one PCG64 set to each trial's state in turn
    draws its row with numpy's own uniform fill."""
    fresh = np.empty((len(aux_words), *shape))
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).random
    for state, row in zip(_pcg64_states(aux_words), fresh):
        bits.state = state
        draw(out=row)
    return fresh


def _pcg64_states(aux_words: np.ndarray) -> list[dict]:
    """The PCG64 state default_rng starts from, as a `PCG64.state` dict,
    for each row of seed words.  numpy's SeedSequence hashes the four words
    into a four-word pool, mixes the pool, and draws eight words from it:
    the PCG64 seed (initstate, initseq).  Here that runs for every row at
    once on uint32 arrays, whose products wrap mod 2^32 as SeedSequence's
    do, and with the hash constant a scalar sequence shared by every row.
    PCG64 then steps its LCG twice from state 0, adding initstate between
    the steps; that last part is Python-int arithmetic mod 2^128 per row.
    numpy's own SeedSequence, built per trial, is no cheaper than the
    default_rng this replaces, so the hash is repeated here on arrays."""
    const = _SEED_INIT_A

    def hashmix(value, mult):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    pool = [hashmix(word, _SEED_MULT_A) for word in aux_words.T]
    for i in range(4):
        for j in range(4):
            if i != j:
                mixed = pool[j] * _SEED_MIX_L - hashmix(pool[i], _SEED_MULT_A) * _SEED_MIX_R
                pool[j] = mixed ^ (mixed >> 16)
    const = _SEED_INIT_B
    out = [hashmix(pool[k % 4], _SEED_MULT_B) for k in range(8)]
    seed = np.stack(out[1::2], axis=1).astype(np.uint64) << 32 | np.stack(out[0::2], axis=1)
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
