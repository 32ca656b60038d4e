"""Scalar toppling oracle for the round-based stabilizer.

`reference_stabilize` topples one landlord notice at a time from a schedule
of active houses, reading every instruction through the scalar
`src.airplane`/`taxi`/`landlord`, one entry at a time.  By the abelian
property every schedule consumes the same stack prefixes and gives the same
result as `varw.stabilize`; the tests check that on shared stacks.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

import numpy as np

from varw import GRAVEYARD, SLEEP, StepCapError
from varw.model import floor_counts
from varw.simulator import DEFAULT_STEP_CAP, ConsumedCounters, DiscreteConfig, SimResult

SCHEDULES = ("fifo-house-queue", "village-round-robin", "lowest-index-first")


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


def reference_init_config(params, n: int, src) -> DiscreteConfig:
    """Initial configuration, read one scalar taxi ticket at a time: one
    sleeper in each of the first floor(sigma*n) houses, then floor(nu*n)
    immigrants landed by taxi ticket, each waking any sleeper it hits."""
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
    return SimResult(
        M_star=np.array(M_star, dtype=np.int64),
        S_star=final.sleepers_per_village(),
        inflow=np.array(inflow, dtype=np.int64),
        consumed=ConsumedCounters(
            airplane=np.array([j - 1 for j in air_next], dtype=np.int64),
            taxi=np.array([j - 1 for j in taxi_next], dtype=np.int64),
            landlord=np.array(landlord_used, dtype=np.int64),
        ),
        final_config=final,
    )
