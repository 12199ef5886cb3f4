"""Deterministic next-event engine for MSHR contention and quantum scheduling.

Threads generate memory requests against their processor's finite MSHR pool.
A request occupies one MSHR for exactly ``memory_latency`` cycles; a full
pool stalls any thread that still wants to issue.  At every quantum boundary
the per-thread occupancy counters (averaged over the final ``window_cycles``
of the quantum) are sampled and handed to a scheduling policy, which picks
the next quantum's placement.

The model is defined cycle by cycle.  Each cycle applies, in this order:

1. retire every in-flight request whose completion cycle is now;
2. issue new requests: each processor's slots are visited in rotating
   round-robin order (start slot = cycle mod L) granting one MSHR per visit,
   looping until every resident thread reached its demand or the pool is
   exhausted; a thread left wanting with an exhausted pool accrues one stall
   cycle;
3. add each thread's end-of-cycle outstanding count to its occupancy
   accumulators;
4. advance phase clocks and the cycle counter.

The engine does not step every cycle (next-event time advance; Law and
Kelton, *Simulation Modeling and Analysis*, ch. 1), and at an event it
steps only the processors the event touches, and it skips whole repeats of
a processor that settled into a cycle.  Four rules keep the result equal to
stepping every processor on every cycle.

*Occupancy is read, not accumulated.*  A request issued at cycle i is
outstanding at the end of cycles i .. i + latency - 1, so by cycle C it has
added min(latency, C - i) = latency - (completion - C) to its thread's and
its pool's integral, or exactly latency once retired.  An owner's integral
over cycles [0, C) is therefore latency x (requests retired + requests in
flight) - the sum of (completion - C) over its in-flight requests.  The
engine reads it from the in-flight groups at the two cycles that need it, the
ends of a quantum's two spans: the window start and the quantum boundary
(the windowed sum a quantum samples is the growth in between).  Both reads
count only the quantum's own retires, an offset the growth cancels.  The
whole-run integrals, the threads' and the pools', are read once, at the end.

*Events.*  Retire and issue run only at event cycles, the earliest of: an
in-flight group's completion, some thread's cap change (a step end, or a
migrated thread's unfreeze), the window start and the quantum boundary.  A
step is a run of consecutive phases of one demand, so a phase end that
keeps the demand is no event, except at the end of a repeating thread's lap
and at the end of the last phase of a thread that does not repeat.  A
constant thread, one whose repeating phases all share one demand, keeps it
for the whole run, so none of its phase ends is an event; idle padding
threads and the config's ``demands`` shorthand are such threads.  Between
two events nothing touches any processor (next rule), so the skipped
cycles change no count but the stalls, which are added in bulk.

*Touched processors.*  A processor's issue round ends with its pool full or
with every resident at its cap: its demand, or 0 while frozen after a
migration.  Until one of these happens, a later round would grant nothing
and leave the same threads wanting, whatever its start slot:

* its pool retires a request (an MSHR frees);
* a resident's outstanding count falls because a request it issued on its
  old pool before a migration retires (only groups issued before the
  quantum start, so completing in its first ``latency`` cycles, can hold
  one);
* a resident's cap may change, at a step end or at an unfreeze;
* the placement changes, at the quantum start.

Residents' outstanding counts rise only by this processor's own grants, so
nothing else changes its round.  At an event the engine steps exactly the
processors one of these touched, in any order (a round changes only its
own pool and its residents' counts), and leaves the rest as they were.  Stalls are added
lazily: each processor keeps the threads its last round left wanting at a
full pool and the cycle of that round, and those threads gain the cycles up
to its next round or the quantum boundary, whichever is first.

*Periodic fast-forward.*  Let P = L x latency, and let a processor's
horizon be the earlier of its residents' next cap change (a step end, or
the unfreeze of a frozen resident) and the quantum boundary.  Once the
quantum's first ``latency`` cycles are over, its pool holds only its
residents' requests, so until the horizon only its own retires touch it
(previous rule), and its rounds depend on nothing but its in-flight groups
and the start slot: the residents' outstanding counts are their requests in
those groups, and the threads a round leaves wanting follow from those
counts and the fixed caps.  After such a round at cycle c, with the horizon
more than 2P away, the engine records the groups (as completion - c) and the
counters the processor drives: its residents' completed and stalls and its
pool's issued requests.  If its round at c + P finds the same groups, every
later period before the horizon repeats that one exactly, since the start
slot repeats too (P is a multiple of L).  The engine then jumps ``times``
>= 1 periods at once, to the last period end strictly before the horizon
and before the end of the current span.  A quantum runs as two spans, up to
the window start and up to the boundary, and each span end is where the
engine reads every thread's true occupancy.  A jump adds ``times`` copies of
each counter's growth over the period and moves the processor's groups and
the cycle of its last round ``times`` x P later.  It lands on the recorded
state, so the record stands while the horizon is more than 2P away: a jump
the window start stopped goes on one period after it.

Everything is integer arithmetic over plain lists, so a run is bitwise
deterministic in (config, workloads, policy, seed, total_quanta).  The
cycle-by-cycle engine this one replaced is kept as the test oracle in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from itertools import chain, groupby
from itertools import cycle as cycled
from operator import attrgetter
from typing import Callable, Sequence

from .core import (
    MlpVector,
    Schedule,
    ScheduleQuality,
    SystemConfig,
    Value,
    processor_load,
)
from .policies import Policy, next_schedule, quantum_seed
from .workload import ThreadWorkload, pad_workloads

__all__ = [
    "QuantumRecord",
    "SimulationReport",
    "SimulationTotals",
    "initial_schedule",
    "run_simulation",
]


def initial_schedule(config: SystemConfig) -> Schedule:
    """Row-major start: thread i on processor i mod K, slot i div K."""
    k = config.num_processors
    return Schedule(tuple((i % k, i // k) for i in range(config.num_threads)))


class QuantumRecord(Value):
    """One quantum of history.

    ``schedule`` is the placement that was active during the quantum;
    ``chosen`` is the policy's answer to the counters sampled at its end
    (it becomes the next quantum's ``schedule``), and ``quality`` scores
    ``chosen`` against those counters.
    """

    index: int
    sampled_mlp: MlpVector
    schedule: Schedule
    chosen: Schedule
    quality: ScheduleQuality
    completed: tuple[int, ...]
    stalls: tuple[int, ...]


class SimulationTotals(Value):
    completed_per_thread: tuple[int, ...]
    completed: int
    stall_cycles_per_thread: tuple[int, ...]
    stall_cycles: int
    occupancy_integral: tuple[int, ...]          # per thread, whole run
    mean_processor_occupancy: tuple[float, ...]
    cycles: int
    throughput: float


class SimulationReport(Value):
    config: SystemConfig
    policy: Policy
    seed: int
    per_quantum: tuple[QuantumRecord, ...]
    totals: SimulationTotals


def _occupancy(now, latency, retired, cap, short, groups) -> list[int]:
    """Each thread's occupancy integral over cycles [0, now), less ``latency``
    per request it retired before ``retired`` began counting.

    A thread's requests issued before ``now`` are those retired and those
    still in flight, ``cap - short`` of them; each in-flight request still
    lacks ``completion - now`` of its ``latency``.  Two reads whose
    ``retired`` began at the same cycle differ by exactly the integral
    between them.
    """
    occ = [latency * (r + c - s) for r, c, s in zip(retired, cap, short)]
    for completion, _, threads in groups:
        ahead = completion - now
        for t in threads:
            occ[t] -= ahead
    return occ


def run_simulation(
    config: SystemConfig,
    workloads: Sequence[ThreadWorkload],
    policy: Policy | str,
    seed: int = 0,
    total_quanta: int = 1,
    observer: Callable[[QuantumRecord], object] | None = None,
) -> SimulationReport:
    """Drive the feedback loop: simulate a quantum, sample counters, reschedule.

    ``workloads`` may list fewer than K*L threads; ``pad_workloads`` checks
    them and fills the remaining slots with idle threads.  The first quantum
    starts from the row-major placement.  At each boundary the sampled
    counters feed the policy (the random policy draws with
    ``quantum_seed(seed, q)``); threads whose processor changed are frozen
    for ``migration_penalty`` cycles while their in-flight requests drain on
    the old pool.  The report is deterministic in every argument.

    ``observer``, if given, is called once per quantum, in order, with the
    quantum's record as soon as it is built, before the next quantum runs.
    The record is the one the report will hold, so the observer must not
    mutate it; an exception it raises propagates out of the run.
    """
    policy = Policy(policy)
    if total_quanta < 1:
        raise ValueError(f"total_quanta must be >= 1, got {total_quanta}")
    workloads = pad_workloads(workloads, config)
    n = config.num_threads

    k = config.num_processors
    l = config.slots_per_processor
    mshrs = config.mshrs_per_processor
    latency = config.memory_latency
    q_len = config.quantum_cycles
    window = config.window_cycles
    penalty = config.migration_penalty

    # In-flight requests as (completion, processor, threads) groups, one per
    # processor and issue cycle, listing one thread id per request.  All
    # pools share one latency, so issue order is completion order and one
    # FIFO serves every pool.  A migrated thread's in-flight requests keep
    # the old pool's MSHRs until they retire.  Groups a fast-forward moved
    # later wait in ``parked``, sorted by completion, and join the FIFO's
    # head when they come due.
    inflight = deque()
    parked = []
    used = [0] * k  # MSHRs held, per pool
    pool_issued = [0] * k  # requests ever issued, per pool
    owners = [[-1] * l for _ in range(k)]  # [processor][slot] -> thread
    # Each thread's phases as an endless iterator of (duration, demand) steps,
    # consecutive phases of one demand merged into one step: a repeating
    # thread cycles its steps, one that does not repeat ends in an idle step
    # that never ends, and a constant thread (one repeating step) holds its
    # demand forever.
    upcoming = []
    duration_of, demand_of = attrgetter("duration"), attrgetter("demand")
    for w in workloads:
        steps = [
            (sum(map(duration_of, run)), level) for level, run in groupby(w.phases, demand_of)
        ]
        if not w.repeat:
            steps.append((math.inf, 0))
        elif len(steps) == 1:
            steps = [(math.inf, steps[0][1])]
        upcoming.append(cycled(steps))
    next_end, demand = map(list, zip(*map(next, upcoming)))
    frozen = [0] * n  # a migrated thread may not issue before this cycle
    cap = demand[:]  # how many requests a thread may hold: 0 while frozen
    # How many more requests each thread may issue: its cap less its
    # outstanding requests (across both pools during a migration).  A grant
    # takes one and a retire gives one back, a cap change adds the new cap
    # less the old, and a thread whose cap fell below its outstanding
    # requests goes negative.  Outstanding counts are read back as
    # cap - short only where occupancy is read.
    short = cap[:]
    # (cycle, thread) whenever the thread's cap may change, at its next step
    # end or at its unfreeze, kept sorted so the head is the earliest.  A
    # step that never ends is never listed; an unfreeze a later migration
    # overtook is dropped when reached.  The tail sentinel is never reached,
    # so the list is never empty.
    cap_changes = sorted((end, t) for t, end in enumerate(next_end) if end < math.inf)
    cap_changes.append((math.inf, n))
    stalled = [[] for _ in range(k)]  # left wanting at a full pool by the last round
    since = [0] * k  # the cycle of each processor's last round
    period = l * latency

    schedule = initial_schedule(config)
    records: list[QuantumRecord] = []
    cycle = 0
    for q in range(total_quanta):
        where = [p for p, _ in schedule.placement]
        for t, (p, s) in enumerate(schedule.placement):
            owners[p][s] = t
        # Each processor's slot ring twice over: rings[p][s:s + l] visits
        # its slots from start slot s.
        rings = [owned + owned for owned in owners]
        boundary = cycle + q_len
        # Groups completing before this were issued in an earlier quantum,
        # so they may hold a migrated thread's requests.
        drain_end = cycle + latency
        touched = set(range(k))
        # Per thread, this quantum's retired requests and stall cycles.
        completed = [0] * n
        stalls = [0] * n
        # Per processor, the cycle of its last fast-forward check (rule 4)
        # and what that check recorded: (groups, counters), or None.  Checks
        # start after the drain.
        checked = [drain_end - period] * k
        settled = [None] * k
        # Two spans, each ending with an occupancy read: up to the window
        # start, then up to the boundary.
        reads = []
        for span_end in (boundary - window, boundary):
            while cycle < span_end:
                while cap_changes[0][0] == cycle:
                    t = cap_changes.pop(0)[1]
                    if next_end[t] == cycle:
                        duration, demand[t] = next(upcoming[t])
                        next_end[t] = cycle + duration
                        if duration < math.inf:
                            insort(cap_changes, (next_end[t], t))
                    if frozen[t] <= cycle:
                        short[t] += demand[t] - cap[t]
                        cap[t] = demand[t]
                        touched.add(where[t])

                while parked and parked[0][0] == cycle:
                    inflight.appendleft(parked.pop(0))
                while inflight and inflight[0][0] == cycle:
                    _, p, threads = inflight.popleft()
                    used[p] -= len(threads)
                    for t in threads:
                        short[t] += 1
                        completed[t] += 1
                    touched.add(p)
                    if cycle < drain_end:
                        touched.update([where[t] for t in threads])

                start = cycle % l
                completion = cycle + latency
                for p in touched:
                    wanting = stalled[p]
                    if wanting:
                        gap = cycle - since[p]
                        for t in wanting:
                            stalls[t] += gap
                    since[p] = cycle
                    free = mshrs - used[p]
                    # Single-grant rounds over the rotating slot order split a
                    # scarce pool evenly (within one request) among the wanting
                    # threads; what the last round leaves wanting is the stalls.
                    granted = []
                    wanting = rings[p][start:start + l]
                    while True:
                        left = []
                        for t in wanting:
                            want = short[t]
                            if want > 0:
                                if free:
                                    free -= 1
                                    short[t] = want - 1
                                    granted.append(t)
                                    if want > 1:
                                        left.append(t)
                                else:
                                    left.append(t)
                        if not (free and left):
                            break
                        wanting = left
                    stalled[p] = left
                    if granted:
                        inflight.append((completion, p, granted))
                        used[p] += len(granted)
                        pool_issued[p] += len(granted)
                    if cycle - checked[p] < period:
                        continue
                    residents = owners[p]
                    horizon = min(
                        boundary,
                        *[next_end[t] if frozen[t] <= cycle else frozen[t] for t in residents],
                    )
                    # A jump stops short of the horizon and of the span end,
                    # whose read needs every thread's true occupancy.
                    end = horizon if horizon < span_end else span_end
                    record = settled[p] if cycle - checked[p] == period else None
                    if not record and end - cycle <= 2 * period:
                        # No jump can start before the end, so the next check
                        # waits for it.
                        checked[p] = end - period
                        settled[p] = None
                        continue
                    mine = [(c - cycle, g) for c, owner, g in inflight if owner == p]
                    counters = [completed[t] for t in residents] + [stalls[t] for t in residents]
                    counters.append(pool_issued[p])
                    at = cycle
                    times = (end - cycle - 1) // period
                    if times and record and record[0] == mine:
                        counters = [now + times * (now - then) for now, then in zip(counters, record[1])]
                        for t, done, stalled_for in zip(residents, counters, counters[l:]):
                            completed[t] = done
                            stalls[t] = stalled_for
                        pool_issued[p] = counters[-1]
                        at = since[p] = cycle + times * period
                        parked += [(at + ahead, p, g) for ahead, g in mine]
                        parked.sort()
                        kept = [group for group in inflight if group[1] != p]
                        inflight.clear()
                        inflight.extend(kept)
                    checked[p] = at
                    # Keep the record while the check one period on has room
                    # to jump before the horizon; if the window start leaves
                    # it none, the check after that jumps.
                    settled[p] = (mine, counters) if horizon - at > 2 * period else None
                touched.clear()

                next_event = span_end
                if cap_changes[0][0] < next_event:
                    next_event = cap_changes[0][0]
                if inflight and inflight[0][0] < next_event:
                    next_event = inflight[0][0]
                if parked and parked[0][0] < next_event:
                    next_event = parked[0][0]
                cycle = next_event
            reads.append(_occupancy(cycle, latency, completed, cap, short, chain(inflight, parked)))
        window_base, occ = reads

        for p, wanting in enumerate(stalled):
            gap = boundary - since[p]
            for t in wanting:
                stalls[t] += gap
        since = [boundary] * k
        mlp = tuple((a - b) / window for a, b in zip(occ, window_base))
        chosen = next_schedule(policy, mlp, config, schedule, quantum_seed(seed, q))
        records.append(
            QuantumRecord(
                index=q,
                sampled_mlp=mlp,
                schedule=schedule,
                chosen=chosen,
                quality=processor_load(chosen, mlp, config),
                completed=tuple(completed),
                stalls=tuple(stalls),
            )
        )
        if observer is not None:
            observer(records[-1])
        for t, (p, _) in enumerate(chosen.placement):
            if penalty and p != where[t]:
                frozen[t] = boundary + penalty
                short[t] -= cap[t]
                cap[t] = 0
                insort(cap_changes, (frozen[t], t))
        schedule = chosen

    cycles = total_quanta * q_len
    pool_total = [latency * issued for issued in pool_issued]
    for completion, p, threads in chain(inflight, parked):
        pool_total[p] -= (completion - cycles) * len(threads)
    completed = [sum(counts) for counts in zip(*[r.completed for r in records])]
    stalls = [sum(counts) for counts in zip(*[r.stalls for r in records])]
    total_completed = sum(completed)
    totals = SimulationTotals(
        completed_per_thread=tuple(completed),
        completed=total_completed,
        stall_cycles_per_thread=tuple(stalls),
        stall_cycles=sum(stalls),
        occupancy_integral=tuple(
            _occupancy(cycles, latency, completed, cap, short, chain(inflight, parked))
        ),
        mean_processor_occupancy=tuple(pt / cycles for pt in pool_total),
        cycles=cycles,
        throughput=total_completed / cycles,
    )
    return SimulationReport(
        config=config,
        policy=policy,
        seed=seed,
        per_quantum=tuple(records),
        totals=totals,
    )
