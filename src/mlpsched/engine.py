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
a processor that settled into a cycle or whose pool holds its residents'
whole demand.  Five rules, numbered in the order below, keep the result
equal to stepping every processor on every cycle.

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
A pool's issued requests are counted at each boundary: within a quantum a
thread issues only on its own pool, so it adds its retires there plus the
growth of its requests in flight.

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
counters the processor drives: its residents' completed and stalls.  If its
round at c + P finds the same groups, every later period before the horizon
repeats that one exactly, since the start slot repeats too (P is a multiple
of L).  The engine then jumps ``times`` >= 1 periods at once, to the last
period end strictly before the horizon and before the end of the current
span.  A quantum runs as two spans, up to the window start and up to the
boundary, and each span end is where the engine reads every thread's true
occupancy.  A jump adds ``times`` copies of each counter's growth over the
period and moves the processor's groups and the cycle of its last round
``times`` x P later.  It lands on the recorded state, so the record stands
while the horizon is more than 2P away: a jump the window start stopped
goes on one period after it.

*Fitted pools.*  Once the quantum's first ``latency`` cycles are over, let
a processor's round leave every resident exactly at its cap: no shortfall
anywhere.  A round that merely leaves nobody wanting is not enough, since a
resident whose cap fell below its outstanding requests wants nothing and
yet takes back none of the MSHRs its retires free.  With all shortfalls 0,
when a group retires the MSHRs it frees cover exactly the requests it held,
and each of those leaves its thread one short, so the next round grants
them all: the group is re-issued whole, one latency on, and every resident
is at its cap again, with nobody wanting.  The drain is over, so the pool
holds only its residents' requests, and nothing else touches the processor
before its horizon (rule 3).  So until the earlier of the horizon and the
span end, call it ``end``, each retire only re-issues its group.  The
engine moves each group completing at c < end to its first completion at
or after ``end``, ceil((end - c) / latency) re-issues later, and credits
its threads with that many retires.  The processor's groups and its
residents' counts then equal stepping's at ``end``.  No record, verifying
period or 2P gap is needed, so this also serves quanta too short for the
fast-forward.  A rule that lets a jump cross step ends a saturated pool
cannot see (proposed in ``ROADMAP.md``) would be rule 6.

*Boundary state.*  A run is a set-up step and then one boundary-to-boundary
step per quantum (``_quantum``) over one explicit state (``Start``), which
holds facts only: its machine, its workloads and the sample of the quantum
that ended at its boundary; the cycle and the last placement; per thread,
its place in its tuple of steps, the current step's end and demand, its
freeze and its requests in flight; per pool, the requests it issued; and
the cap changes and the in-flight groups, each held once, in the FIFO or
among the parked groups.  What the cycle loop keeps current for speed,
each pool's groups and MSHRs held and each thread's cap and shortfall, the
step rebuilds from these facts when its quantum starts, in O(N +
in-flight), and keeps as locals; at the boundary it stores back each
thread's requests in flight.  Built, a ``Start`` is the state at the end
of quantum 0 under the row-major placement, before any policy decides.
Every run on one machine and one list of workloads passes through it, so a
batch simulates it once and each run continues from a copy
(``Start.copy``), a plain copy that shares only the step tuples with it.

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
from operator import attrgetter, itemgetter
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
    "Start",
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


def _occupancy(now, latency, retired, groups) -> list[int]:
    """Each thread's occupancy integral over cycles [0, now), less ``latency``
    per request it retired before ``retired`` began counting.

    A retired request adds its ``latency``.  A request still in flight, in a
    group completing at or after ``now``, adds the ``latency - (completion -
    now)`` cycles it has been in flight; ``groups`` must hold every such
    group, and may hold groups that retired before ``now``, which add
    nothing more.  Two reads whose ``retired`` began at the same cycle
    differ by exactly the integral between them.
    """
    occ = [latency * r for r in retired]
    for completion, _, threads in groups:
        ahead = completion - now
        if ahead >= 0:
            for t in threads:
                occ[t] += latency - ahead
    return occ


def _move_later(held, parked, completions) -> None:
    """Move one pool's in-flight groups, ``held`` in completion order, to
    the given completion cycles, none earlier than its own.

    A group that moves joins ``parked``, kept sorted, as a new entry, and
    its old entry, still queued, is voided (threads None).  So a move does
    one binary-search insert per group and visits no other pool's groups.
    """
    groups = []
    for group, completion in zip(held, completions):
        if completion != group[0]:
            _, p, threads = group
            group[2] = None
            group = [completion, p, threads]
            insort(parked, group)
        groups.append(group)
    held.clear()
    held.extend(sorted(groups))


def _steps(workload: ThreadWorkload) -> tuple:
    """A thread's phases as a tuple of (duration, demand) steps, consecutive
    phases of one demand merged into one step: a repeating thread cycles
    through its steps, one that does not repeat ends in an idle step that
    never ends, and a constant thread (one repeating step) holds its demand
    forever."""
    duration_of = attrgetter("duration")
    steps = [
        (sum(map(duration_of, run)), level)
        for level, run in groupby(workload.phases, attrgetter("demand"))
    ]
    if not workload.repeat:
        steps.append((math.inf, 0))
    elif len(steps) == 1:
        steps = [(math.inf, steps[0][1])]
    return tuple(steps)


class Start:
    """The engine's state at a quantum boundary: everything one quantum
    hands on to the next.

    ``config`` is the machine, ``workloads`` the threads as given, before
    padding, and ``sample`` the (sampled counters, retired requests, stall
    cycles) of the quantum that ended at the boundary.  ``cycle`` is the
    boundary and ``schedule`` the placement of that quantum.  Per thread:
    ``steps``, its step tuple; ``pos``, its place in it; ``next_end`` and
    ``demand``, the current step's end and demand; ``frozen``, the cycle
    before which it may not issue; and ``outstanding``, its requests in
    flight.  Per pool: ``pool_issued``.  And the run's sorted
    ``cap_changes`` and its in-flight groups: the FIFO ``inflight`` and the
    ``parked`` groups, which between them hold each group once.  Nothing
    else is kept: ``_quantum`` rebuilds its views of these when it starts.

    ``Start(config, workloads)`` checks and pads the workloads, builds the
    state at cycle 0 under the row-major placement (the set-up step) and
    runs quantum 0, so it is a batch's shared start: every run on one
    machine and one list of workloads simulates the same set-up and the
    same quantum 0, and only the decision at its end differs.
    ``run_simulation(..., start=start)`` continues from a copy of it, so one
    start serves any number of runs (the step tuples are the only thing
    they share) and is never changed by them.
    """

    __slots__ = (
        "config", "workloads", "sample", "cycle", "schedule", "steps", "pos", "next_end",
        "demand", "frozen", "outstanding", "pool_issued", "cap_changes", "inflight", "parked",
    )

    def __init__(self, config: SystemConfig, workloads: Sequence[ThreadWorkload]) -> None:
        n = config.num_threads
        self.config = config
        self.workloads = tuple(workloads)
        self.cycle = 0
        self.schedule = initial_schedule(config)
        self.steps = steps = tuple(map(_steps, pad_workloads(self.workloads, config)))
        self.pos = [0] * n
        self.next_end, self.demand = map(list, zip(*[own[0] for own in steps]))
        self.frozen = [0] * n  # a migrated thread may not issue before this cycle
        # Requests in flight, per thread, across both pools during a migration.
        self.outstanding = [0] * n
        # Requests ever issued, per pool, counted at each boundary from each
        # thread's retires and the growth of its requests in flight.
        self.pool_issued = [0] * config.num_processors
        # The in-flight groups, queued for retirement or parked by a jump
        # (see ``_quantum``).
        self.inflight = deque()
        self.parked = []
        # (cycle, thread) whenever the thread's cap may change, at its next step
        # end or at its unfreeze, kept sorted so the head is the earliest.  A
        # step that never ends is never listed; an unfreeze a later migration
        # overtook is dropped when reached.  The tail sentinel is never reached,
        # so the list is never empty.
        self.cap_changes = sorted(
            (end, t) for t, end in enumerate(self.next_end) if end < math.inf
        )
        self.cap_changes.append((math.inf, n))
        _quantum(self, self.schedule)

    def copy(self) -> Start:
        """The same state, sharing no mutable list with this one: a plain copy.

        Only the step tuples and the values that cannot change are shared;
        every list is sliced and each in-flight group copied once.  No FIFO
        entry is void at a boundary: a jump voids only entries due before
        the end of its span.
        """
        other = Start.__new__(Start)
        for name in ("config", "workloads", "sample", "cycle", "schedule", "steps"):
            setattr(other, name, getattr(self, name))
        for name in ("pos", "next_end", "demand", "frozen", "outstanding", "pool_issued",
                     "cap_changes"):
            setattr(other, name, getattr(self, name)[:])
        other.inflight = deque([c, p, threads[:]] for c, p, threads in self.inflight)
        other.parked = [[c, p, threads[:]] for c, p, threads in self.parked]
        return other


def _quantum(state: Start, schedule: Schedule) -> None:
    """Run one quantum under ``schedule`` from the boundary ``state`` is at,
    on ``state``'s machine, and leave ``state`` at the next boundary: the
    boundary-to-boundary step.

    Threads whose processor differs from ``state.schedule``'s are frozen
    first, for ``migration_penalty`` cycles.  The step then rebuilds, as
    locals, the views the cycle loop keeps current: each pool's in-flight
    groups and MSHRs held, and each thread's cap and shortfall.  It works
    on those and on locals bound to ``state``'s lists, which it changes in
    place, and stores back what it rebinds, each thread's requests in
    flight and the quantum's ``sample`` included: its sampled counters and
    each thread's retired requests and stall cycles.
    """
    config = state.config
    n = config.num_threads
    k = config.num_processors
    l = config.slots_per_processor
    mshrs = config.mshrs_per_processor
    latency = config.memory_latency
    penalty = config.migration_penalty
    period = l * latency

    cycle = state.cycle
    steps, pos, next_end, demand = state.steps, state.pos, state.next_end, state.demand
    frozen, cap_changes = state.frozen, state.cap_changes
    inflight, parked = state.inflight, state.parked

    where = [p for p, _ in schedule.placement]
    if penalty:
        for t, (was, _) in enumerate(state.schedule.placement):
            if was != where[t]:
                frozen[t] = cycle + penalty
                insort(cap_changes, (frozen[t], t))
    # How many requests each thread may hold: its demand, or 0 while frozen.
    # A step end or unfreeze due at this very cycle is still to come; the
    # cycle loop takes it first and sets the cap anew.
    cap = [d if f <= cycle else 0 for d, f in zip(demand, frozen)]
    # How many more requests each thread may issue: its cap less its
    # outstanding requests (across both pools during a migration).  A grant
    # takes one and a retire gives one back, a cap change adds the new cap
    # less the old, and a thread whose cap fell below its outstanding
    # requests goes negative.  Outstanding counts are read back as
    # cap - short at the boundary.
    short = [c - o for c, o in zip(cap, state.outstanding)]
    # In-flight requests are [completion, processor, threads] groups, one
    # per processor and issue cycle, listing one thread id per request.  A
    # migrated thread's in-flight requests keep the old pool's MSHRs until
    # they retire.  held[p] keeps pool p's latest groups in completion
    # order.  In flight, a pool has at most one group per completion cycle
    # within one latency, each of one MSHR or more, so the last
    # min(M, latency) groups hold them all; readers drop the retired ones
    # at the head.  The same groups queue for retirement: all pools share
    # one latency, so issue order is completion order and one FIFO serves
    # every pool.  Groups a jump moved later wait in ``parked``, sorted by
    # completion, and join the FIFO's head when they come due; the entry a
    # moved group leaves behind has threads None.
    held = [deque(maxlen=min(mshrs, latency)) for _ in range(k)]
    used = [0] * k  # MSHRs held, per pool
    for group in sorted(chain(inflight, parked), key=itemgetter(0)):
        held[group[1]].append(group)
        used[group[1]] += len(group[2])
    owners = [[-1] * l for _ in range(k)]  # [processor][slot] -> thread
    for t, (p, s) in enumerate(schedule.placement):
        owners[p][s] = t
    # Each processor's slot ring twice over: rings[p][s:s + l] visits its
    # slots from start slot s.
    rings = [owned + owned for owned in owners]
    boundary = cycle + config.quantum_cycles
    # Groups completing before this were issued in an earlier quantum, so
    # they may hold a migrated thread's requests.
    drain_end = cycle + latency
    touched = set(range(k))
    stalled = [[] for _ in range(k)]  # left wanting at a full pool by the last round
    since = [cycle] * k  # the cycle of each processor's last round
    # Per thread, this quantum's retired requests and stall cycles.
    completed = [0] * n
    stalls = [0] * n
    # Per processor, the cycle of its last fast-forward check (rule 4) and
    # what that check recorded: (groups, counters), or None.  Checks start
    # after the drain.
    checked = [drain_end - period] * k
    settled = [None] * k
    # Two spans, each ending with an occupancy read: up to the window start,
    # then up to the boundary.
    reads = []
    for span_end in (boundary - config.window_cycles, boundary):
        while cycle < span_end:
            while cap_changes[0][0] == cycle:
                t = cap_changes.pop(0)[1]
                if next_end[t] == cycle:
                    own = steps[t]
                    i = pos[t] = (pos[t] + 1) % len(own)
                    duration, demand[t] = own[i]
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
                if threads is None:
                    continue
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
                    group = [completion, p, granted]
                    inflight.append(group)
                    held[p].append(group)
                    used[p] += len(granted)
                # Rule 5 holds once the drain is over and every resident is
                # at its cap; rule 4 checks once a period.
                if left or cycle < drain_end or any(map(short.__getitem__, owners[p])):
                    if cycle - checked[p] < period:
                        continue
                    fitted = False
                else:
                    fitted = True
                residents = owners[p]
                groups = held[p]
                while groups and groups[0][0] <= cycle:
                    groups.popleft()
                horizon = min(
                    boundary,
                    *[next_end[t] if frozen[t] <= cycle else frozen[t] for t in residents],
                )
                # A jump stops short of the horizon and of the span end, whose
                # read needs every thread's true occupancy.
                end = horizon if horizon < span_end else span_end
                if fitted:
                    # Rule 5: each group is re-issued whole at every retire
                    # before the end.
                    later = []
                    for c, _, threads in groups:
                        if c < end:
                            times = (end - c - 1) // latency + 1
                            for t in threads:
                                completed[t] += times
                            c += times * latency
                        later.append(c)
                    _move_later(groups, parked, later)
                    continue
                record = settled[p] if cycle - checked[p] == period else None
                if not record and end - cycle <= 2 * period:
                    # No jump can start before the end, so the next check
                    # waits for it.
                    checked[p] = end - period
                    settled[p] = None
                    continue
                mine = [(c - cycle, g) for c, _, g in groups]
                counters = [completed[t] for t in residents] + [stalls[t] for t in residents]
                at = cycle
                times = (end - cycle - 1) // period
                if times and record and record[0] == mine:
                    counters = [now + times * (now - then) for now, then in zip(counters, record[1])]
                    for t, done, stalled_for in zip(residents, counters, counters[l:]):
                        completed[t] = done
                        stalls[t] = stalled_for
                    at = since[p] = cycle + times * period
                    _move_later(groups, parked, [at + ahead for ahead, _ in mine])
                checked[p] = at
                # Keep the record while the check one period on has room to
                # jump before the horizon; if the window start leaves it none,
                # the check after that jumps.
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
        reads.append(_occupancy(cycle, latency, completed, chain.from_iterable(held)))
    window_base, occ = reads

    for p, wanting in enumerate(stalled):
        gap = boundary - since[p]
        for t in wanting:
            stalls[t] += gap
    pool_issued, carried = state.pool_issued, state.outstanding
    outstanding = state.outstanding = [c - s for c, s in zip(cap, short)]
    for t, p in enumerate(where):
        pool_issued[p] += completed[t] + outstanding[t] - carried[t]
    state.cycle = boundary
    state.schedule = schedule
    window = config.window_cycles
    mlp = tuple((a - b) / window for a, b in zip(occ, window_base))
    state.sample = mlp, tuple(completed), tuple(stalls)


def run_simulation(
    config: SystemConfig,
    workloads: Sequence[ThreadWorkload],
    policy: Policy | str,
    seed: int = 0,
    total_quanta: int = 1,
    observer: Callable[[QuantumRecord], object] | None = None,
    *,
    start: Start | None = None,
) -> SimulationReport:
    """Drive the feedback loop: simulate a quantum, sample counters, reschedule.

    ``workloads`` may list fewer than K*L threads; ``pad_workloads`` checks
    them and fills the remaining slots with idle threads.  The first quantum
    starts from the row-major placement.  At each boundary the sampled
    counters feed the policy (the random policy draws with
    ``quantum_seed(seed, q)``); threads whose processor changed are frozen
    for ``migration_penalty`` cycles while their in-flight requests drain on
    the old pool.  The report is deterministic in every argument.

    A run always continues from a copy (``start.copy()``) of a ``Start``,
    the state at the end of quantum 0, which it builds itself unless
    ``start`` is given.  A given ``start`` must be built for this ``config``
    and these ``workloads`` and stand at the end of quantum 0, not stepped
    on (a ``ValueError`` otherwise), and the report is the same either way.

    ``observer``, if given, is called once per quantum, in order, with the
    quantum's record as soon as it is built, before the next quantum runs.
    The record is the one the report will hold, so the observer must not
    mutate it; an exception it raises propagates out of the run.  A run
    keeps its state to itself, so the observer may start runs of its own
    (a forked map's children do), and neither run changes the other.
    """
    policy = Policy(policy)
    if total_quanta < 1:
        raise ValueError(f"total_quanta must be >= 1, got {total_quanta}")
    if start is None:
        start = Start(config, workloads)
    elif start.config != config or start.workloads != tuple(workloads):
        raise ValueError("start was built for another machine or other workloads")
    elif start.cycle != config.quantum_cycles:
        raise ValueError(f"start is at cycle {start.cycle}, not at the end of quantum 0")
    state = start.copy()

    records: list[QuantumRecord] = []
    for q in range(total_quanta):
        if q:
            _quantum(state, chosen)
        mlp, completed, stalls = state.sample
        schedule = state.schedule
        chosen = next_schedule(policy, mlp, config, schedule, quantum_seed(seed, q))
        records.append(
            QuantumRecord(
                index=q,
                sampled_mlp=mlp,
                schedule=schedule,
                chosen=chosen,
                quality=processor_load(chosen, mlp, config),
                completed=completed,
                stalls=stalls,
            )
        )
        if observer is not None:
            observer(records[-1])

    latency = config.memory_latency
    cycles = state.cycle
    groups = [*state.inflight, *state.parked]  # at a boundary, exactly those in flight
    pool_total = [latency * issued for issued in state.pool_issued]
    for completion, p, threads in groups:
        if completion > cycles:
            pool_total[p] -= (completion - cycles) * len(threads)
    completed = [sum(counts) for counts in zip(*[r.completed for r in records])]
    stalls = [sum(counts) for counts in zip(*[r.stalls for r in records])]
    total_completed = sum(completed)
    totals = SimulationTotals(
        completed_per_thread=tuple(completed),
        completed=total_completed,
        stall_cycles_per_thread=tuple(stalls),
        stall_cycles=sum(stalls),
        occupancy_integral=tuple(_occupancy(cycles, latency, completed, groups)),
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
