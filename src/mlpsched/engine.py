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
Kelton, *Simulation Modeling and Analysis*, ch. 1).  It runs steps 1 and 2
only at event cycles, the earliest of: some pool's head completion, some
thread's phase end, a migrated thread's unfreeze, the window start and the
quantum boundary.  Across the idle cycles up to the next event the result
is the same as stepping them one by one, for these reasons:

* nothing retires, so no outstanding count falls and no MSHR frees;
* no demand changes, no thread unfreezes and the placement is fixed;
* the issue round at the last event ran until each pool was full or every
  eligible resident had reached its demand, so an idle cycle would grant
  nothing, whatever its start slot;
* hence the outstanding counts and pool sizes stay constant, and the
  threads that stall are exactly those that stalled at the last event.

So the event cycle and the D - 1 idle cycles after it add D times each
outstanding count to the thread's occupancy integral, D times each pool's
size to its pool integral, and D to the stall count of each thread left
wanting at a full pool.  The window start is an event: the windowed sum a
quantum samples is the growth of the occupancy integral since then.

Everything is integer arithmetic over plain lists, so a run is bitwise
deterministic in (config, workloads, policy, seed, total_quanta).  The
cycle-by-cycle engine this one replaced is kept as the test oracle in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from operator import add
from typing import Sequence

from .core import (
    ConfigError,
    MlpVector,
    Schedule,
    ScheduleQuality,
    SystemConfig,
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


@dataclass(frozen=True)
class QuantumRecord:
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


@dataclass(frozen=True)
class SimulationTotals:
    completed_per_thread: tuple[int, ...]
    completed: int
    stall_cycles_per_thread: tuple[int, ...]
    stall_cycles: int
    occupancy_integral: tuple[int, ...]          # per thread, whole run
    mean_processor_occupancy: tuple[float, ...]
    cycles: int
    throughput: float


@dataclass(frozen=True)
class SimulationReport:
    config: SystemConfig
    policy: Policy
    seed: int
    per_quantum: tuple[QuantumRecord, ...]
    totals: SimulationTotals


def run_simulation(
    config: SystemConfig,
    workloads: Sequence[ThreadWorkload],
    policy: Policy | str,
    seed: int = 0,
    total_quanta: int = 1,
) -> SimulationReport:
    """Drive the feedback loop: simulate a quantum, sample counters, reschedule.

    The first quantum starts from the row-major placement.  At each boundary
    the sampled counters feed the policy (the random policy draws with
    ``quantum_seed(seed, q)``); threads whose processor changed are frozen
    for ``migration_penalty`` cycles while their in-flight requests drain on
    the old pool.  The report is deterministic in every argument.
    """
    policy = Policy(policy)
    if total_quanta < 1:
        raise ValueError(f"total_quanta must be >= 1, got {total_quanta}")
    n = config.num_threads
    if len(workloads) != n:
        raise ConfigError(
            f"run needs exactly {n} thread workloads (pad_workloads first), got {len(workloads)}"
        )
    # With exactly K*L threads nothing is padded: this only checks the thread
    # ids and every phase demand against the pool.
    pad_workloads(workloads, config)

    k = config.num_processors
    l = config.slots_per_processor
    mshrs = config.mshrs_per_processor
    latency = config.memory_latency
    q_len = config.quantum_cycles
    window = config.window_cycles

    # pools[p] holds (completion_cycle, thread) in issue order; with a fixed
    # latency that is completion order, so each pool is a FIFO.  A migrated
    # thread's in-flight requests keep the old pool's MSHRs until they retire.
    pools = [deque() for _ in range(k)]
    owners = [[-1] * l for _ in range(k)]  # [processor][slot] -> thread
    slot_orders = [tuple((start + i) % l for i in range(l)) for start in range(l)]
    outstanding = [0] * n  # per thread, across both pools during a migration
    phase_tables = [[(ph.duration, ph.demand) for ph in w.phases] for w in workloads]
    repeat = [w.repeat for w in workloads]
    phase_idx = [0] * n
    demand = [table[0][1] for table in phase_tables]
    # (first cycle of the thread's next phase, thread), kept sorted: the head
    # is the earliest phase end, and only a phase end moves it.  A thread
    # that ran out of phases (repeat off) leaves the list; the tail sentinel
    # is never reached, so the list is never empty.
    phase_ends = sorted((table[0][0], t) for t, table in enumerate(phase_tables))
    phase_ends.append((math.inf, n))
    frozen = [0] * n  # a migrated thread may not issue before this cycle
    # Whole-run occupancy integrals.  Each update builds a new list, so a
    # reference taken at the window start is a snapshot of that cycle.
    occ_total = [0] * n
    window_base = occ_total
    proc_total = [0] * k
    completed = [0] * n
    stalls = [0] * n

    schedule = initial_schedule(config)
    records: list[QuantumRecord] = []
    completed_total = [0] * n
    stalls_total = [0] * n
    cycle = 0
    for q in range(total_quanta):
        for t, (p, s) in enumerate(schedule.placement):
            owners[p][s] = t
        boundary = cycle + q_len
        window_start = boundary - window
        # Unfreezes still ahead, latest first; with a penalty above the
        # quantum an earlier boundary's freeze may still be pending.
        unfreezes = sorted({f for f in frozen if f > cycle}, reverse=True)

        while cycle < boundary:
            while phase_ends[0][0] == cycle:
                t = phase_ends.pop(0)[1]
                table = phase_tables[t]
                idx = phase_idx[t] + 1
                if idx == len(table):
                    if not repeat[t]:
                        demand[t] = 0
                        continue
                    idx = 0
                phase_idx[t] = idx
                duration, demand[t] = table[idx]
                insort(phase_ends, (cycle + duration, t))
            if cycle == window_start:
                window_base = occ_total

            next_event = window_start if cycle < window_start else boundary
            if phase_ends[0][0] < next_event:
                next_event = phase_ends[0][0]
            while unfreezes and unfreezes[-1] <= cycle:
                unfreezes.pop()
            if unfreezes and unfreezes[-1] < next_event:
                next_event = unfreezes[-1]

            for pool in pools:
                while pool and pool[0][0] == cycle:
                    t = pool.popleft()[1]
                    outstanding[t] -= 1
                    completed[t] += 1

            slot_order = slot_orders[cycle % l]
            stalled = []
            for p, pool in enumerate(pools):
                owned = owners[p]
                free = mshrs - len(pool)
                if free:
                    completion = cycle + latency
                    # Single-grant rounds over the rotating slot order split a
                    # scarce pool evenly (within one request) among the
                    # wanting threads.
                    while free:
                        granted = False
                        for s in slot_order:
                            t = owned[s]
                            if outstanding[t] < demand[t] and frozen[t] <= cycle:
                                pool.append((completion, t))
                                outstanding[t] += 1
                                free -= 1
                                granted = True
                                if not free:
                                    break
                        if not granted:
                            break
                if not free:
                    # Pool exhausted: every resident thread still wanting
                    # stalls, now and on every idle cycle up to the next event.
                    for s in slot_order:
                        t = owned[s]
                        if outstanding[t] < demand[t] and frozen[t] <= cycle:
                            stalled.append(t)
                assert len(pool) <= mshrs
                if pool and pool[0][0] < next_event:
                    next_event = pool[0][0]

            gap = next_event - cycle
            if gap == 1:
                occ_total = list(map(add, occ_total, outstanding))
                proc_total = list(map(add, proc_total, map(len, pools)))
                for t in stalled:
                    stalls[t] += 1
            else:
                occ_total = [a + o * gap for a, o in zip(occ_total, outstanding)]
                proc_total = [a + len(pool) * gap for a, pool in zip(proc_total, pools)]
                for t in stalled:
                    stalls[t] += gap
            cycle = next_event

        mlp = tuple((a - b) / window for a, b in zip(occ_total, window_base))
        chosen = next_schedule(policy, mlp, config, schedule, quantum_seed(seed, q))
        quality = processor_load(chosen, mlp, config)
        completed_q = tuple(completed)
        stalls_q = tuple(stalls)
        records.append(
            QuantumRecord(
                index=q,
                sampled_mlp=mlp,
                schedule=schedule,
                chosen=chosen,
                quality=quality,
                completed=completed_q,
                stalls=stalls_q,
            )
        )
        for t in range(n):
            completed_total[t] += completed_q[t]
            stalls_total[t] += stalls_q[t]
            completed[t] = 0
            stalls[t] = 0
            if chosen.placement[t][0] != schedule.placement[t][0]:
                frozen[t] = boundary + config.migration_penalty
        schedule = chosen

    cycles = total_quanta * q_len
    total_completed = sum(completed_total)
    totals = SimulationTotals(
        completed_per_thread=tuple(completed_total),
        completed=total_completed,
        stall_cycles_per_thread=tuple(stalls_total),
        stall_cycles=sum(stalls_total),
        occupancy_integral=tuple(occ_total),
        mean_processor_occupancy=tuple(pt / cycles for pt in proc_total),
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
