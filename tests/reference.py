"""Independent reference implementations for cross-checking.

Deliberately constructed differently from the library code (row chunking
instead of rank arithmetic, every partition enumerated instead of a
memoised subset search, one cycle at a time instead of event to event) so
that agreement between the two is evidence, not tautology.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from mlpsched.core import Schedule, SystemConfig, processor_load
from mlpsched.engine import QuantumRecord, SimulationReport, SimulationTotals, initial_schedule
from mlpsched.policies import Policy, next_schedule, quantum_seed
from mlpsched.workload import ThreadWorkload


def boustrophedon_rows(values, k):
    """Serpentine assignment by explicit row manipulation.

    Chunk the descending-sorted thread ids into rows of k, reverse every
    odd row, then column j of row r is the thread on processor j, slot r.
    Returns {thread: (processor, slot)}.
    """
    order = sorted(range(len(values)), key=lambda t: (-values[t], t))
    placement = {}
    for r in range(0, len(order), k):
        row = order[r:r + k]
        if (r // k) % 2:
            row.reverse()
        for j, t in enumerate(row):
            placement[t] = (j, r // k)
    return placement


def min_makespan(values, k, group_size):
    """Exhaustive minimum max-group-sum over partitions into k groups.

    The lowest unplaced id is pinned into the next group, which enumerates
    each unordered partition exactly once; no pruning, no tie-break logic.
    """
    def best(remaining):
        if not remaining:
            return 0.0
        head, rest = remaining[0], remaining[1:]
        out = None
        for others in itertools.combinations(rest, group_size - 1):
            group_sum = values[head] + sum(values[t] for t in others)
            chosen = set(others)
            sub = max(group_sum, best(tuple(t for t in rest if t not in chosen)))
            if out is None or sub < out:
                out = sub
        return out

    return best(tuple(range(len(values))))


def optimal_reference(values, group_size):
    """Brute-force oracle: the least max group sum, then the smallest key.

    Enumerates every canonical partition (each group opens with the lowest
    unplaced id, so each unordered partition appears once), sums each group
    as ``processor_load`` does (0.0 plus the members in ascending id) and
    takes the minimum of (max sum, key).  Returns the key: the tuple of
    sorted per-group id tuples, ordered by smallest id.
    """
    def partitions(remaining):
        if not remaining:
            yield ()
            return
        head, rest = remaining[0], remaining[1:]
        for others in itertools.combinations(rest, group_size - 1):
            chosen = set(others)
            for tail in partitions(tuple(t for t in rest if t not in chosen)):
                yield ((head, *others), *tail)

    def group_sum(group):
        total = 0.0
        for t in group:
            total += values[t]
        return total

    return min(
        partitions(tuple(range(len(values)))),
        key=lambda key: (max(map(group_sum, key)), key),
    )


def max_sum_of(placement, values, k):
    """Largest per-processor sum of a {thread: (processor, slot)} mapping."""
    sums = [0.0] * k
    for t, (p, _) in placement.items():
        sums[p] += values[t]
    return max(sums)


# ---------------------------------------------------------------------------
# Cycle-by-cycle engine: the oracle for the library's next-event engine.
#
# This is the engine exactly as it stood before next-event time advance:
# every cycle retires, issues, accumulates and ticks every phase clock, so
# nothing is skipped and nothing is multiplied.  ``run_reference`` must give
# a report equal to ``mlpsched.run_simulation`` on every input.

@dataclass
class SimState:
    """Mutable engine state; one instance per run, never shared.

    ``pools[p]`` holds (completion_cycle, thread) records in issue order;
    with a fixed memory latency issue order is completion order, so each
    pool is a FIFO.  A migrated thread's in-flight requests stay in the old
    processor's pool (they hold those MSHRs until retirement) while new
    requests allocate on the new processor.
    """

    cycle: int
    schedule: Schedule
    pools: list                        # per processor: (completion_cycle, thread)
    slot_owner: list                   # [processor][slot] -> thread id
    slot_orders: list                  # [start] -> slot visit order
    outstanding: list                  # per thread, across both pools during migration
    demand: list                       # per thread, current phase target
    phases: list                       # per thread, the phase tuple
    repeat: list
    phase_idx: list
    phase_left: list                   # cycles left in the current phase
    frozen_until: list                 # migrated threads may not issue before this cycle
    occupancy_accum: list              # windowed; reset at window start and on sampling
    occupancy_total: list              # whole-run per-thread occupancy integral
    proc_occupancy_total: list         # whole-run per-processor pool occupancy integral
    completed_quantum: list
    stalls_quantum: list

    @classmethod
    def initial(cls, config: SystemConfig, schedule: Schedule, workloads: Sequence[ThreadWorkload]):
        n = config.num_threads
        k = config.num_processors
        l = config.slots_per_processor
        state = cls(
            cycle=0,
            schedule=schedule,
            pools=[deque() for _ in range(k)],
            slot_owner=[[-1] * l for _ in range(k)],
            slot_orders=[tuple((start + i) % l for i in range(l)) for start in range(l)],
            outstanding=[0] * n,
            demand=[w.phases[0].demand for w in workloads],
            phases=[w.phases for w in workloads],
            repeat=[w.repeat for w in workloads],
            phase_idx=[0] * n,
            phase_left=[w.phases[0].duration for w in workloads],
            frozen_until=[0] * n,
            occupancy_accum=[0] * n,
            occupancy_total=[0] * n,
            proc_occupancy_total=[0] * k,
            completed_quantum=[0] * n,
            stalls_quantum=[0] * n,
        )
        state.index_schedule(schedule)
        return state

    def index_schedule(self, schedule: Schedule) -> None:
        for t, (p, s) in enumerate(schedule.placement):
            self.slot_owner[p][s] = t
        self.schedule = schedule


def _advance_phase(state: SimState, t: int) -> None:
    idx = state.phase_idx[t] + 1
    phases = state.phases[t]
    if idx == len(phases):
        if not state.repeat[t]:
            state.demand[t] = 0
            state.phase_left[t] = math.inf  # out of phases: never ends
            return
        idx = 0
    state.phase_idx[t] = idx
    state.demand[t] = phases[idx].demand
    state.phase_left[t] = phases[idx].duration


def step_cycle(state: SimState, config: SystemConfig) -> SimState:
    """Advance the engine by one cycle (retire, issue, accumulate, tick).

    Mutates ``state`` in place and returns it.
    """
    cycle = state.cycle
    outstanding = state.outstanding
    demand = state.demand
    frozen = state.frozen_until
    completed = state.completed_quantum

    for pool in state.pools:
        while pool and pool[0][0] == cycle:
            t = pool.popleft()[1]
            outstanding[t] -= 1
            completed[t] += 1

    mshrs = config.mshrs_per_processor
    slot_order = state.slot_orders[cycle % config.slots_per_processor]
    stalls = state.stalls_quantum
    for p, pool in enumerate(state.pools):
        owners = state.slot_owner[p]
        free = mshrs - len(pool)
        if free:
            completion = cycle + config.memory_latency
            # Single-grant rounds over the rotating slot order split a scarce
            # pool evenly (within one request) among the wanting threads.
            while free:
                granted = False
                for s in slot_order:
                    t = owners[s]
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
            # Pool exhausted: every resident thread still wanting stalls.
            for s in slot_order:
                t = owners[s]
                if outstanding[t] < demand[t] and frozen[t] <= cycle:
                    stalls[t] += 1
        assert len(pool) <= mshrs

    occ = state.occupancy_accum
    occ_total = state.occupancy_total
    left = state.phase_left
    for t in range(len(outstanding)):
        o = outstanding[t]
        occ[t] += o
        occ_total[t] += o
        remaining = left[t] - 1
        if remaining:
            left[t] = remaining
        else:
            _advance_phase(state, t)

    proc_total = state.proc_occupancy_total
    for p, pool in enumerate(state.pools):
        proc_total[p] += len(pool)

    state.cycle = cycle + 1
    return state


def sample_mlp(state: SimState, config: SystemConfig):
    """Windowed mean occupancy per thread, sampled at a quantum boundary.

    The accumulator must cover exactly the final ``window_cycles`` of the
    elapsed quantum (the run loop resets it at the window start); sampling
    resets it again, so windows tumble.  Calling off-boundary is a contract
    violation.
    """
    q = config.quantum_cycles
    if state.cycle == 0 or state.cycle % q:
        raise RuntimeError(
            f"sample_mlp called at cycle {state.cycle}, which is not a quantum boundary"
        )
    window = config.window_cycles
    values = tuple(a / window for a in state.occupancy_accum)
    for t in range(len(state.occupancy_accum)):
        state.occupancy_accum[t] = 0
    return values


def run_reference(config, workloads, policy, seed=0, total_quanta=1) -> SimulationReport:
    """``run_simulation`` driven one ``step_cycle`` at a time."""
    policy = Policy(policy)
    n = config.num_threads
    q_len = config.quantum_cycles
    window = config.window_cycles
    state = SimState.initial(config, initial_schedule(config), workloads)

    records = []
    completed_total = [0] * n
    stalls_total = [0] * n
    for q in range(total_quanta):
        boundary = (q + 1) * q_len
        window_start = boundary - window
        active = state.schedule
        while state.cycle < boundary:
            if state.cycle == window_start:
                for t in range(n):
                    state.occupancy_accum[t] = 0
            step_cycle(state, config)

        mlp = sample_mlp(state, config)
        chosen = next_schedule(policy, mlp, config, active, quantum_seed(seed, q))
        quality = processor_load(chosen, mlp, config)
        completed_q = tuple(state.completed_quantum)
        stalls_q = tuple(state.stalls_quantum)
        records.append(
            QuantumRecord(
                index=q,
                sampled_mlp=mlp,
                schedule=active,
                chosen=chosen,
                quality=quality,
                completed=completed_q,
                stalls=stalls_q,
            )
        )
        for t in range(n):
            completed_total[t] += completed_q[t]
            stalls_total[t] += stalls_q[t]
            state.completed_quantum[t] = 0
            state.stalls_quantum[t] = 0
            if chosen.placement[t][0] != active.placement[t][0]:
                state.frozen_until[t] = boundary + config.migration_penalty
        state.index_schedule(chosen)

    cycles = total_quanta * q_len
    total_completed = sum(completed_total)
    totals = SimulationTotals(
        completed_per_thread=tuple(completed_total),
        completed=total_completed,
        stall_cycles_per_thread=tuple(stalls_total),
        stall_cycles=sum(stalls_total),
        occupancy_integral=tuple(state.occupancy_total),
        mean_processor_occupancy=tuple(pt / cycles for pt in state.proc_occupancy_total),
        cycles=cycles,
        throughput=total_completed / cycles,
    )
    return SimulationReport(
        config=config, policy=policy, seed=seed, per_quantum=tuple(records), totals=totals
    )
