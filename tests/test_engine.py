"""Engine: retire/issue ordering, counters, feedback loop.

Tests that step single cycles drive the cycle-by-cycle oracle in
``reference.py``; ``run_simulation`` is checked against that oracle report
for report, and through one-cycle quanta where a table is per cycle.
"""

import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from mlpsched.core import ConfigError, Schedule, SystemConfig, replace
from mlpsched.engine import Start, _quantum, initial_schedule, run_simulation
from mlpsched.policies import Policy, serpentine_schedule
from mlpsched.workload import (
    Phase,
    ThreadWorkload,
    WorkloadSpec,
    generate_synthetic,
    pad_workloads,
)

import reference
from reference import SimState, run_reference, sample_mlp, step_cycle


def constant(demand):
    return (Phase(1 << 30, demand),)


def machine(**kw):
    base = dict(
        num_processors=1,
        slots_per_processor=1,
        mshrs_per_processor=16,
        memory_latency=100,
        quantum_cycles=1000,
        window_cycles=1000,
    )
    base.update(kw)
    return SystemConfig(**base)


def test_initial_schedule_is_row_major():
    cfg = machine(num_processors=3, slots_per_processor=2)
    assert initial_schedule(cfg).placement == (
        (0, 0),
        (1, 0),
        (2, 0),
        (0, 1),
        (1, 1),
        (2, 1),
    )


def test_single_thread_steady_state():
    """d=4, latency 100: 4 issued at cycle 0, retired and reissued every
    100 cycles; 36 retired within 1000 cycles and 4 still in flight, so the
    occupancy integral decomposes as 100*36 + 4*100 = 4000."""
    cfg = machine(quantum_cycles=250, window_cycles=250)
    rep = run_simulation(cfg, (ThreadWorkload(0, constant(4)),), "static", 0, 4)
    assert rep.totals.completed == 36
    assert rep.totals.occupancy_integral == (4000,)
    assert [r.sampled_mlp for r in rep.per_quantum] == [(4.0,)] * 4
    assert rep.totals.stall_cycles == 0
    assert rep.totals.throughput == 36 / 1000


def test_idle_thread_does_nothing():
    cfg = machine()
    rep = run_simulation(cfg, (ThreadWorkload(0, constant(0)),), "static", 0, 2)
    assert rep.totals.completed == 0
    assert rep.totals.stall_cycles == 0
    assert rep.totals.occupancy_integral == (0,)
    assert all(r.sampled_mlp == (0.0,) for r in rep.per_quantum)


def test_two_heavy_threads_split_the_pool_evenly():
    # two d=12 threads against 16 MSHRs: single-grant rotation gives 8/8
    # at every cycle, so every window samples exactly 8.0 each
    cfg = machine(slots_per_processor=2, quantum_cycles=500, window_cycles=500)
    workloads = (ThreadWorkload(0, constant(12)), ThreadWorkload(1, constant(12)))
    rep = run_simulation(cfg, workloads, "static", 0, 10)
    assert {r.sampled_mlp for r in rep.per_quantum} == {(8.0, 8.0)}
    state = SimState.initial(cfg, initial_schedule(cfg), workloads)
    for _ in range(2000):
        step_cycle(state, cfg)
        assert abs(state.outstanding[0] - state.outstanding[1]) <= 1
    # one-cycle quanta and windows sample the end-of-cycle outstanding counts
    per_cycle = replace(cfg, quantum_cycles=1, window_cycles=1)
    rep = run_simulation(per_cycle, workloads, "static", 0, 2000)
    assert all(abs(a - b) <= 1 for a, b in (r.sampled_mlp for r in rep.per_quantum))


def test_rotating_arbitration_hand_table():
    """M=3, latency 3, two d=2 threads: the odd MSHR alternates with the
    start slot, giving outstanding (2,1) for three cycles then (1,2)."""
    cfg = machine(
        slots_per_processor=2,
        mshrs_per_processor=3,
        memory_latency=3,
        quantum_cycles=6,
        window_cycles=6,
    )
    workloads = (ThreadWorkload(0, constant(2)), ThreadWorkload(1, constant(2)))
    state = SimState.initial(cfg, initial_schedule(cfg), workloads)
    expect = [
        ((2, 1), (0, 1)),
        ((2, 1), (0, 2)),
        ((2, 1), (0, 3)),
        ((1, 2), (1, 3)),
        ((1, 2), (2, 3)),
        ((1, 2), (3, 3)),
    ]
    for outstanding, stalls in expect:
        step_cycle(state, cfg)
        assert tuple(state.outstanding) == outstanding
        assert tuple(state.stalls_quantum) == stalls
    # the same table through run_simulation, one cycle per quantum: each
    # record samples that cycle's outstanding counts and its own stalls
    per_cycle = replace(cfg, quantum_cycles=1, window_cycles=1)
    rep = run_simulation(per_cycle, workloads, "static", 0, len(expect))
    previous = (0, 0)
    for record, (outstanding, stalls) in zip(rep.per_quantum, expect):
        assert record.sampled_mlp == tuple(float(o) for o in outstanding)
        assert record.stalls == tuple(b - a for a, b in zip(previous, stalls))
        previous = stalls


def test_stall_accounting_requires_unmet_demand_and_full_pool():
    # T1's single request always survives the fair rotation, so T0 (wanting
    # 16, holding 15) is the thread that stalls; a satisfied thread never does
    cfg = machine(slots_per_processor=2, quantum_cycles=200, window_cycles=200)
    workloads = (ThreadWorkload(0, constant(16)), ThreadWorkload(1, constant(1)))
    rep = run_simulation(cfg, workloads, "static", 0, 1)
    assert rep.totals.stall_cycles_per_thread == (200, 0)
    assert rep.per_quantum[0].sampled_mlp == (15.0, 1.0)


def test_requests_reside_exactly_latency_cycles():
    cfg = machine(memory_latency=7, quantum_cycles=100, window_cycles=100)
    workloads = (ThreadWorkload(0, (Phase(1, 3),), repeat=False),)
    state = SimState.initial(cfg, initial_schedule(cfg), workloads)
    for cycle in range(20):
        step_cycle(state, cfg)
        if cycle < 7:
            assert state.outstanding == [3]  # issued at 0, retire at 7
        else:
            assert state.outstanding == [0]
    assert state.completed_quantum == [3]
    per_cycle = replace(cfg, quantum_cycles=1, window_cycles=1)
    rep = run_simulation(per_cycle, workloads, "static", 0, 20)
    assert [r.sampled_mlp for r in rep.per_quantum] == [(3.0,)] * 7 + [(0.0,)] * 13
    assert [r.completed for r in rep.per_quantum] == [(0,)] * 7 + [(3,)] + [(0,)] * 12


def test_mshr_cap_and_demand_cap_invariants():
    rng = random.Random(81)
    for _ in range(10):
        k = rng.randint(1, 3)
        l = rng.randint(1, 3)
        m = rng.randint(2, 8)
        cfg = machine(
            num_processors=k,
            slots_per_processor=l,
            mshrs_per_processor=m,
            memory_latency=rng.randint(1, 30),
            quantum_cycles=64,
            window_cycles=32,
        )
        demands = [rng.randint(0, m) for _ in range(k * l)]
        workloads = tuple(ThreadWorkload(t, constant(d)) for t, d in enumerate(demands))
        state = SimState.initial(cfg, initial_schedule(cfg), workloads)
        for _ in range(300):
            step_cycle(state, cfg)
            assert all(len(pool) <= m for pool in state.pools)
            for t, d in enumerate(demands):
                assert state.outstanding[t] <= d


def test_phase_change_two_level_mean():
    # 500 cycles idle then 500 cycles at demand 8 averages to 4.0
    cfg = machine()
    workloads = (ThreadWorkload(0, (Phase(500, 0), Phase(500, 8))),)
    rep = run_simulation(cfg, workloads, "static", 0, 1)
    assert rep.per_quantum[0].sampled_mlp == (4.0,)


def test_finite_workload_goes_idle():
    cfg = machine(quantum_cycles=500, window_cycles=100)
    workloads = (ThreadWorkload(0, (Phase(100, 5),), repeat=False),)
    rep = run_simulation(cfg, workloads, "static", 0, 2)
    # demand ends at cycle 100, last retirement by cycle 200; the sampled
    # windows (cycles 400-499 and 900-999) both see an idle thread
    assert all(r.sampled_mlp == (0.0,) for r in rep.per_quantum)
    assert rep.totals.completed == 5 * 100 // 100


def test_sample_mlp_off_boundary_raises():
    cfg = machine(quantum_cycles=10, window_cycles=10)
    workloads = (ThreadWorkload(0, constant(2)),)
    state = SimState.initial(cfg, initial_schedule(cfg), workloads)
    with pytest.raises(RuntimeError, match="boundary"):
        sample_mlp(state, cfg)  # cycle 0
    for _ in range(3):
        step_cycle(state, cfg)
    with pytest.raises(RuntimeError, match="cycle 3"):
        sample_mlp(state, cfg)


def test_sample_mlp_tumbles():
    cfg = machine(quantum_cycles=10, window_cycles=10, memory_latency=5)
    workloads = (ThreadWorkload(0, constant(2)),)
    state = SimState.initial(cfg, initial_schedule(cfg), workloads)
    for _ in range(10):
        step_cycle(state, cfg)
    assert sample_mlp(state, cfg) == (2.0,)
    assert state.occupancy_accum == [0]  # reset, ready for the next window
    for _ in range(10):
        step_cycle(state, cfg)
    assert sample_mlp(state, cfg) == (2.0,)


def test_migrated_thread_drains_on_old_pool():
    """In-flight requests keep their old processor's MSHRs; the demand cap
    counts them, so a migrated thread cannot double-issue."""
    cfg = machine(num_processors=2, memory_latency=40, migration_penalty=20)
    workloads = (ThreadWorkload(0, constant(3)), ThreadWorkload(1, constant(0)))
    state = SimState.initial(cfg, initial_schedule(cfg), workloads)
    for _ in range(10):
        step_cycle(state, cfg)
    assert len(state.pools[0]) == 3 and not state.pools[1]
    # move T0 to processor 1 at cycle 10, frozen through cycle 29
    state.index_schedule(Schedule(((1, 0), (0, 0))))
    state.frozen_until[0] = 30
    while state.cycle < 40:
        step_cycle(state, cfg)
        assert not state.pools[1]  # nothing issued on the new pool yet
        assert state.outstanding[0] == 3  # old requests still held
    step_cycle(state, cfg)  # cycle 40: old batch retires, reissue lands on P1
    assert not state.pools[0]
    assert len(state.pools[1]) == 3
    assert state.completed_quantum[0] == 3


def test_migration_freeze_shows_in_next_sample():
    # round_robin moves T0 across processors at cycle 50; with penalty 20
    # it idles 20 cycles, then runs 30, so the next window averages 2.4
    cfg = machine(
        num_processors=2,
        memory_latency=10,
        quantum_cycles=50,
        window_cycles=50,
        migration_penalty=20,
    )
    workloads = (ThreadWorkload(0, constant(4)), ThreadWorkload(1, constant(0)))
    rep = run_simulation(cfg, workloads, "round_robin", 0, 2)
    assert rep.per_quantum[0].sampled_mlp == (4.0, 0.0)
    assert rep.per_quantum[1].sampled_mlp == (2.4, 0.0)
    assert rep.per_quantum[1].schedule.placement == ((1, 0), (0, 0))


def test_no_freeze_on_slot_change_within_processor():
    # serpentine may reshuffle slots; staying on the same processor must
    # not trigger the migration penalty
    cfg = machine(
        slots_per_processor=2,
        memory_latency=10,
        quantum_cycles=100,
        window_cycles=100,
        migration_penalty=50,
    )
    workloads = (ThreadWorkload(0, constant(2)), ThreadWorkload(1, constant(4)))
    rep = run_simulation(cfg, workloads, "serpentine", 0, 3)
    # T1 outranks T0, so serpentine swaps their slots on the single processor
    assert rep.per_quantum[0].chosen.placement == ((0, 1), (0, 0))
    assert all(r.sampled_mlp == (2.0, 4.0) for r in rep.per_quantum)


def test_schedules_change_only_at_boundaries():
    cfg = machine(num_processors=2, slots_per_processor=2, quantum_cycles=200, window_cycles=50)
    workloads = tuple(ThreadWorkload(t, constant(d)) for t, d in enumerate((5, 1, 3, 2)))
    rep = run_simulation(cfg, workloads, "serpentine", 0, 5)
    assert rep.per_quantum[0].schedule == initial_schedule(cfg)
    for prev, cur in zip(rep.per_quantum, rep.per_quantum[1:]):
        assert cur.schedule == prev.chosen


def test_null_workload_all_zero():
    cfg = machine(num_processors=2, slots_per_processor=2)
    workloads = tuple(ThreadWorkload(t, constant(0)) for t in range(4))
    rep = run_simulation(cfg, workloads, "serpentine", 0, 3)
    assert rep.totals.completed == 0
    assert rep.totals.stall_cycles == 0
    assert all(r.sampled_mlp == (0.0, 0.0, 0.0, 0.0) for r in rep.per_quantum)
    assert rep.per_quantum[0].chosen == serpentine_schedule((0.0,) * 4, cfg)


def test_conservation_exact_on_drained_manual_run():
    rng = random.Random(82)
    for _ in range(8):
        k = rng.randint(1, 3)
        l = rng.randint(1, 3)
        latency = rng.randint(1, 40)
        cfg = machine(
            num_processors=k,
            slots_per_processor=l,
            mshrs_per_processor=rng.randint(4, 16),
            memory_latency=latency,
            quantum_cycles=1000,
            window_cycles=100,
        )
        workloads = tuple(
            ThreadWorkload(
                t,
                tuple(
                    Phase(rng.randint(1, 100), rng.randint(0, 4))
                    for _ in range(rng.randint(1, 3))
                ),
                repeat=False,
            )
            for t in range(k * l)
        )
        state = SimState.initial(cfg, initial_schedule(cfg), workloads)
        for _ in range(400):  # phases span <= 300 cycles, latency <= 40
            step_cycle(state, cfg)
        assert state.outstanding == [0] * (k * l)  # fully drained
        for t in range(k * l):
            assert state.occupancy_total[t] == latency * state.completed_quantum[t]


def test_conservation_survives_migrations():
    # round_robin with a penalty forces freezes and old-pool drains; the
    # occupancy integral still equals latency * completed exactly
    cfg = machine(
        num_processors=2,
        slots_per_processor=2,
        memory_latency=30,
        quantum_cycles=150,
        window_cycles=50,
        migration_penalty=20,
    )
    rng = random.Random(83)
    workloads = tuple(
        ThreadWorkload(t, (Phase(rng.randint(50, 200), rng.randint(1, 6)),), repeat=False)
        for t in range(4)
    )
    rep = run_simulation(cfg, workloads, "round_robin", 0, 4)
    for t in range(4):
        assert rep.totals.occupancy_integral[t] == 30 * rep.totals.completed_per_thread[t]


def test_totals_match_per_quantum_records():
    cfg = machine(num_processors=2, slots_per_processor=2, quantum_cycles=300, window_cycles=100)
    workloads = tuple(ThreadWorkload(t, constant(d)) for t, d in enumerate((7, 2, 5, 0)))
    rep = run_simulation(cfg, workloads, "serpentine", 0, 6)
    n = cfg.num_threads
    for t in range(n):
        assert rep.totals.completed_per_thread[t] == sum(r.completed[t] for r in rep.per_quantum)
        assert rep.totals.stall_cycles_per_thread[t] == sum(r.stalls[t] for r in rep.per_quantum)
    assert rep.totals.completed == sum(rep.totals.completed_per_thread)
    assert rep.totals.stall_cycles == sum(rep.totals.stall_cycles_per_thread)
    assert rep.totals.cycles == 6 * 300
    assert rep.totals.throughput == rep.totals.completed / rep.totals.cycles


def test_run_is_deterministic():
    cfg = machine(num_processors=2, slots_per_processor=2, quantum_cycles=200, window_cycles=50)
    workloads = tuple(ThreadWorkload(t, constant(t + 1)) for t in range(4))
    a = run_simulation(cfg, workloads, Policy.RANDOM, seed=11, total_quanta=5)
    b = run_simulation(cfg, workloads, Policy.RANDOM, seed=11, total_quanta=5)
    assert a == b
    c = run_simulation(cfg, workloads, Policy.RANDOM, seed=12, total_quanta=5)
    assert [r.chosen for r in a.per_quantum] != [r.chosen for r in c.per_quantum]


@pytest.mark.parametrize("policy", list(Policy))
def test_observer_sees_every_quantum_record_once_in_order(policy):
    cfg = machine(
        num_processors=2,
        slots_per_processor=2,
        quantum_cycles=200,
        window_cycles=50,
        migration_penalty=30,
    )
    workloads = tuple(
        ThreadWorkload(t, (Phase(90 + 40 * t, 2 * t + 1), Phase(150, 7 - t))) for t in range(4)
    )
    seen = []
    observed = run_simulation(cfg, workloads, policy, 5, 7, seen.append)
    assert observed == run_simulation(cfg, workloads, policy, 5, 7)
    assert tuple(seen) == observed.per_quantum
    assert [rec.index for rec in seen] == list(range(7))


def test_observer_exception_ends_the_run():
    cfg = machine(quantum_cycles=200, window_cycles=50)
    seen = []

    def observer(rec):
        seen.append(rec.index)
        if rec.index == 2:
            raise KeyError("stop")

    with pytest.raises(KeyError, match="stop"):
        run_simulation(cfg, (ThreadWorkload(0, constant(3)),), "serpentine", 0, 5, observer)
    assert seen == [0, 1, 2]


def test_run_pads_too_few_threads():
    cfg = machine(num_processors=2, quantum_cycles=300, window_cycles=100)
    workloads = (ThreadWorkload(0, (Phase(40, 3), Phase(70, 1))),)
    padded = pad_workloads(workloads, cfg)
    assert len(padded) == 2
    assert run_simulation(cfg, workloads, "serpentine", 0, 4) == run_simulation(
        cfg, padded, "serpentine", 0, 4
    )


def test_run_rejects_bad_inputs():
    cfg = machine(num_processors=2)
    padded = pad_workloads((ThreadWorkload(0, constant(1)),), cfg)
    too_many = padded + (ThreadWorkload(2, constant(1)),)
    with pytest.raises(ConfigError, match="3 threads but the machine has 2"):
        run_simulation(cfg, too_many, "serpentine")
    with pytest.raises(ValueError):
        run_simulation(cfg, padded, "no_such_policy")
    with pytest.raises(ValueError, match="total_quanta"):
        run_simulation(cfg, padded, "serpentine", 0, 0)
    heavy = (ThreadWorkload(0, constant(17)), ThreadWorkload(1, constant(0)))
    with pytest.raises(ConfigError, match="demand"):
        run_simulation(cfg, heavy, "serpentine")
    swapped = (ThreadWorkload(1, constant(1)), ThreadWorkload(0, constant(1)))
    with pytest.raises(ConfigError, match="position 0 holds thread 1"):
        run_simulation(cfg, swapped, "serpentine")


def test_totals_throughput():
    cfg = machine(quantum_cycles=250, window_cycles=250)
    rep = run_simulation(cfg, (ThreadWorkload(0, constant(4)),), "static", 0, 4)
    assert rep.totals.throughput == 36 / 1000


def random_machine(rng, policy, max_k=3, max_l=3, max_m=8):
    """A small random machine and workload; returns run_simulation's arguments.

    Latencies and penalties are drawn up to a few quanta, windows are often
    the whole quantum, and phases are often non-repeating, so the corpus
    hits every kind of event, and several at once.
    """
    k = rng.randint(1, max_k)
    l = rng.randint(1, max_l)
    m = rng.randint(1, max_m)
    q_len = rng.randint(1, 60)
    cfg = SystemConfig(
        num_processors=k,
        slots_per_processor=l,
        mshrs_per_processor=m,
        memory_latency=rng.randint(1, 3 * q_len),
        quantum_cycles=q_len,
        window_cycles=rng.choice((q_len, rng.randint(1, q_len))),
        migration_penalty=rng.choice((0, rng.randint(1, q_len), rng.randint(q_len + 1, 3 * q_len))),
    )
    workloads = tuple(
        ThreadWorkload(
            t,
            tuple(
                Phase(rng.randint(1, 80), rng.randint(0, m))
                for _ in range(rng.randint(1, 4))
            ),
            repeat=rng.random() < 0.5,
        )
        for t in range(k * l)
    )
    return cfg, workloads, policy, rng.randrange(1 << 64), rng.randint(1, 6)


def migration_kind(report):
    """'0', 'up to Q' or 'over Q' for a run whose policy moved a thread, else None."""
    cfg = report.config
    moved = any(
        r.chosen.placement[t][0] != r.schedule.placement[t][0]
        for r in report.per_quantum[:-1]
        for t in range(cfg.num_threads)
    )
    if not moved:
        return None
    penalty = cfg.migration_penalty
    return "0" if penalty == 0 else "up to Q" if penalty <= cfg.quantum_cycles else "over Q"


def test_matches_cycle_by_cycle_reference_on_random_machines():
    """The next-event engine and the cycle-by-cycle oracle agree report for
    report; the corpus is checked to cover each case that makes events
    coincide or cross a boundary."""
    rng = random.Random(2019)
    seen = dict.fromkeys(
        (
            "migration, penalty 0",
            "migration, penalty up to Q",
            "migration, penalty over Q",
            "non-repeating phases",
            "window = quantum",
            "latency > quantum",
        ),
        0,
    )
    for case in range(420):
        args = random_machine(rng, tuple(Policy)[case % len(Policy)])
        cfg, workloads = args[0], args[1]
        got = run_simulation(*args)
        assert got == run_reference(*args), f"case {case}: {args}"
        kind = migration_kind(got)
        if kind:
            seen[f"migration, penalty {kind}"] += 1
        seen["non-repeating phases"] += any(not w.repeat for w in workloads)
        seen["window = quantum"] += cfg.window_cycles == cfg.quantum_cycles
        seen["latency > quantum"] += cfg.memory_latency > cfg.quantum_cycles
    assert min(seen.values()) >= 20, seen


def test_matches_cycle_by_cycle_reference_on_wider_machines():
    """Up to 8 processors, 4 slots and 16-entry pools, where an event steps
    only the processors it touches: the corpus is checked to cover drains
    that outlive the migration freeze, K >= 4 and latencies over a quantum.
    ``optimal`` is left out, since most of these machines exceed its cap."""
    rng = random.Random(2020)
    policies = [p for p in Policy if p is not Policy.OPTIMAL]
    seen = dict.fromkeys(("migration, 0 < penalty < latency", "K >= 4", "latency > quantum"), 0)
    for case in range(200):
        args = random_machine(rng, policies[case % len(policies)], max_k=8, max_l=4, max_m=16)
        cfg = args[0]
        got = run_simulation(*args)
        assert got == run_reference(*args), f"case {case}: {args}"
        # a thread busy in the sampled window that then migrates, with a
        # freeze shorter than the latency, can still hold old-pool requests
        # when it may issue on its new pool
        busy_migrant = any(
            r.chosen.placement[t][0] != r.schedule.placement[t][0] and r.sampled_mlp[t] > 0
            for r in got.per_quantum[:-1]
            for t in range(cfg.num_threads)
        )
        short_freeze = 0 < cfg.migration_penalty < cfg.memory_latency
        seen["migration, 0 < penalty < latency"] += busy_migrant and short_freeze
        seen["K >= 4"] += cfg.num_processors >= 4
        seen["latency > quantum"] += cfg.memory_latency > cfg.quantum_cycles
    assert min(seen.values()) >= 20, seen


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(Policy)))
def test_occupancy_integrals_conserve_and_bound_in_flight_requests(machine_seed, policy):
    """Every request holds one MSHR for exactly ``memory_latency`` cycles, so
    the threads' integrals sum to the pools' integral, and a thread's
    integral exceeds latency x its retired requests by what its in-flight
    requests (at most one pool's worth) have held so far."""
    cfg, workloads, policy, seed, quanta = random_machine(random.Random(machine_seed), policy)
    totals = run_simulation(cfg, workloads, policy, seed, quanta).totals
    pools = [round(mean * totals.cycles) for mean in totals.mean_processor_occupancy]
    assert sum(totals.occupancy_integral) == sum(pools)
    latency = cfg.memory_latency
    for occ, done in zip(totals.occupancy_integral, totals.completed_per_thread):
        assert 0 <= occ - latency * done <= latency * cfg.mshrs_per_processor


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_matches_cycle_by_cycle_reference_on_contended_4x3(policy):
    """A 4x3 machine with long phases, few events and contended pools."""
    cfg = SystemConfig(
        num_processors=4,
        slots_per_processor=3,
        mshrs_per_processor=12,
        memory_latency=90,
        quantum_cycles=1500,
        window_cycles=400,
        migration_penalty=35,
    )
    spec = WorkloadSpec(phases_per_thread=3, duration_range=(300, 2500), demand_range=(0, 9))
    workloads = generate_synthetic(spec, cfg.num_threads, seed=7)
    args = (cfg, workloads, policy, 5, 6)
    assert run_simulation(*args) == run_reference(*args)


def long_machine(rng, policy, min_k=1, max_k=3):
    """A random machine whose quanta span many L x latency periods.

    Threads are constant (one repeating phase) or hold one to three phases
    of at least two periods each, repeating or not, so processors settle
    into repeats that the engine's fast-forward skips, and the events that
    end a repeat (phase ends, unfreezes, window starts, boundaries) fall at
    every offset within a period.
    """
    k = rng.randint(min_k, max_k)
    l = rng.randint(1, 3)
    m = rng.randint(1, 8)
    latency = rng.randint(1, 9)
    period = l * latency
    q_len = period * rng.randint(6, 24) + rng.randint(0, period)
    cfg = SystemConfig(
        num_processors=k,
        slots_per_processor=l,
        mshrs_per_processor=m,
        memory_latency=latency,
        quantum_cycles=q_len,
        window_cycles=rng.choice((q_len, rng.randint(1, q_len))),
        migration_penalty=rng.choice((0, rng.randint(1, q_len), rng.randint(q_len + 1, 2 * q_len))),
    )

    def thread(t):
        kind = rng.random()
        if kind < 0.3:
            return ThreadWorkload(t, constant(rng.randint(0, m)))
        phases = tuple(
            Phase(rng.randint(2 * period, 2 * q_len), rng.randint(0, m))
            for _ in range(rng.randint(1, 3))
        )
        return ThreadWorkload(t, phases, repeat=kind < 0.8)

    workloads = tuple(thread(t) for t in range(k * l))
    return cfg, workloads, policy, rng.randrange(1 << 64), rng.randint(1, 4)


def test_matches_cycle_by_cycle_reference_on_long_quanta():
    """Quanta of 6 to 24 periods of L x latency, with constant and long
    phases: the fast-forward skips whole periods, and the corpus is checked
    to cover each event that can end a skip and each kind of migration."""
    rng = random.Random(2021)
    seen = dict.fromkeys(
        (
            "migration, penalty 0",
            "migration, penalty up to Q",
            "migration, penalty over Q",
            "constant threads",
            "non-repeating phases",
            "window = quantum",
        ),
        0,
    )
    for case in range(320):
        args = long_machine(rng, tuple(Policy)[case % len(Policy)])
        workloads = args[1]
        got = run_simulation(*args)
        assert got == run_reference(*args), f"case {case}: {args}"
        kind = migration_kind(got)
        if kind:
            seen[f"migration, penalty {kind}"] += 1
        seen["constant threads"] += any(len(w.phases) == 1 and w.repeat for w in workloads)
        seen["non-repeating phases"] += any(not w.repeat for w in workloads)
        seen["window = quantum"] += args[0].window_cycles == args[0].quantum_cycles
    assert min(seen.values()) >= 20, seen


def test_matches_cycle_by_cycle_reference_on_sixteen_processors():
    """K = 16 with long quanta: many processors settle and skip at different
    cycles, and their parked requests retire among the others'."""
    rng = random.Random(2022)
    policies = [p for p in Policy if p is not Policy.OPTIMAL]
    seen = dict.fromkeys(("migration, penalty 0", "migration, penalty > 0", "window < quantum"), 0)
    for case in range(40):
        args = long_machine(rng, policies[case % len(policies)], min_k=16, max_k=16)
        got = run_simulation(*args)
        assert got == run_reference(*args), f"case {case}: {args}"
        kind = migration_kind(got)
        if kind:
            seen["migration, penalty " + ("0" if kind == "0" else "> 0")] += 1
        seen["window < quantum"] += args[0].window_cycles < args[0].quantum_cycles
    assert min(seen.values()) >= 5, seen


def split_phases(rng, workloads, splits):
    """``workloads`` with ``splits`` phases, each of some random thread, cut in
    two consecutive phases of the same demand at a random point."""
    workloads = list(workloads)
    for _ in range(splits):
        cuttable = [
            (t, i)
            for t, w in enumerate(workloads)
            for i, ph in enumerate(w.phases)
            if ph.duration > 1
        ]
        if not cuttable:
            break
        t, i = rng.choice(cuttable)
        w = workloads[t]
        ph = w.phases[i]
        cut = rng.randint(1, ph.duration - 1)
        parts = (Phase(cut, ph.demand), Phase(ph.duration - cut, ph.demand))
        workloads[t] = replace(w, phases=w.phases[:i] + parts + w.phases[i + 1 :])
    return tuple(workloads)


def test_splitting_a_phase_in_two_of_the_same_demand_changes_no_report():
    """A phase end that keeps the demand changes nothing, so cutting phases
    in two leaves the report equal; the corpus is checked to cover both
    kinds of thread, every policy and each kind of migration."""
    rng = random.Random(2023)
    seen = dict.fromkeys(
        (
            "migration, penalty 0",
            "migration, penalty up to Q",
            "migration, penalty over Q",
            "split a repeating thread",
            "split a non-repeating thread",
            "window = quantum",
        ),
        0,
    )
    policies = set()
    for case in range(360):
        policy = tuple(Policy)[case % len(Policy)]
        make = random_machine if case % 2 else long_machine
        cfg, workloads, policy, seed, quanta = make(rng, policy)
        split = split_phases(rng, workloads, rng.randint(1, 4))
        got = run_simulation(cfg, split, policy, seed, quanta)
        assert got == run_simulation(cfg, workloads, policy, seed, quanta), f"case {case}"
        kind = migration_kind(got)
        if kind:
            seen[f"migration, penalty {kind}"] += 1
        changed = [w for w, before in zip(split, workloads) if w != before]
        seen["split a repeating thread"] += any(w.repeat for w in changed)
        seen["split a non-repeating thread"] += any(not w.repeat for w in changed)
        seen["window = quantum"] += cfg.window_cycles == cfg.quantum_cycles
        policies.add(policy)
    assert policies == set(Policy)
    assert min(seen.values()) >= 20, seen


def two_level(rng, workloads, m):
    """``workloads`` with every demand redrawn from two values in 0..m, so
    most phase ends keep the demand."""
    levels = rng.sample(range(m + 1), 2)
    return tuple(
        replace(w, phases=tuple(replace(ph, demand=rng.choice(levels)) for ph in w.phases))
        for w in workloads
    )


def test_matches_cycle_by_cycle_reference_on_two_demand_levels():
    """Demands drawn from two values, so most phase ends keep the demand and
    the engine merges them: the corpus is checked to cover merged phase
    ends, repeating threads whose phases all share one demand, and a
    repeating thread whose last and first phases share one."""
    rng = random.Random(2024)
    seen = dict.fromkeys(
        (
            "phase end keeping the demand",
            "repeating, one demand over several phases",
            "repeating, last demand = first",
            "non-repeating, last demand 0",
        ),
        0,
    )
    for case in range(300):
        make = random_machine if case % 2 else long_machine
        cfg, workloads, policy, seed, quanta = make(rng, tuple(Policy)[case % len(Policy)])
        workloads = two_level(rng, workloads, cfg.mshrs_per_processor)
        args = (cfg, workloads, policy, seed, quanta)
        assert run_simulation(*args) == run_reference(*args), f"case {case}: {args}"
        demands = [[ph.demand for ph in w.phases] for w in workloads]
        seen["phase end keeping the demand"] += any(
            a == b for d in demands for a, b in zip(d, d[1:])
        )
        seen["repeating, one demand over several phases"] += any(
            w.repeat and len(d) > 1 and len(set(d)) == 1 for w, d in zip(workloads, demands)
        )
        seen["repeating, last demand = first"] += any(
            w.repeat and len(set(d)) > 1 and d[0] == d[-1] for w, d in zip(workloads, demands)
        )
        seen["non-repeating, last demand 0"] += any(
            not w.repeat and d[-1] == 0 for w, d in zip(workloads, demands)
        )
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_repeating_phases_of_one_demand_run_as_a_constant_thread(policy):
    """A repeating thread whose phases all share one demand is a constant
    thread: the report equals the cycle-by-cycle reference's, and equals the
    report with that thread given one phase."""
    cfg = SystemConfig(
        num_processors=2,
        slots_per_processor=2,
        mshrs_per_processor=5,
        memory_latency=7,
        quantum_cycles=90,
        window_cycles=40,
        migration_penalty=12,
    )
    same = ThreadWorkload(0, (Phase(13, 3), Phase(29, 3), Phase(8, 3)))
    others = (
        ThreadWorkload(1, (Phase(25, 4), Phase(40, 1))),
        ThreadWorkload(2, (Phase(31, 2), Phase(17, 5), Phase(9, 2))),
        ThreadWorkload(3, (Phase(60, 5), Phase(11, 0)), repeat=False),
    )
    args = (cfg, (same,) + others, policy, 3, 6)
    got = run_simulation(*args)
    assert got == run_reference(*args)
    assert got == run_simulation(cfg, (ThreadWorkload(0, constant(3)),) + others, policy, 3, 6)


def fitted_machine(rng, policy):
    """A random machine whose pools hold their residents' whole demand for
    much of each quantum.

    Pools have room for L times the largest demand, or a little less, so a
    round often leaves every resident at its cap; phases last a few
    latencies or more, so a thread often holds more requests than a lower
    cap it just stepped down to; penalties are 0, below or above the
    quantum.
    """
    k = rng.randint(1, 3)
    l = rng.randint(1, 3)
    top = rng.randint(1, 6)
    latency = rng.randint(1, 12)
    q_len = latency * rng.randint(4, 24) + rng.randint(0, latency)
    cfg = SystemConfig(
        num_processors=k,
        slots_per_processor=l,
        mshrs_per_processor=max(top, l * top - rng.choice((0, 0, 0, rng.randint(1, top)))),
        memory_latency=latency,
        quantum_cycles=q_len,
        window_cycles=rng.choice((q_len, rng.randint(1, q_len))),
        migration_penalty=rng.choice(
            (0, rng.randint(1, q_len // 2), rng.randint(1, q_len), rng.randint(q_len + 1, 2 * q_len))
        ),
    )

    def thread(t):
        if rng.random() < 0.25:
            return ThreadWorkload(t, constant(rng.randint(0, top)))
        phases = tuple(
            Phase(rng.randint(1, 2 * q_len), rng.randint(0, top)) for _ in range(rng.randint(1, 4))
        )
        return ThreadWorkload(t, phases, repeat=rng.random() < 0.7)

    workloads = tuple(thread(t) for t in range(k * l))
    return cfg, workloads, policy, rng.randrange(1 << 64), rng.randint(1, 4)


def fitted_pool_events(monkeypatch, args):
    """Run the cycle-by-cycle reference on ``args`` and name what its fitted
    pools saw: for every cycle after a quantum's first ``latency`` cycles at
    which a pool with a request due before the next event that can touch it
    ends that cycle with every resident at its cap (its demand, or 0 while
    frozen), the name of that event, and "over its cap" where the pool
    would be so except that a resident holds more requests than its cap.
    Returns the reference's report and the set of names."""
    cfg = args[0]
    q_len, latency = cfg.quantum_cycles, cfg.memory_latency
    seen = set()

    def cap_change(state, t, c, was, limit):
        """The first cycle after ``c`` at which thread t's cap may differ from
        ``was``, or a cycle at or past ``limit`` if none comes before it."""
        if state.frozen_until[t] > c:
            return state.frozen_until[t]
        demand = state.demand[t]
        if demand != was:
            return c + 1
        at, index, phases = c + 1 + state.phase_left[t], state.phase_idx[t], state.phases[t]
        while at < limit:
            index += 1
            if index == len(phases):
                if not state.repeat[t]:
                    return at if demand else math.inf
                index = 0
            if phases[index].demand != demand:
                return at
            at += phases[index].duration
        return at

    def watched(state, config):
        c = state.cycle
        demand = state.demand[:]
        step_cycle(state, config)
        start = c - c % q_len
        if c < start + latency:
            return state
        boundary = start + q_len
        window_start = boundary - cfg.window_cycles
        for p, pool in enumerate(state.pools):
            residents = state.slot_owner[p]
            caps = [demand[t] if state.frozen_until[t] <= c else 0 for t in residents]
            held = [state.outstanding[t] for t in residents]
            if not pool or any(h < cap for h, cap in zip(held, caps)):
                continue
            ends = {
                "boundary": boundary,
                "window start": window_start if c < window_start else math.inf,
            }
            for t in residents:
                kind = "unfreeze" if state.frozen_until[t] > c else "step end"
                at = cap_change(state, t, c, demand[t], boundary)
                ends[kind] = min(ends.get(kind, math.inf), at)
            end = min(ends.values())
            if pool[0][0] < end:
                if held != caps:
                    seen.add("over its cap")
                else:
                    seen.update(kind for kind, at in ends.items() if at == end)
        return state

    monkeypatch.setattr(reference, "step_cycle", watched)
    return run_reference(*args), seen


def test_matches_cycle_by_cycle_reference_on_fitted_pools(monkeypatch):
    """Pools that hold their residents' whole demand, where rule 5 moves
    every group straight to the next event that can touch the pool: the
    corpus is checked to cover fitted pools whose next event is each kind
    that can end a jump, pools held over a resident's lowered cap, and
    migrations with and without a freeze."""
    rng = random.Random(2025)
    seen = dict.fromkeys(
        (
            "step end",
            "unfreeze",
            "window start",
            "boundary",
            "over its cap",
            "migration, penalty 0",
            "migration, penalty > 0",
        ),
        0,
    )
    for case in range(400):
        args = fitted_machine(rng, tuple(Policy)[case % len(Policy)])
        want, events = fitted_pool_events(monkeypatch, args)
        assert run_simulation(*args) == want, f"case {case}: {args}"
        for name in events:
            seen[name] += 1
        kind = migration_kind(want)
        if kind:
            seen["migration, penalty " + ("0" if kind == "0" else "> 0")] += 1
    assert min(seen.values()) >= 20, seen


# boundary state


def mutables(value, found):
    """Every list and deque inside ``value``, by id, tuples walked through."""
    if isinstance(value, (list, deque)):
        found.add(id(value))
    if isinstance(value, (list, deque, tuple)):
        for item in value:
            mutables(item, found)
    return found


def as_list(state):
    """A state's fields but its step tuples, which every copy shares."""
    return [getattr(state, name) for name in state.__slots__ if name != "steps"]


def as_value(state):
    """A state's fields as nested tuples."""
    fields = {}
    for name in state.__slots__:
        value = getattr(state, name)
        if name in ("inflight", "parked"):
            value = [(c, p, tuple(ts)) for c, p, ts in value]
        elif isinstance(value, list):
            value = tuple(value)
        fields[name] = value
    return fields


def test_a_copied_boundary_state_runs_on_as_the_uninterrupted_run():
    """For every policy: run q quanta, copy the state, run the rest from the
    copy, and each later quantum's sample and the final state match the
    uninterrupted run's, for every q; so does the original, run on after
    the copy ran.  The two share no mutable list, only the step tuples.
    The corpus is checked to cover copies taken with groups parked by a
    jump and with frozen threads; no copy meets a voided FIFO entry."""
    rng = random.Random(2026)
    seen = dict.fromkeys(("parked", "frozen"), 0)
    for case in range(120):
        draw = random_machine if case % 2 else long_machine
        cfg, workloads, policy, seed, quanta = draw(rng, tuple(Policy)[case % len(Policy)])
        report = run_simulation(cfg, workloads, policy, seed, quanta)
        start = Start(cfg, workloads)
        assert run_simulation(cfg, workloads, policy, seed, quanta, start=start) == report
        samples = [(r.sampled_mlp, r.completed, r.stalls) for r in report.per_quantum]
        chosen = [r.chosen for r in report.per_quantum]
        whole = Start(cfg, workloads)
        for q in range(1, quanta):
            _quantum(whole, chosen[q - 1])
        for done in range(1, quanta + 1):
            state = Start(cfg, workloads)
            for q in range(1, done):
                _quantum(state, chosen[q - 1])
            copy = state.copy()
            assert copy.steps is state.steps
            assert not mutables(as_list(copy), set()) & mutables(as_list(state), set())
            seen["parked"] += bool(state.parked)
            assert all(g[2] is not None for g in itertools.chain(state.inflight, state.parked))
            seen["frozen"] += any(f > state.cycle for f in state.frozen)
            for run in (copy, state):
                rest = []
                for q in range(done, quanta):
                    _quantum(run, chosen[q - 1])
                    rest.append(run.sample)
                assert rest == samples[done:], f"case {case}, copied after {done}"
                assert as_value(run) == as_value(whole), f"case {case}, copied after {done}"
    assert min(seen.values()) >= 10, seen


def test_a_start_for_another_machine_or_other_workloads_is_refused():
    cfg = machine(num_processors=2, slots_per_processor=2, quantum_cycles=500, window_cycles=200)
    workloads = tuple(
        ThreadWorkload(t, (Phase(300 + 100 * t, t + 1), Phase(200, 4 - t))) for t in range(4)
    )
    start = Start(cfg, workloads)
    others = [
        (replace(cfg, memory_latency=50), workloads),
        (cfg, workloads[:3]),
        (cfg, workloads[:3] + (ThreadWorkload(3, constant(2)),)),
    ]
    for other_cfg, other_workloads in others:
        with pytest.raises(ValueError, match="another machine or other workloads"):
            run_simulation(other_cfg, other_workloads, "serpentine", 0, 3, start=start)
    # a state stepped on past quantum 0 is no start, though built for this machine
    stepped = Start(cfg, workloads)
    for _ in range(2):
        _quantum(stepped, stepped.schedule)
    with pytest.raises(ValueError, match="^start is at cycle 1500, not at the end of quantum 0$"):
        run_simulation(cfg, workloads, "serpentine", 0, 3, start=stepped)
    # the same workloads in a list are the same workloads; the start is unchanged by its runs
    want = run_simulation(cfg, workloads, "serpentine", 0, 3)
    assert run_simulation(cfg, list(workloads), "serpentine", 0, 3, start=start) == want
    assert run_simulation(cfg, workloads, "serpentine", 0, 3, start=start) == want
