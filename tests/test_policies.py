"""Scheduling policies: serpentine, baselines, exhaustive oracle."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference
from mlpsched.core import Schedule, SystemConfig, processor_load, validate_schedule
from mlpsched.policies import (
    Policy,
    naive_sorted_schedule,
    next_schedule,
    optimal_partition,
    quantum_seed,
    random_schedule,
    round_robin_schedule,
    serpentine_schedule,
    static_schedule,
)


def cfg(k, l, m=16):
    return SystemConfig(num_processors=k, slots_per_processor=l, mshrs_per_processor=m)


# every machine shape the exhaustive oracle accepts
ORACLE_SHAPES = [(k, l) for k in range(1, 13) for l in range(1, 13) if k * l <= 12]


def groups_of(schedule, k):
    groups = [set() for _ in range(k)]
    for t, (p, _) in enumerate(schedule.placement):
        groups[p].add(t)
    return groups


# serpentine


def test_serpentine_two_rounds():
    # round 0 forward, round 1 reversed
    sched = serpentine_schedule((8, 6, 4, 2), cfg(2, 2))
    assert groups_of(sched, 2) == [{0, 3}, {1, 2}]
    assert sched.placement == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_serpentine_single_round_is_descending():
    sched = serpentine_schedule((5, 3, 1), cfg(3, 1))
    assert sched.placement == ((0, 0), (1, 0), (2, 0))


def test_serpentine_three_rounds_sums():
    sched = serpentine_schedule((9, 7, 5, 3, 2, 1), cfg(2, 3))
    quality = processor_load(sched, (9, 7, 5, 3, 2, 1), cfg(2, 3))
    assert groups_of(sched, 2) == [{0, 3, 4}, {1, 2, 5}]
    assert quality.per_processor_mlp_sum == (14.0, 13.0)


def test_serpentine_tie_break_by_thread_id():
    sched = serpentine_schedule((5, 5, 5, 5), cfg(2, 2))
    assert groups_of(sched, 2) == [{0, 3}, {1, 2}]


def test_serpentine_slot_is_round_number():
    sched = serpentine_schedule((9, 7, 5, 3, 2, 1), cfg(2, 3))
    for t, (_, s) in enumerate(sched.placement):
        rank = sorted(range(6), key=lambda u: (-(9, 7, 5, 3, 2, 1)[u], u)).index(t)
        assert s == rank // 2


def test_serpentine_dimension_mismatch():
    with pytest.raises(ValueError, match="entries"):
        serpentine_schedule((1.0, 2.0), cfg(2, 2))


def test_serpentine_matches_row_construction():
    rng = random.Random(71)
    for _ in range(200):
        k = rng.randint(1, 4)
        l = rng.randint(1, 4)
        mlp = tuple(rng.randint(0, 80) / 8 for _ in range(k * l))
        sched = serpentine_schedule(mlp, cfg(k, l))
        expected = reference.boustrophedon_rows(mlp, k)
        assert {t: ps for t, ps in enumerate(sched.placement)} == expected


def test_serpentine_argsort_invariance():
    # any strictly increasing transform of the counters leaves the output alone
    rng = random.Random(72)
    for _ in range(100):
        k = rng.randint(1, 4)
        l = rng.randint(1, 4)
        mlp = tuple(rng.uniform(0, 16) for _ in range(k * l))
        base = serpentine_schedule(mlp, cfg(k, l))
        assert serpentine_schedule(tuple(v * 3.7 for v in mlp), cfg(k, l)) == base
        assert serpentine_schedule(tuple(v + 100.0 for v in mlp), cfg(k, l)) == base
        assert serpentine_schedule(tuple(v * v for v in mlp), cfg(k, l)) == base


# naive_sorted


def test_naive_no_reversal():
    sched = naive_sorted_schedule((8, 6, 4, 2), cfg(2, 2))
    quality = processor_load(sched, (8, 6, 4, 2), cfg(2, 2))
    assert groups_of(sched, 2) == [{0, 2}, {1, 3}]
    assert quality.per_processor_mlp_sum == (12.0, 8.0)


def test_naive_three_rounds_sums():
    quality = processor_load(
        naive_sorted_schedule((9, 7, 5, 3, 2, 1), cfg(2, 3)), (9, 7, 5, 3, 2, 1), cfg(2, 3)
    )
    assert quality.per_processor_mlp_sum == (16.0, 11.0)


def test_naive_equals_serpentine_when_single_round():
    rng = random.Random(73)
    for _ in range(50):
        k = rng.randint(1, 6)
        mlp = tuple(rng.uniform(0, 10) for _ in range(k))
        assert naive_sorted_schedule(mlp, cfg(k, 1)) == serpentine_schedule(mlp, cfg(k, 1))


# round_robin


def test_round_robin_rotates_processors():
    prev = Schedule(((0, 0), (0, 1), (1, 0), (1, 1)))
    assert round_robin_schedule(cfg(2, 2), prev).placement == (
        (1, 0),
        (1, 1),
        (0, 0),
        (0, 1),
    )


def test_round_robin_identity_on_one_processor():
    prev = Schedule(((0, 0), (0, 1), (0, 2)))
    assert round_robin_schedule(cfg(1, 3), prev) == prev


def test_round_robin_order_k():
    prev = random_schedule(cfg(3, 2), seed=5)
    cur = prev
    for _ in range(3):
        cur = round_robin_schedule(cfg(3, 2), cur)
    assert cur == prev


def test_round_robin_rejects_invalid_prev():
    with pytest.raises(ValueError):
        round_robin_schedule(cfg(2, 2), Schedule(((0, 0), (0, 0), (1, 0), (1, 1))))


# random


def test_random_schedule_deterministic_and_valid():
    for seed in (0, 1, 42, 2**63):
        a = random_schedule(cfg(3, 3), seed)
        b = random_schedule(cfg(3, 3), seed)
        assert a == b
        validate_schedule(a, cfg(3, 3))


def test_random_schedule_spreads_over_seeds():
    seen = {random_schedule(cfg(2, 2), seed).placement for seed in range(64)}
    assert len(seen) > 10  # 24 permutations exist; a constant function would fail


def test_random_single_processor_keeps_everyone_there():
    sched = random_schedule(cfg(1, 5), seed=9)
    assert all(p == 0 for p, _ in sched.placement)
    assert sorted(s for _, s in sched.placement) == [0, 1, 2, 3, 4]


# static


def test_static_returns_prev():
    prev = random_schedule(cfg(2, 3), seed=3)
    assert static_schedule(cfg(2, 3), prev) is prev


# optimal


def test_optimal_bipartition_example():
    sched = optimal_partition((8, 6, 4, 2), cfg(2, 2))
    quality = processor_load(sched, (8, 6, 4, 2), cfg(2, 2))
    assert quality.max_sum == 10.0
    assert groups_of(sched, 2) == [{0, 3}, {1, 2}]


def test_optimal_all_zero():
    quality = processor_load(optimal_partition((0, 0, 0, 0), cfg(2, 2)), (0, 0, 0, 0), cfg(2, 2))
    assert quality.max_sum == 0.0


def test_optimal_symmetric_values():
    quality = processor_load(optimal_partition((5, 5, 5, 5), cfg(2, 2)), (5, 5, 5, 5), cfg(2, 2))
    assert quality.max_sum == 10.0


def test_optimal_tie_break_is_lexicographic():
    # every grouping of equal values has max_sum 10; the smallest sorted
    # id sets are {0,1},{2,3}
    sched = optimal_partition((5, 5, 5, 5), cfg(2, 2))
    assert groups_of(sched, 2) == [{0, 1}, {2, 3}]
    assert sched.placement == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_optimal_rejects_large_instance():
    with pytest.raises(ValueError, match="12"):
        optimal_partition(tuple(range(14)), cfg(2, 7))


@pytest.mark.parametrize(
    "policy",
    [serpentine_schedule, naive_sorted_schedule, optimal_partition],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5], ids=repr)
def test_counter_policies_refuse_bad_counter(policy, bad):
    with pytest.raises(ValueError, match=rf"thread 2 .*got {bad!r}$"):
        policy((1.0, 2.0, bad, 0.0), cfg(2, 2))


def test_optimal_rejects_negative_counter():
    with pytest.raises(ValueError, match="non-negative"):
        optimal_partition((1.0, -0.5, 2.0, 0.0), cfg(2, 2))


def test_optimal_matches_exhaustive_reference():
    rng = random.Random(74)
    shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 3), (2, 6)]
    for _ in range(40):
        k, l = shapes[rng.randrange(len(shapes))]
        mlp = tuple(rng.randint(0, 96) / 8 for _ in range(k * l))
        got = processor_load(optimal_partition(mlp, cfg(k, l)), mlp, cfg(k, l)).max_sum
        assert got == reference.min_makespan(mlp, k, l)


def _placement_of(key):
    placement = {}
    for p, group in enumerate(key):
        for s, t in enumerate(group):
            placement[t] = (p, s)
    return tuple(placement[t] for t in range(len(placement)))


@pytest.mark.parametrize("k,l", ORACLE_SHAPES, ids=[f"{k}x{l}" for k, l in ORACLE_SHAPES])
def test_optimal_matches_brute_force_partition(k, l):
    # counters are occupancy integrals over a window, as the engine samples
    # them; windows of 10 and 100 give sums that round, and small integrals
    # give many ties, so both the least max and the tie rule are exercised
    rng = random.Random(100 * k + l)
    n = k * l
    partitions = math.factorial(n) // (math.factorial(l) ** k * math.factorial(k))
    for _ in range(2 if partitions > 1000 else 12):
        window = rng.choice((4, 10, 100))
        mlp = tuple(rng.randint(0, rng.choice((3, 10)) * window) / window for _ in range(n))
        key = reference.optimal_reference(mlp, l)
        assert optimal_partition(mlp, cfg(k, l)).placement == _placement_of(key)


@pytest.mark.parametrize(
    "k,l,mlp,key",
    [
        # exact ties on the least max, which a group sum one ulp off
        # breaks the wrong way; here threads 2 and 3 both read 8.66
        (2, 3, (1.04, 7.74, 8.66, 8.66, 0.4, 2.85), ((0, 2, 5), (1, 3, 4))),
        # two splits tie at 21.7
        (
            3,
            3,
            (0.41, 9.12, 8.29, 8.91, 3.58, 6.46, 6.95, 9.25, 8.38),
            ((0, 1, 3), (2, 5, 6), (4, 7, 8)),
        ),
        # a sampled vector of a 4x3 simulation: several splits tie at 14.0,
        # one of them through 1.0+6.98+6.02
        (
            4,
            3,
            (3.0, 5.0, 1.0, 1.0, 8.0, 5.1525, 4.0, 5.38, 5.4675, 3.0, 6.98, 6.02),
            ((0, 1, 5), (2, 4, 6), (3, 10, 11), (7, 8, 9)),
        ),
    ],
    ids=["2x3", "3x3", "4x3"],
)
def test_optimal_ties_follow_processor_load_sums(k, l, mlp, key):
    assert reference.optimal_reference(mlp, l) == key
    assert optimal_partition(mlp, cfg(k, l)).placement == _placement_of(key)


@st.composite
def machine_and_counters(draw):
    k, l = draw(st.sampled_from(ORACLE_SHAPES))
    window = draw(st.sampled_from((1, 10, 100, 400)))
    mlp = draw(st.lists(st.integers(0, 16 * window), min_size=k * l, max_size=k * l))
    return cfg(k, l), tuple(v / window for v in mlp)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(machine_and_counters())
def test_optimal_never_above_sorted_deals(case):
    machine, mlp = case
    opt = processor_load(optimal_partition(mlp, machine), mlp, machine).max_sum
    for policy in (serpentine_schedule, naive_sorted_schedule):
        assert opt <= processor_load(policy(mlp, machine), mlp, machine).max_sum


def test_optimal_beats_every_random_schedule():
    rng = random.Random(75)
    for _ in range(30):
        k, l = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        mlp = tuple(rng.uniform(0, 12) for _ in range(k * l))
        opt = processor_load(optimal_partition(mlp, cfg(k, l)), mlp, cfg(k, l)).max_sum
        for seed in range(20):
            other = processor_load(random_schedule(cfg(k, l), seed), mlp, cfg(k, l)).max_sum
            assert opt <= other + 1e-9


# dominance and dispatch


def test_dominance_chain_on_dyadic_instances():
    """optimal <= serpentine <= naive on max_sum; serpentine gap <= naive gap.

    Dyadic counters (k/8) make all sums exact, so the comparisons are
    float-noise free.
    """
    rng = random.Random(76)
    for _ in range(300):
        k = rng.randint(2, 4)
        l = rng.randint(1, 3)
        machine = cfg(k, l)
        mlp = tuple(rng.randint(0, 80) / 8 for _ in range(k * l))
        serp = processor_load(serpentine_schedule(mlp, machine), mlp, machine)
        naive = processor_load(naive_sorted_schedule(mlp, machine), mlp, machine)
        opt = processor_load(optimal_partition(mlp, machine), mlp, machine)
        assert opt.max_sum <= serp.max_sum <= naive.max_sum
        assert serp.gap <= naive.gap


def test_every_policy_output_validates():
    rng = random.Random(77)
    for _ in range(150):
        k = rng.randint(1, 4)
        l = rng.randint(1, 4)
        machine = cfg(k, l)
        mlp = tuple(rng.uniform(0, 16) for _ in range(k * l))
        prev = random_schedule(machine, rng.randrange(1 << 32))
        for policy in Policy:
            if policy is Policy.OPTIMAL and k * l > 12:
                continue
            sched = next_schedule(policy, mlp, machine, prev, seed=rng.randrange(1 << 32))
            validate_schedule(sched, machine)


def test_next_schedule_dispatch():
    machine = cfg(2, 2)
    mlp = (8.0, 6.0, 4.0, 2.0)
    prev = Schedule(((0, 0), (0, 1), (1, 0), (1, 1)))
    assert next_schedule("serpentine", mlp, machine, prev) == serpentine_schedule(mlp, machine)
    assert next_schedule("naive_sorted", mlp, machine, prev) == naive_sorted_schedule(mlp, machine)
    assert next_schedule("round_robin", mlp, machine, prev) == round_robin_schedule(machine, prev)
    assert next_schedule("random", mlp, machine, prev, seed=6) == random_schedule(machine, 6)
    assert next_schedule("optimal", mlp, machine, prev) == optimal_partition(mlp, machine)
    assert next_schedule("static", mlp, machine, prev) == prev


def test_next_schedule_unknown_policy():
    machine = cfg(2, 2)
    prev = Schedule(((0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        next_schedule("greedy", (1, 2, 3, 4), machine, prev)


def test_quantum_seed_mixing():
    assert quantum_seed(0, 0) == 0x9E3779B97F4A7C15
    assert quantum_seed(0, 1) == (2 * 0x9E3779B97F4A7C15) % (1 << 64)
    assert quantum_seed(5, 0) == 5 + 0x9E3779B97F4A7C15
    # stays in u64 range and differs across quanta
    seeds = {quantum_seed(123, q) for q in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 1 << 64 for s in seeds)
