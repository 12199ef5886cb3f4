"""Thread-to-processor scheduling policies.

The policy of interest is the serpentine assignment: sort threads by their
sampled memory-level parallelism and deal them across the K processors in
alternating forward/reverse passes, so the heaviest thread of each pass lands
where the previous pass left its lightest and the per-processor totals stay
balanced.  Sorting dominates, so the whole policy is O(N log N).

The rest are baselines and an oracle:

* ``naive_sorted`` -- the same sorted deal without the alternation (every
  pass runs forward), which piles the heavy threads onto low processor ids.
* ``round_robin``  -- counter-oblivious rotation of the previous placement.
* ``random``       -- uniform random placement from a seeded generator.
* ``static``       -- keep the previous placement unchanged.
* ``optimal``      -- exact minimum-makespan partition, small N only; used
  to judge how close serpentine gets to the best achievable balance.  Its
  rule: group sums formed as ``processor_load`` forms them, then the least
  largest sum, then the lexicographically smallest key.  A memoised search
  over thread subsets finds it in about 0.4 ms at 4x3.

The policies that read counters (serpentine, naive_sorted, optimal) refuse a
vector of the wrong length or with a value that is not finite and
non-negative.  All policies are pure functions: the same inputs (and seed,
where one applies) always produce the same schedule, and every output passes
``validate_schedule``.
"""

from __future__ import annotations

import itertools
import math
import random
from enum import Enum
from functools import cache
from typing import Sequence

from .core import ConfigError, Schedule, SystemConfig, _slots, validate_schedule

__all__ = [
    "MAX_EXHAUSTIVE_THREADS",
    "Policy",
    "naive_sorted_schedule",
    "next_schedule",
    "optimal_partition",
    "quantum_seed",
    "random_schedule",
    "round_robin_schedule",
    "serpentine_schedule",
    "static_schedule",
]

# The oracle memoises over thread subsets, at most 2**N of them; 12 threads
# keeps that to 4,096 (4x3 has 15,400 equal-size partitions).  Only
# _check_oracle_cap reads it.
MAX_EXHAUSTIVE_THREADS = 12

_SEED_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio increment


class Policy(str, Enum):
    """Closed set of scheduler names accepted in experiment configs."""

    SERPENTINE = "serpentine"
    NAIVE_SORTED = "naive_sorted"
    ROUND_ROBIN = "round_robin"
    RANDOM = "random"
    OPTIMAL = "optimal"
    STATIC = "static"


def _check_counters(mlp: Sequence[float], config: SystemConfig) -> None:
    """Counter-vector check shared by every policy that reads counters.

    Raises unless the vector has one entry per thread and every entry is
    finite and non-negative, naming the first offending thread and value.
    """
    n = config.num_threads
    if len(mlp) != n:
        raise ValueError(f"mlp vector has {len(mlp)} entries, config schedules {n} threads")
    for t, v in enumerate(mlp):
        if not 0 <= v < math.inf:  # also false for NaN
            raise ValueError(f"mlp value of thread {t} must be finite and non-negative, got {v!r}")


def _check_oracle_cap(config: SystemConfig) -> None:
    """The oracle's size rule, for every caller: at most MAX_EXHAUSTIVE_THREADS threads."""
    if config.num_threads > MAX_EXHAUSTIVE_THREADS:
        raise ConfigError(
            f"optimal needs K*L <= {MAX_EXHAUSTIVE_THREADS} threads, "
            f"the machine has {_slots(config)}"
        )


def _descending_order(mlp: Sequence[float], config: SystemConfig) -> list[int]:
    """Thread ids by counter descending, ties broken by ascending id."""
    _check_counters(mlp, config)
    return sorted(range(config.num_threads), key=lambda t: (-mlp[t], t))


def serpentine_schedule(mlp: Sequence[float], config: SystemConfig) -> Schedule:
    """Boustrophedon deal of the descending-sorted threads.

    Pass r (0-based) takes sorted ranks [r*K, (r+1)*K).  Even passes send
    rank r*K+j to processor j, odd passes to processor K-1-j; the thread
    occupies slot r on its processor.  Only the sort order matters, so any
    strictly increasing transform of the counters leaves the result
    unchanged.
    """
    k = config.num_processors
    placement: list[tuple[int, int]] = [(-1, -1)] * config.num_threads
    for rank, t in enumerate(_descending_order(mlp, config)):
        r, j = divmod(rank, k)
        p = j if r % 2 == 0 else k - 1 - j
        placement[t] = (p, r)
    return Schedule(tuple(placement))


def naive_sorted_schedule(mlp: Sequence[float], config: SystemConfig) -> Schedule:
    """Sorted deal without alternation: rank r*K+j always goes to processor j.

    Processor 0 collects every pass's maximum and processor K-1 every pass's
    minimum, which makes this the natural worst-of-the-sorted baselines.
    """
    k = config.num_processors
    placement: list[tuple[int, int]] = [(-1, -1)] * config.num_threads
    for rank, t in enumerate(_descending_order(mlp, config)):
        r, j = divmod(rank, k)
        placement[t] = (j, r)
    return Schedule(tuple(placement))


def round_robin_schedule(config: SystemConfig, prev: Schedule) -> Schedule:
    """Counter-oblivious rotation: (p, s) -> ((p + 1) mod K, s)."""
    validate_schedule(prev, config)
    k = config.num_processors
    return Schedule(tuple(((p + 1) % k, s) for p, s in prev.placement))


def random_schedule(config: SystemConfig, seed: int) -> Schedule:
    """Uniformly random valid placement, reproducible from the seed.

    The generator is Python's ``random.Random`` (Mersenne Twister, MT19937);
    it is part of the contract and is never changed silently, so seeds stay
    portable.
    """
    rng = random.Random(seed)
    threads = list(range(config.num_threads))
    rng.shuffle(threads)
    placement: list[tuple[int, int]] = [(-1, -1)] * len(threads)
    position = 0
    for p in range(config.num_processors):
        for s in range(config.slots_per_processor):
            placement[threads[position]] = (p, s)
            position += 1
    return Schedule(tuple(placement))


def static_schedule(config: SystemConfig, prev: Schedule) -> Schedule:
    """Keep the previous placement; the fixed-schedule baseline."""
    validate_schedule(prev, config)
    return prev


@cache
def _group_table(n: int, l: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """Every L-thread group of N threads as (members, bitmask), filed by its
    lowest thread; combinations() yields groups in ascending lexicographic
    order, so each row is in that order too.  Built on first use and kept,
    as tuples, for every later decision on the same shape."""
    rows: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for group in itertools.combinations(range(n), l):
        rows[group[0]].append((group, sum(1 << t for t in group)))
    return tuple(map(tuple, rows))


def optimal_partition(mlp: Sequence[float], config: SystemConfig) -> Schedule:
    """Exact minimum-makespan oracle over equal-size thread groups.

    Splits the N threads into K groups of L and returns the split whose
    largest group sum is least, each group sum formed as ``processor_load``
    forms it: ``0.0`` plus the members in ascending thread id.  Ties go to
    the lexicographically smallest tuple of sorted per-group thread ids, so
    the result is unique and deterministic.  Groups land on processors
    ordered by their smallest thread id; slot order follows ascending thread
    id.

    The search is memoised over thread subsets held as bitmasks.
    ``best[rem]`` is the least largest group sum over the splits of the
    threads in ``rem``: the minimum, over the groups holding ``rem``'s lowest
    thread, of the larger of that group's sum and ``best`` of the rest.  The
    search walks those groups lightest first and stops at the first whose
    own sum reaches the running minimum, since no later group can beat it.
    Sums are only ever added, never taken back, so every comparison is
    between the exact values ``processor_load`` reports.  The split is then
    rebuilt from the lowest thread up, taking at each step the first group in
    ascending order that still completes within the optimum, which yields the
    smallest key among all ties.  At 4x3 (220 groups, 15,400 splits) a
    decision takes about 0.4 ms on a 2-vCPU Xeon VM.

    Raises if the counters fail the policy check, or ``ConfigError`` if N
    exceeds ``MAX_EXHAUSTIVE_THREADS``.
    """
    _check_counters(mlp, config)
    _check_oracle_cap(config)
    n, l = config.num_threads, config.slots_per_processor
    table = _group_table(n, l)

    # Each group's sum, 0.0 plus its members in ascending id, seeds its own
    # entry of ``best``; each row of the table becomes a list of (sum, mask),
    # lightest first.  best[0] is the empty remainder the rebuild reaches
    # when it takes the last group.
    best: dict[int, float] = {0: 0.0}
    lightest_first = []
    for row in table:
        sums = []
        for group, mask in row:
            total = 0.0
            for t in group:
                total += mlp[t]
            best[mask] = total
            sums.append((total, mask))
        sums.sort()
        lightest_first.append(sums)

    def solve(rem: int) -> float:
        got = best.get(rem)
        if got is not None:
            return got
        out = math.inf
        for total, mask in lightest_first[(rem & -rem).bit_length() - 1]:
            if total >= out:
                break
            if mask & rem == mask:
                rest = solve(rem ^ mask)
                if rest < out:  # then max(total, rest) < out, as total < out
                    out = rest if rest > total else total
        best[rem] = out
        return out

    rem = (1 << n) - 1
    opt = solve(rem)
    placement: list[tuple[int, int]] = [(-1, -1)] * n
    for p in range(config.num_processors):
        group, mask = next(
            (group, mask)
            for group, mask in table[(rem & -rem).bit_length() - 1]
            if mask & rem == mask and best[mask] <= opt and solve(rem ^ mask) <= opt
        )
        rem ^= mask
        for s, t in enumerate(group):
            placement[t] = (p, s)
    return Schedule(tuple(placement))


def quantum_seed(seed: int, quantum: int) -> int:
    """Per-quantum seed derivation for the random policy.

    ``(seed + (quantum + 1) * 0x9E3779B97F4A7C15) mod 2**64`` -- fixed and
    documented so runs are reproducible across implementations.
    """
    return (seed + (quantum + 1) * _SEED_MIX) % (1 << 64)


def next_schedule(
    policy: Policy | str,
    mlp: Sequence[float],
    config: SystemConfig,
    prev: Schedule,
    seed: int = 0,
) -> Schedule:
    """Dispatch to a policy: (counters, config, previous schedule, seed) -> schedule."""
    policy = Policy(policy)
    if policy is Policy.SERPENTINE:
        return serpentine_schedule(mlp, config)
    if policy is Policy.NAIVE_SORTED:
        return naive_sorted_schedule(mlp, config)
    if policy is Policy.ROUND_ROBIN:
        return round_robin_schedule(config, prev)
    if policy is Policy.RANDOM:
        return random_schedule(config, seed)
    if policy is Policy.OPTIMAL:
        return optimal_partition(mlp, config)
    if policy is Policy.STATIC:
        return static_schedule(config, prev)
    raise ValueError(f"unhandled policy {policy!r}")  # pragma: no cover
