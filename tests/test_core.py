"""Value types: machine config, schedules, balance metrics."""

import random

import pytest

from mlpsched.core import (
    ConfigError,
    InvalidScheduleError,
    Schedule,
    SystemConfig,
    processor_load,
    validate_schedule,
)


def test_default_config():
    cfg = SystemConfig()
    assert cfg.num_processors == 4
    assert cfg.slots_per_processor == 4
    assert cfg.num_threads == 16
    assert cfg.window_cycles <= cfg.quantum_cycles


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_processors", 0),
        ("slots_per_processor", -1),
        ("mshrs_per_processor", 0),
        ("memory_latency", 0),
        ("quantum_cycles", 0),
        ("window_cycles", 0),
        ("migration_penalty", -5),
    ],
)
def test_config_rejects_bad_field(field, value):
    with pytest.raises(ConfigError) as err:
        SystemConfig(**{field: value})
    assert field in str(err.value)


def test_config_rejects_window_longer_than_quantum():
    with pytest.raises(ConfigError, match="window_cycles"):
        SystemConfig(quantum_cycles=100, window_cycles=101)
    SystemConfig(quantum_cycles=100, window_cycles=100)  # boundary is legal


def test_config_rejects_bool_fields():
    # bool is an int subclass; a config built from it is almost surely a bug
    with pytest.raises(ConfigError):
        SystemConfig(num_processors=True)


def test_config_is_immutable():
    cfg = SystemConfig()
    with pytest.raises(AttributeError):
        cfg.num_processors = 8


def test_validate_schedule_accepts_valid():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    validate_schedule(Schedule(((0, 0), (0, 1), (1, 0), (1, 1))), cfg)


def test_validate_schedule_wrong_count():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    with pytest.raises(InvalidScheduleError, match="places 3 threads"):
        validate_schedule(Schedule(((0, 0), (0, 1), (1, 0))), cfg)


def test_validate_schedule_processor_out_of_range():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    with pytest.raises(InvalidScheduleError, match="processor"):
        validate_schedule(Schedule(((0, 0), (0, 1), (2, 0), (1, 1))), cfg)


def test_validate_schedule_slot_out_of_range():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    with pytest.raises(InvalidScheduleError, match="slot"):
        validate_schedule(Schedule(((0, 0), (0, 1), (1, 0), (1, 2))), cfg)


def test_validate_schedule_duplicate_position():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    with pytest.raises(InvalidScheduleError, match="duplicate"):
        validate_schedule(Schedule(((0, 0), (0, 0), (1, 0), (1, 1))), cfg)


def test_processor_load_hand_example():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2, mshrs_per_processor=16)
    quality = processor_load(Schedule(((0, 0), (1, 0), (1, 1), (0, 1))), (8, 6, 4, 2), cfg)
    assert quality.per_processor_mlp_sum == (10.0, 10.0)
    assert quality.max_sum == 10.0
    assert quality.min_sum == 10.0
    assert quality.gap == 0.0
    assert quality.per_processor_oversubscription == (0.0, 0.0)


def test_processor_load_oversubscription():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2, mshrs_per_processor=16)
    quality = processor_load(Schedule(((0, 0), (0, 1), (1, 0), (1, 1))), (12, 12, 2, 2), cfg)
    assert quality.per_processor_mlp_sum == (24.0, 4.0)
    assert quality.gap == 20.0
    assert quality.per_processor_oversubscription == (8.0, 0.0)


def test_processor_load_dimension_mismatch():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    sched = Schedule(((0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(ValueError, match="entries"):
        processor_load(sched, (1.0, 2.0), cfg)


def test_processor_load_gap_matches_brute_force():
    rng = random.Random(404)
    for _ in range(50):
        k = rng.randint(1, 4)
        l = rng.randint(1, 4)
        cfg = SystemConfig(num_processors=k, slots_per_processor=l)
        # dyadic values (k/8) keep every partial sum exact, so == is safe
        mlp = tuple(rng.randint(0, 64) / 8 for _ in range(k * l))
        positions = [(p, s) for p in range(k) for s in range(l)]
        rng.shuffle(positions)
        sched = Schedule(tuple(positions))
        quality = processor_load(sched, mlp, cfg)
        sums = [sum(mlp[t] for t in range(k * l) if positions[t][0] == p) for p in range(k)]
        assert quality.per_processor_mlp_sum == tuple(sums)
        assert quality.gap == max(sums) - min(sums)
