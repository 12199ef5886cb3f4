"""Workload construction: phases, synthetic generation, trace files."""

import random

import pytest

from mlpsched.core import ConfigError, SystemConfig
from mlpsched.workload import (
    Phase,
    ThreadWorkload,
    TraceError,
    WorkloadSpec,
    generate_synthetic,
    load_trace,
    pad_workloads,
    save_trace,
)
from mlpsched.workload import IDLE_PHASE_DURATION, TRACE_VERSION_LINE


def test_phase_validation():
    Phase(duration=1, demand=0)
    with pytest.raises(ValueError, match="duration"):
        Phase(duration=0, demand=1)
    with pytest.raises(ValueError, match="demand"):
        Phase(duration=10, demand=-1)


def test_phase_rejects_bool():
    with pytest.raises(ValueError, match="duration"):
        Phase(True, True)
    with pytest.raises(ValueError, match="duration"):
        Phase(duration=True, demand=1)
    with pytest.raises(ValueError, match="demand"):
        Phase(duration=10, demand=False)


def test_thread_workload_requires_phases():
    with pytest.raises(ValueError, match="phase"):
        ThreadWorkload(thread=0, phases=())


def test_workload_spec_validation():
    WorkloadSpec(phases_per_thread=2, duration_range=(1, 5), demand_range=(0, 0))
    with pytest.raises(ValueError, match="duration_range"):
        WorkloadSpec(duration_range=(0, 5))
    with pytest.raises(ValueError, match="duration_range"):
        WorkloadSpec(duration_range=(6, 5))
    with pytest.raises(ValueError, match="demand_range"):
        WorkloadSpec(demand_range=(-1, 3))
    with pytest.raises(ValueError, match="phases_per_thread"):
        WorkloadSpec(phases_per_thread=0)


def test_generate_deterministic():
    spec = WorkloadSpec(phases_per_thread=3, duration_range=(10, 100), demand_range=(0, 8))
    assert generate_synthetic(spec, 6, seed=99) == generate_synthetic(spec, 6, seed=99)
    assert generate_synthetic(spec, 6, seed=99) != generate_synthetic(spec, 6, seed=100)


def test_generate_respects_ranges():
    spec = WorkloadSpec(phases_per_thread=4, duration_range=(50, 60), demand_range=(2, 12))
    for wl in generate_synthetic(spec, 10, seed=1):
        for phase in wl.phases:
            assert 50 <= phase.duration <= 60
            assert 2 <= phase.demand <= 12


def test_generate_rejects_nonpositive_thread_count():
    with pytest.raises(ValueError, match="n_threads"):
        generate_synthetic(WorkloadSpec(), 0, seed=0)


def test_pad_workloads_fills_idle_threads():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    padded = pad_workloads([ThreadWorkload(0, (Phase(100, 4),))], cfg)
    assert len(padded) == 4
    assert padded[0].phases == (Phase(100, 4),)
    for t in (1, 2, 3):
        assert padded[t].thread == t
        assert padded[t].phases == (Phase(IDLE_PHASE_DURATION, 0),)


def test_pad_workloads_rejects_overflow():
    cfg = SystemConfig(num_processors=1, slots_per_processor=2)
    workloads = [ThreadWorkload(t, (Phase(10, 0),)) for t in range(3)]
    with pytest.raises(ConfigError, match="3 threads"):
        pad_workloads(workloads, cfg)


def test_pad_workloads_rejects_demand_above_pool():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2, mshrs_per_processor=8)
    with pytest.raises(ConfigError, match="demand"):
        pad_workloads([ThreadWorkload(0, (Phase(10, 9),))], cfg)


def test_pad_workloads_rejects_misnumbered_ids():
    cfg = SystemConfig(num_processors=2, slots_per_processor=2)
    with pytest.raises(ConfigError, match="thread ids"):
        pad_workloads([ThreadWorkload(1, (Phase(10, 0),))], cfg)


def test_trace_round_trip(tmp_path):
    spec = WorkloadSpec(phases_per_thread=3, duration_range=(10, 5000), demand_range=(0, 10))
    workloads = generate_synthetic(spec, 7, seed=12)
    path = tmp_path / "run.trace"
    save_trace(workloads, path)
    assert load_trace(path) == workloads


def test_trace_round_trip_mixed_repeat(tmp_path):
    workloads = (
        ThreadWorkload(0, (Phase(10, 2), Phase(20, 0)), repeat=False),
        ThreadWorkload(1, (Phase(5, 7),), repeat=True),
    )
    path = tmp_path / "mixed.trace"
    save_trace(workloads, path)
    assert load_trace(path) == workloads


def test_trace_file_shape(tmp_path):
    path = tmp_path / "t.trace"
    save_trace((ThreadWorkload(0, (Phase(3, 1),)),), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == TRACE_VERSION_LINE
    assert lines[1] == "thread,phase,duration,demand,repeat"
    assert lines[2] == "0,0,3,1,1"


def test_load_trace_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("mlpsched-trace 999\nthread,phase,duration,demand,repeat\n")
    with pytest.raises(TraceError, match="version"):
        load_trace(path)


def test_load_trace_names_line_and_field(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text(
        TRACE_VERSION_LINE + "\nthread,phase,duration,demand,repeat\n0,0,10,-3,1\n"
    )
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert "line 3" in str(err.value)
    assert "demand" in str(err.value)


def test_load_trace_names_line_for_zero_duration(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text(
        TRACE_VERSION_LINE + "\nthread,phase,duration,demand,repeat\n0,0,10,4,1\n0,1,0,4,1\n"
    )
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert "line 4" in str(err.value)
    assert "duration" in str(err.value)


def test_load_trace_rejects_non_integer_field(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text(
        TRACE_VERSION_LINE + "\nthread,phase,duration,demand,repeat\n0,0,ten,4,1\n"
    )
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert "line 3" in str(err.value)
    assert "duration" in str(err.value)


def test_load_trace_rejects_gap_in_phase_numbering(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text(
        TRACE_VERSION_LINE
        + "\nthread,phase,duration,demand,repeat\n0,0,10,1,1\n0,2,10,1,1\n"
    )
    with pytest.raises(TraceError, match="phase"):
        load_trace(path)


def test_load_trace_rejects_missing_thread(tmp_path):
    # thread 0 absent while thread 1 present: an empty phase list is illegal
    path = tmp_path / "bad.trace"
    path.write_text(
        TRACE_VERSION_LINE + "\nthread,phase,duration,demand,repeat\n1,0,10,1,1\n"
    )
    with pytest.raises(TraceError, match="thread 0"):
        load_trace(path)


def test_load_trace_demand_cap_against_config(tmp_path):
    # load_trace knows no machine; pad_workloads checks the demands against
    # one and names the thread and phase, so the trace row can be found
    path = tmp_path / "t.trace"
    save_trace((ThreadWorkload(0, (Phase(3, 1), Phase(3, 12))),), path)
    workloads = load_trace(path)
    small = SystemConfig(mshrs_per_processor=8)
    with pytest.raises(ConfigError, match="thread 0 phase 1: demand 12 exceeds the 8-entry MSHR pool"):
        pad_workloads(workloads, small)


def test_load_trace_inconsistent_repeat_flag(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text(
        TRACE_VERSION_LINE
        + "\nthread,phase,duration,demand,repeat\n0,0,10,1,1\n0,1,10,1,0\n"
    )
    with pytest.raises(TraceError, match="repeat"):
        load_trace(path)


def test_trace_fuzz_round_trip(tmp_path):
    rng = random.Random(31)
    for case in range(20):
        workloads = tuple(
            ThreadWorkload(
                t,
                tuple(
                    Phase(rng.randint(1, 10_000), rng.randint(0, 16))
                    for _ in range(rng.randint(1, 5))
                ),
                repeat=bool(rng.getrandbits(1)),
            )
            for t in range(rng.randint(1, 9))
        )
        path = tmp_path / f"fuzz{case}.trace"
        save_trace(workloads, path)
        assert load_trace(path) == workloads
