"""Workload construction: phases, synthetic generation, trace files."""

import random
import sys

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
from mlpsched import workload as workload_module
from mlpsched.workload import IDLE_PHASE_DURATION, TRACE_VERSION_LINE
from reference import load_trace_reference


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


def test_thread_workload_rejects_negative_id():
    with pytest.raises(ValueError, match=r"^thread id must be >= 0, got -1$"):
        ThreadWorkload(thread=-1, phases=(Phase(10, 1),))


@pytest.mark.parametrize("thread", ["a", True, 1.0, None])
def test_thread_workload_refuses_an_id_that_is_not_an_integer(thread):
    # a str once failed on the comparison with TypeError, and True passed as thread 1
    with pytest.raises(ValueError, match=r"^thread id must be >= 0, got "):
        ThreadWorkload(thread=thread, phases=(Phase(10, 1),))


@pytest.mark.parametrize("phases_per_thread", [2.5, True, "2", None])
def test_workload_spec_refuses_phases_per_thread_that_is_not_an_integer(phases_per_thread):
    # 2.5 was once accepted, and generate_synthetic then failed with TypeError
    with pytest.raises(ValueError, match=r"^phases_per_thread must be >= 1, got "):
        WorkloadSpec(phases_per_thread=phases_per_thread)


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


def test_load_trace_names_the_file_and_offset_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.trace"
    head = (TRACE_VERSION_LINE + "\nthread,phase,duration,demand,repeat\n0,0,").encode()
    path.write_bytes(head + b"\xff0,4,1\n")
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert str(err.value) == (
        f"trace {path}: not UTF-8, byte 0xff at offset {len(head)} cannot be decoded"
    )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit"
)
def test_load_trace_names_an_integer_past_the_digit_limit(tmp_path):
    # a sign does not make an over-long integer any less an integer
    path = tmp_path / "bad.trace"
    digits = "9" * (sys.get_int_max_str_digits() + 700)
    for sign in ("", "+", "-"):
        path.write_text(
            TRACE_VERSION_LINE
            + "\nthread,phase,duration,demand,repeat\n0,0,"
            + sign
            + digits
            + ",4,1\n"
        )
        with pytest.raises(TraceError) as err:
            load_trace(path)
        message = str(err.value)
        assert message.startswith(
            f"line 3: duration is past the interpreter's integer digit limit, got '{sign}999"
        )
        assert len(message) < 120


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


def test_rows_with_equal_tails_share_one_phase(tmp_path):
    # Rows whose ``duration,demand,repeat`` text is equal share the Phase of
    # the tail cache; rows of different threads included.
    path = tmp_path / "shared.trace"
    save_trace(
        (
            ThreadWorkload(0, (Phase(7, 2), Phase(9, 1), Phase(7, 2))),
            ThreadWorkload(1, (Phase(9, 1), Phase(7, 2))),
        ),
        path,
    )
    first, second = load_trace(path)
    assert first.phases[0] is first.phases[2] is second.phases[1]
    assert first.phases[1] is second.phases[0]
    assert first.phases[0] is not first.phases[1]


# Loader differential corpus: load_trace against the row-by-row reference
# loader in tests/reference.py, on seeded valid and malformed traces.

HEADER = "thread,phase,duration,demand,repeat"


def random_scenario(rng, durations=300, demands=12, phases=6):
    return tuple(
        ThreadWorkload(
            t,
            tuple(
                Phase(rng.randint(1, durations), rng.randint(0, demands))
                for _ in range(rng.randint(1, phases))
            ),
            repeat=bool(rng.getrandbits(1)),
        )
        for t in range(rng.randint(1, 6))
    )


def interleaved_rows(rng, workloads):
    """Each thread's rows in phase order, the threads' rows shuffled together."""
    queues = [
        [[w.thread, i, ph.duration, ph.demand, int(w.repeat)] for i, ph in enumerate(w.phases)]
        for w in workloads
    ]
    rows = []
    while any(queues):
        rows.append(rng.choice([q for q in queues if q]).pop(0))
    return rows


def spelled(rng, value):
    """An int() spelling of value: plain, signed, padded, zero-led or with an underscore."""
    text = str(value)
    form = rng.randrange(6)
    if form == 1 and value >= 0:
        return "+" + text
    if form == 2:
        return rng.choice((" ", "\t", "  ")) + text + rng.choice((" ", "\t", ""))
    if form == 3 and len(text) >= 2 and text[0] != "-":
        cut = rng.randint(1, len(text) - 1)
        return text[:cut] + "_" + text[cut:]
    if form == 4 and value >= 0:
        return "0" + text
    return text


def trace_lines(rng, rows, respell):
    """The lines of a trace holding rows, with blank lines scattered between.

    Returns the lines and each row's physical line number.
    """
    lines = [TRACE_VERSION_LINE + rng.choice(("", " ", "\t")), HEADER + rng.choice(("", " "))]
    numbers = []
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(("", " ", "\t", "   \t ")))
        lines.append(",".join(spelled(rng, v) if respell else str(v) for v in row))
        numbers.append(len(lines))
    return lines, numbers


def write_lines(path, rng, lines):
    ending = rng.choice(("\n", "\r\n"))
    path.write_bytes((ending.join(lines) + ending).encode("utf-8"))


def test_loader_matches_reference_on_valid_traces(tmp_path):
    rng = random.Random(4207)
    for case in range(120):
        workloads = random_scenario(rng)
        path = tmp_path / f"valid{case}.trace"
        if case % 3 == 0:
            save_trace(workloads, path)
        else:
            rows = interleaved_rows(rng, workloads)
            lines, _ = trace_lines(rng, rows, respell=case % 3 == 2)
            write_lines(path, rng, lines)
        assert load_trace(path) == load_trace_reference(path) == workloads


# One defect per kind, in the order the loaders check a row: (name, the
# fields it rewrites or "count", how it rewrites a row's list of field texts).
DEFECTS = [
    ("extra field", ("count",), lambda row, rng: row.append("1")),
    ("missing field", ("count", 4), lambda row, rng: row.pop()),
    *[
        (f"{field} not an integer", (i,), lambda row, rng, i=i: row.__setitem__(
            i, rng.choice(("x", "", "1.5", "0x10", "5-", "y" * 200))))
        for i, field in enumerate(HEADER.split(","))
    ],
    ("negative thread", (0,), lambda row, rng: row.__setitem__(0, str(-rng.randint(1, 9)))),
    ("duration below 1", (2,), lambda row, rng: row.__setitem__(2, rng.choice(("0", "-4")))),
    ("negative demand", (3,), lambda row, rng: row.__setitem__(3, "-1")),
    ("repeat not 0 or 1", (4,), lambda row, rng: row.__setitem__(4, rng.choice(("2", "-1", "10")))),
    ("repeat flag flipped", (4,), lambda row, rng: row.__setitem__(4, str(1 - int(row[4])))),
    ("phase index off", (1,), lambda row, rng: row.__setitem__(1, str(int(row[1]) + rng.randint(1, 2)))),
]


def rows_and_target(rng, defects):
    """Valid rows as field texts, and the index of a row the defects fit."""
    while True:
        rows = [[str(v) for v in row] for row in interleaved_rows(rng, random_scenario(rng))]
        if any(name == "repeat flag flipped" for name, _, _ in defects):
            # only a thread's later row can disagree with an earlier one
            candidates = [i for i, row in enumerate(rows) if row[1] != "0"]
        else:
            candidates = list(range(len(rows)))
        if candidates:
            return rows, rng.choice(candidates)


def reported(path):
    """The TraceError message, which both loaders must agree on."""
    messages = []
    for loader in (load_trace, load_trace_reference):
        with pytest.raises(TraceError) as err:
            loader(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    return messages[0]


def test_loader_matches_reference_on_malformed_traces(tmp_path):
    rng = random.Random(4208)
    for case in range(12 * len(DEFECTS)):
        name, _, apply = defect = DEFECTS[case % len(DEFECTS)]
        rows, target = rows_and_target(rng, [defect])
        apply(rows[target], rng)
        lines, numbers = trace_lines(rng, rows, respell=False)
        path = tmp_path / f"bad{case}.trace"
        write_lines(path, rng, lines)
        message = reported(path)
        assert message.startswith(f"line {numbers[target]}: "), (name, message)
        assert len(message) < 120


def test_loader_reports_the_first_of_two_defects_on_a_line(tmp_path):
    rng = random.Random(4209)
    pairs = [
        (first, second)
        for i, first in enumerate(DEFECTS)
        for second in DEFECTS[i + 1:]
        if not set(first[1]) & set(second[1])
    ]
    for case, (first, second) in enumerate(pairs * 2):
        rows, target = rows_and_target(rng, [first, second])
        first[2](rows[target], rng)
        alone = [row[:] for row in rows]
        second[2](rows[target], rng)
        layout = rng.randrange(1 << 32)
        paths = []
        for tag, these in (("alone", alone), ("both", rows)):
            paths.append(tmp_path / f"{tag}{case}.trace")
            local = random.Random(layout)
            write_lines(paths[-1], local, trace_lines(local, these, respell=False)[0])
        assert reported(paths[1]) == reported(paths[0]), (first[0], second[0])


def test_loader_matches_reference_on_whole_trace_defects(tmp_path):
    cases = {
        "empty": "",
        "version": "mlpsched-trace 2\n" + HEADER + "\n0,0,1,1,1\n",
        "header": TRACE_VERSION_LINE + "\nthread,phase,duration,demand\n0,0,1,1,1\n",
        "no records": TRACE_VERSION_LINE + "\n" + HEADER + "\n \n\n",
        "missing thread": TRACE_VERSION_LINE + "\n" + HEADER + "\n0,0,1,1,1\n2,0,1,1,1\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.trace"
        path.write_text(text, encoding="utf-8")
        assert reported(path)
    assert reported(tmp_path / "missing thread.trace") == "thread 1 has no phases"


# The same corpora on scenarios with few distinct row tails (the
# "duration,demand,repeat" text), so that most rows, defect rows included,
# repeat a tail that the loader has already checked and kept, and rows
# often go on with the previous row's thread.

def few_tails_scenario(rng):
    return random_scenario(rng, durations=2, demands=2, phases=16)


def in_order_rows(workloads):
    """Each thread's rows in phase order, one thread after another."""
    return [
        [w.thread, i, ph.duration, ph.demand, int(w.repeat)]
        for w in workloads
        for i, ph in enumerate(w.phases)
    ]


def few_tails_rows(rng):
    workloads = few_tails_scenario(rng)
    rows = interleaved_rows(rng, workloads) if rng.getrandbits(1) else in_order_rows(workloads)
    return workloads, rows


def tail(row):
    return ",".join(str(v) for v in row[2:])


def test_loader_matches_reference_on_valid_traces_with_few_distinct_tails(tmp_path):
    rng = random.Random(4210)
    rows_seen = repeats = 0
    for case in range(120):
        workloads, rows = few_tails_rows(rng)
        lines, numbers = trace_lines(rng, rows, respell=case % 3 == 2)
        if case % 3 != 2:  # a respelled field makes a tail of its own
            rows_seen += len(rows)
            repeats += len(rows) - len({tail(row) for row in rows})
        path = tmp_path / f"valid{case}.trace"
        write_lines(path, rng, lines)
        assert load_trace(path) == load_trace_reference(path) == workloads
    assert repeats > 0.6 * rows_seen


def test_loader_matches_reference_on_malformed_rows_whose_tail_is_cached(tmp_path):
    rng = random.Random(4211)
    run_rows = dict.fromkeys((name for name, _, _ in DEFECTS), 0)
    for case in range(12 * len(DEFECTS)):
        name, _, apply = DEFECTS[case % len(DEFECTS)]
        while True:
            _, rows = few_tails_rows(rng)
            rows = [[str(v) for v in row] for row in rows]
            # an earlier row holds the tail this row is looked up by: its
            # own, or for a flipped repeat flag the flipped one
            if name == "repeat flag flipped":
                looked_up = [row[:4] + [str(1 - int(row[4]))] if row[1] != "0" else [] for row in rows]
            else:
                looked_up = rows
            candidates = [
                i for i, row in enumerate(looked_up) if row and tail(row) in map(tail, rows[:i])
            ]
            if candidates:
                break
        target = rng.choice(candidates)
        previous = rows[target - 1] if target else None
        if previous and previous[0] == rows[target][0] and previous[4] == rows[target][4]:
            run_rows[name] += 1  # a row that, if valid, only goes on with the thread
        apply(rows[target], rng)
        lines, numbers = trace_lines(rng, rows, respell=False)
        path = tmp_path / f"bad{case}.trace"
        write_lines(path, rng, lines)
        message = reported(path)
        assert message.startswith(f"line {numbers[target]}: "), (name, message)
    assert min(run_rows.values()) >= 3, run_rows


def test_loader_matches_reference_past_the_tail_cache_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(workload_module, "_TAIL_CACHE_SIZE", 4)
    rng = random.Random(4212)
    for case in range(60):
        while True:
            workloads, rows = few_tails_rows(rng)
            if len({tail(row) for row in rows}) > 8:
                break
        path = tmp_path / f"valid{case}.trace"
        write_lines(path, rng, trace_lines(rng, rows, respell=case % 2 == 1)[0])
        assert load_trace(path) == load_trace_reference(path) == workloads

        name, _, apply = DEFECTS[case % len(DEFECTS)]
        rows = [[str(v) for v in row] for row in rows]
        # a late row, whose tail may be past the bound
        candidates = [
            i for i, row in enumerate(rows)
            if i >= len(rows) // 2 and (name != "repeat flag flipped" or row[1] != "0")
        ]
        if not candidates:
            continue
        target = rng.choice(candidates)
        apply(rows[target], rng)
        lines, numbers = trace_lines(rng, rows, respell=False)
        path = tmp_path / f"bad{case}.trace"
        write_lines(path, rng, lines)
        assert reported(path).startswith(f"line {numbers[target]}: "), name


def test_loader_matches_reference_when_a_thread_resumes_after_another(tmp_path):
    head = [TRACE_VERSION_LINE, HEADER, "0,0,5,1,1", "0,1,5,1,1", "1,0,5,1,0", "1,1,7,2,0"]
    resumed = {
        "next phase": ["0,2,5,1,1", "1,2,5,1,0", "0,3,7,2,1"],
        "an earlier phase": ["0,1,5,1,1"],
        "phase 0 again": ["0,0,5,1,1"],
        "a skipped phase": ["0,3,5,1,1"],
        "the other thread's flag": ["0,2,5,1,0"],
        "a respelled thread, then a negative one": ["-0,2,5,1,1", "-1,2,5,1,1"],
        "the other thread's next phase": ["0,2,7,2,1", "1,1,5,1,0"],
    }
    for name, rows in resumed.items():
        path = tmp_path / f"{name}.trace"
        path.write_text("\n".join(head + rows) + "\n", encoding="utf-8")
        if name == "next phase":
            assert load_trace(path) == load_trace_reference(path) == (
                ThreadWorkload(0, (Phase(5, 1), Phase(5, 1), Phase(5, 1), Phase(7, 2))),
                ThreadWorkload(1, (Phase(5, 1), Phase(7, 2), Phase(5, 1)), repeat=False),
            )
        else:
            assert reported(path).startswith(f"line {len(head) + len(rows)}: "), name


def test_loader_matches_reference_on_respelled_phase_numbers_within_a_run(tmp_path):
    # A row goes on with the last row's thread by appending only when its
    # phase number is written plainly; any other spelling takes the general
    # path, which parses and checks the number as the reference does.
    head = [TRACE_VERSION_LINE, HEADER] + [f"0,{i},5,1,1" for i in range(10)]
    accepted = ("10", "+10", " 10", "10\t", "010", "1_0")
    for case, index in enumerate(accepted + ("9", "+9", "11", "-10", "1 0", "0x0a")):
        path = tmp_path / f"run{case}.trace"
        path.write_text("\n".join(head + [f"0,{index},5,1,1"]) + "\n", encoding="utf-8")
        if index in accepted:
            assert load_trace(path) == load_trace_reference(path) == (
                ThreadWorkload(0, (Phase(5, 1),) * 11),
            )
        else:
            assert reported(path).startswith(f"line {len(head) + 1}: "), index
