"""Command-line behavior: exit codes, files, output determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mlpsched import experiments
from mlpsched.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def small_doc(**overrides):
    doc = {
        "system": {
            "num_processors": 2,
            "slots_per_processor": 2,
            "mshrs_per_processor": 16,
            "memory_latency": 100,
            "quantum_cycles": 400,
            "window_cycles": 100,
        },
        "workload": {"demands": [6, 1, 4, 2]},
        "policies": ["static", "serpentine"],
        "quanta": 3,
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def test_simulate_writes_tables_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, small_doc())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "static_quanta.csv").exists()
    assert (out / "serpentine_quanta.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 0
    assert set(summary["results"]) == {"static", "serpentine"}
    stdout = capsys.readouterr().out
    assert "throughput" in stdout
    with open(out / "serpentine_quanta.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["quantum", "thread", "processor", "slot", "sampled_mlp", "completed", "stalls"]
    assert len(rows) == 1 + 3 * 4


def test_simulate_quiet_silences_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, small_doc())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_outputs_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, small_doc(policies=["serpentine", "random", "optimal"]))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, small_doc(policies=["random", "serpentine"]))
    out1, out2, out3 = (tmp_path / n for n in ("s0", "s1", "s0b"))
    for out, seed in ((out1, "0"), (out2, "1"), (out3, "0")):
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", seed, "--quiet"]) == 0
    read = lambda out: (out / "random_quanta.csv").read_bytes()
    assert read(out1) != read(out2)
    assert read(out1) == read(out3)
    # summary echoes the effective seed
    assert json.loads((out2 / "summary.json").read_text())["seed"] == 1


def test_compare_table_and_speedup(tmp_path):
    out = tmp_path / "out"
    code = main(["compare", "--config", str(CONFIGS / "speedup.json"), "--out", str(out), "--quiet"])
    assert code == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["policy", "throughput", "total_stalls", "mean_gap", "mean_oversubscription", "speedup"]
    assert rows[1][0] == "static" and float(rows[1][5]) == 1.0
    assert rows[2][0] == "serpentine"
    assert abs(float(rows[2][5]) - 1.40) <= 1.40 * 0.05


def test_compare_zero_base_throughput_prints_inf(tmp_path, capsys):
    # round_robin moves every thread at each boundary and the penalty
    # freezes them for the rest of the run, so its measured quantum
    # completes nothing: every speedup against it is infinite
    doc = small_doc(policies=["round_robin", "static"], quanta=3, warmup_quanta=2)
    doc["system"]["migration_penalty"] = 10**9
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("round_robin") and lines[0].endswith("speedup 1.0000")
    assert lines[1].startswith("static") and lines[1].endswith("speedup inf")
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[5] for row in rows[1:]] == ["1.0", "inf"]


def test_compare_needs_two_policies(tmp_path, capsys):
    cfg = write_config(tmp_path, small_doc(policies=["serpentine"]))
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "two policies" in capsys.readouterr().err


def test_unknown_policy_exits_one_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, small_doc(policies=["serpentine", "lottery"]))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "lottery" in err


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_config_exits_one_naming_path(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config {path}: nested too deeply to parse\n"


def test_deeply_nested_field_value_is_shown_cut_short(tmp_path, capsys):
    # json parses a list nested 900 deep; the error names the field and
    # shows the value cut to a bounded length instead of all 1,800 brackets
    cfg = tmp_path / "exp.json"
    nested = "[" * 900 + "]" * 900
    text = json.dumps(small_doc(quanta=0)).replace('"quanta": 0', '"quanta": ' + nested)
    cfg.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'quanta': expected an integer, got [[")
    assert err.count("\n") == 1 and len(err) < 120


BIG = 10**4000 - 1  # 4,000 digits


def with_system(**fields):
    doc = small_doc()
    doc["system"].update(fields)
    return doc


def synthetic(**fields):
    return small_doc(workload={"synthetic": {"n_threads": 4, **fields}})


def one_slot(**overrides):
    """``small_doc`` on a 1x1 machine, so ``quanta`` is the run's thread-quanta."""
    doc = small_doc(workload={"demands": [3]}, **overrides)
    doc["system"].update(num_processors=1, slots_per_processor=1)
    return doc


def two_steps(cycles, **overrides):
    """``one_slot`` running one quantum of ``cycles`` cycles on one thread of
    two one-cycle steps, so the run passes one step end a cycle."""
    doc = one_slot(quanta=1, **overrides)
    doc["system"].update(quantum_cycles=cycles, window_cycles=1)
    doc["workload"] = {"threads": [{"phases": [[1, 1], [1, 2]]}]}
    return doc


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("simulate", with_system(num_processors=-BIG), "num_processors must be"),
        ("simulate", with_system(migration_penalty=-BIG), "migration_penalty must be"),
        ("simulate", small_doc(seed=BIG), "config field 'seed': "),
        ("simulate", small_doc(quanta=-BIG), "config field 'quanta': "),
        ("simulate", small_doc(warmup_quanta=BIG), "config field 'warmup_quanta': "),
        ("simulate", small_doc(workload={"demands": [1, BIG]}), "'workload': thread 1 phase 0"),
        (
            "simulate",
            small_doc(workload={"threads": [{"phases": [[10, BIG]]}]}),
            "'workload': thread 0 phase 0",
        ),
        ("simulate", synthetic(n_threads=BIG), "config field 'workload.synthetic.n_threads': "),
        ("simulate", synthetic(phases_per_thread=-BIG), "'workload.synthetic': phases_per_thread"),
        ("simulate", synthetic(duration_range=[-BIG, 1]), "'workload.synthetic': duration_range"),
        ("sweep", small_doc(sweep={"seed": [BIG]}), "sweep point (seed=999"),
    ],
    ids=[
        "num_processors",
        "migration_penalty",
        "seed",
        "quanta",
        "warmup_quanta",
        "demands",
        "threads",
        "n_threads",
        "phases_per_thread",
        "duration_range",
        "sweep_value",
    ],
)
def test_huge_config_value_is_shown_cut_short(tmp_path, capsys, command, doc, field):
    # each field holds a 4,000-digit integer that fails a load-time check;
    # the one error line names the field and cuts the value short
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert field in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit"
)
def test_config_integer_past_digit_limit_exits_one_naming_path(tmp_path, capsys):
    # json.load cannot convert an integer longer than the interpreter's limit
    # (4,300 digits by default); the error names the config file
    cfg = tmp_path / "exp.json"
    digits = "9" * (sys.get_int_max_str_digits() + 700)
    text = json.dumps(small_doc()).replace('"seed": 0', '"seed": ' + digits)
    cfg.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: cannot be parsed (")
    assert err.count("\n") == 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit"
)
def test_a_product_past_the_digit_limit_is_shown_by_its_size(tmp_path, capsys):
    # each value parses, but the product a bound reports is too long to
    # convert to text; the error still names the field, on one short line
    value = 10 ** (sys.get_int_max_str_digits() - 1)
    thread_quanta = with_system(num_processors=16, slots_per_processor=1)
    thread_quanta["quanta"] = value
    step_ends = two_steps(value)
    step_ends["quanta"] = 16
    for doc in (thread_quanta, step_ends):
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'quanta': ")
        assert f" = <{(16 * value).bit_length()}-bit integer> " in err
        assert err.count("\n") == 1 and len(err) < 300, err


def test_config_not_utf8_exits_one_naming_path(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_bytes(b'{"seed": "\xff"}')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: cannot be parsed (")
    assert err.count("\n") == 1


def test_long_bad_trace_value_is_shown_cut_short(tmp_path, capsys):
    # a 5,000-character duration on line 3: the error names the line and the
    # field and shows the value cut to a bounded length
    trace = tmp_path / "w.trace"
    trace.write_text(
        "mlpsched-trace 1\nthread,phase,duration,demand,repeat\n0,0," + "x" * 5000 + ",1,1\n",
        encoding="utf-8",
    )
    cfg = write_config(tmp_path, small_doc(workload={"trace": "w.trace"}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: config field 'workload.trace': line 3: duration must be an integer, got 'xxx"
    )
    assert err.count("\n") == 1 and len(err) < 120


def test_bad_config_field_exits_one_naming_field(tmp_path, capsys):
    doc = small_doc()
    doc["system"]["num_processors"] = 0
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "num_processors" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, problem",
    [
        ({"num_processors": 0}, "num_processors must be a positive integer, got 0"),
        ({"window_cycles": 500}, "window_cycles (500) must not exceed quantum_cycles (400)"),
    ],
    ids=["num_processors", "window_past_quantum"],
)
def test_bad_system_value_names_the_system_field(tmp_path, capsys, fields, problem):
    cfg = write_config(tmp_path, with_system(**fields))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: config field 'system': {problem}\n"


@pytest.mark.parametrize(
    "doc, field, count",
    [
        (with_system(num_processors=65_537, slots_per_processor=1), "system", "65537"),
        (
            synthetic(n_threads=1, phases_per_thread=1_048_577),
            "workload.synthetic.phases_per_thread",
            "1048577",
        ),
        (one_slot(quanta=1_048_577), "quanta", "1048577"),
        (two_steps((1 << 22) + 1), "quanta", "4194305"),
        (two_steps(10**12), "quanta", "1000000000000"),
    ],
    ids=["slots", "synthetic_phases", "thread_quanta", "step_ends", "step_ends_far_past"],
)
def test_config_one_past_a_work_bound_is_refused_before_padding_or_generating(
    tmp_path, capsys, monkeypatch, doc, field, count
):
    for name in ("pad_workloads", "generate_synthetic"):
        monkeypatch.setattr(experiments, name, lambda *_, name=name: pytest.fail(f"{name} ran"))
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': ")
    assert f" {count} " in err and err.count("\n") == 1


def test_a_sweep_point_one_past_the_thread_quanta_bound_is_refused_before_any_start(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(experiments, "Start", lambda *_: pytest.fail("a start was built"))
    cfg = write_config(tmp_path, one_slot(sweep={"quanta": [3, 1_048_577]}))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: sweep point (quanta=1048577): config field 'quanta': "
        "quanta * K*L = 1048577*1 = 1048577 thread-quanta, more than 1048576\n"
    )


def test_a_config_at_the_thread_quanta_bound_loads(tmp_path):
    # loaded only, never run: the bound itself is allowed
    config = experiments.load_experiment(write_config(tmp_path, one_slot(quanta=1 << 20)))
    assert config.quanta * config.system.num_threads == 1 << 20


def test_a_sweep_point_one_past_the_step_end_bound_is_refused_before_any_start(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(experiments, "Start", lambda *_: pytest.fail("a start was built"))
    cfg = write_config(tmp_path, two_steps(4, sweep={"quantum_cycles": [4, 4_194_305]}))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: sweep point (quantum_cycles=4194305): config field 'quanta': a run of "
        "quanta * quantum_cycles = 1*4194305 = 4194305 cycles passes 4194305 step ends, "
        "more than 4194304\n"
    )


@pytest.mark.parametrize(
    "phases, repeat, cycles, ends",
    [
        ([[1, 1], [1, 2]], True, 1 << 22, 1 << 22),  # one step end a cycle
        ([[1 << 9, 1], [1 << 9, 2]], True, 1 << 31, 1 << 22),  # two a 1,024-cycle lap
        ([[1, 1], [1, 1]], True, 1 << 40, 0),  # one step, held for the whole run
        ([[1, 1], [1, 2]], False, 1 << 40, 0),  # steps that end once, then idle
    ],
    ids=["one_step_end_a_cycle", "long_steps", "constant", "no_repeat"],
)
def test_a_run_at_or_inside_the_step_end_bound_loads(tmp_path, phases, repeat, cycles, ends):
    # loaded only, never run: the bound counts step ends, not cycles
    doc = two_steps(cycles)
    doc["workload"] = {"threads": [{"phases": phases, "repeat": repeat}]}
    config = experiments.load_experiment(write_config(tmp_path, doc))
    assert experiments._step_ends(config.workloads, cycles) == ends


def test_long_unknown_key_is_shown_cut_short(tmp_path, capsys):
    cfg = write_config(tmp_path, with_system(**{"k" * 5000: 1}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'system.kkk") and err.endswith("...': unknown field\n")
    assert err.count("\n") == 1 and len(err) < 200


def test_sweep_writes_product_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        small_doc(sweep={"mshrs_per_processor": [8, 16], "memory_latency": [50, 100, 200]}),
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["mshrs_per_processor", "memory_latency"]
    assert len(rows) == 1 + 2 * 3 * 2  # header + points x policies


def test_sweep_without_section_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, small_doc())
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "sweep" in capsys.readouterr().err


def test_oracle_check_output_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, small_doc(workload={"demands": [8, 6, 4, 2]}, quanta=3))
    assert main(["oracle-check", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "quantum 0: serpentine 10.000000 optimal 10.000000 ratio 1.000000"
    assert lines[-1] == "corpus-max ratio: 1.000000"


def test_oracle_check_quiet_keeps_final_line(tmp_path, capsys):
    cfg = write_config(tmp_path, small_doc(workload={"demands": [8, 6, 4, 2]}, quanta=3))
    assert main(["oracle-check", "--config", cfg, "--quiet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["corpus-max ratio: 1.000000"]


def test_oracle_check_rejects_large_machine(tmp_path, capsys):
    doc = small_doc(workload={"demands": [1] * 16})
    doc["system"].update(num_processors=4, slots_per_processor=4)
    cfg = write_config(tmp_path, doc)
    assert main(["oracle-check", "--config", cfg]) == 1
    assert "12" in capsys.readouterr().err


def test_seed_flag_validation(capsys):
    try:
        main(["simulate", "--config", "x", "--out", "y", "--seed", "-3"])
    except SystemExit as exc:  # argparse rejects before the handler runs
        assert exc.code == 2
    else:
        raise AssertionError("negative seed should be rejected")
    assert "seed" in capsys.readouterr().err


def test_seed_flag_refuses_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "x", "--out", "y", "--seed", "abc"])
    assert exc.value.code == 2  # argparse rejects before the handler runs
    assert "seed must be an integer, got 'abc'" in capsys.readouterr().err


def test_seed_flag_past_digit_limit_is_out_of_range(capsys):
    # int() refuses this many digits, but the text is still a non-negative integer
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "x", "--out", "y", "--seed", "9" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "seed must be in [0, 2^64), got 999" in err
    assert max(len(line) for line in err.splitlines()) < 200


def modules_loaded_by_cli_import(*names):
    """Which of ``names`` a fresh interpreter holds after ``import mlpsched.cli``."""
    probe = "import sys, mlpsched.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe, *names],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return proc.stdout


def test_cli_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast and dis, which cost the CLI's start-up
    assert modules_loaded_by_cli_import("dataclasses", "inspect", "ast", "dis") == "[]\n"


def test_cli_import_loads_no_pickle_or_process_pool_modules():
    # the forked map imports pickle only once it has decided to fork;
    # multiprocessing.pool alone added about 39 ms and 2.2 MB to a run
    names = ("pickle", "multiprocessing", "concurrent")
    assert modules_loaded_by_cli_import(*names) == "[]\n"


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, small_doc())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "mlpsched", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


def test_non_repeating_thread_with_quanta_past_2_62_cycles_finishes(tmp_path):
    # A thread that ran out of phases holds no pending event, so a run may
    # cross any cycle count, 2^62 included.
    doc = {
        "system": {"num_processors": 1, "slots_per_processor": 1, "quantum_cycles": 1 << 62},
        "workload": {"threads": [{"phases": [[100, 2]], "repeat": False}]},
        "policies": ["static"],
        "quanta": 2,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "mlpsched", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    totals = json.loads((out / "summary.json").read_text())["results"]["static"]["totals"]
    assert totals["cycles"] == 1 << 63
    assert totals["completed"] == 2


@pytest.mark.parametrize(
    "workload, completed",
    [
        ({"demands": [0, 0]}, 0),
        ({"threads": [{"phases": [[100, 2]], "repeat": False}]}, 2),
    ],
    ids=["demands", "padded"],
)
def test_constant_threads_with_quanta_past_2_62_cycles_finish(tmp_path, workload, completed):
    # A thread whose one phase repeats (a demands entry, an idle padding
    # thread) never changes its demand, so it raises no phase-end events.
    doc = {
        "system": {"num_processors": 1, "slots_per_processor": 2, "quantum_cycles": 1 << 62},
        "workload": workload,
        "policies": ["static"],
        "quanta": 2,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "mlpsched", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    totals = json.loads((out / "summary.json").read_text())["results"]["static"]["totals"]
    assert totals["cycles"] == 1 << 63
    assert totals["completed"] == completed
