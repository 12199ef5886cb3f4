"""Experiment configs, metrics, tables, oracle checks."""

import collections
import copy
import csv
import itertools
import json
import os
import pickle
import shutil
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mlpsched._fork as _fork
import mlpsched.engine as engine
from mlpsched.cli import main
from mlpsched.core import ConfigError, ScheduleQuality, SystemConfig, processor_load, replace
from mlpsched.engine import run_simulation
import mlpsched.experiments as experiments
from mlpsched.experiments import (
    COMPARE_FIELDS,
    QUANTA_FIELDS,
    ExperimentConfig,
    load_experiment,
    measure,
    run_oracle_check,
    run_policies,
    run_sweep,
    write_compare_csv,
    write_quanta_csv,
    write_summary,
)
from mlpsched.policies import Policy, serpentine_schedule
from mlpsched.workload import Phase, ThreadWorkload, pad_workloads, save_trace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def base_doc(**overrides):
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
        "policies": ["serpentine"],
        "quanta": 3,
    }
    doc.update(overrides)
    return doc


# config loading


def test_load_demands_shorthand(tmp_path):
    config = load_experiment(write_config(tmp_path, base_doc()))
    assert config.system.num_processors == 2
    assert [w.phases[0].demand for w in config.workloads] == [6, 1, 4, 2]
    assert all(w.repeat for w in config.workloads)
    assert config.policies == (Policy.SERPENTINE,)
    assert config.quanta == 3
    assert config.warmup_quanta == 0
    assert config.seed == 0


def test_load_threads_form(tmp_path):
    doc = base_doc(
        workload={
            "threads": [
                {"phases": [[100, 4], [50, 0]]},
                {"phases": [[30, 2]], "repeat": False},
            ]
        }
    )
    config = load_experiment(write_config(tmp_path, doc))
    assert config.workloads == (
        ThreadWorkload(0, (Phase(100, 4), Phase(50, 0)), repeat=True),
        ThreadWorkload(1, (Phase(30, 2),), repeat=False),
    )


def test_load_synthetic_form(tmp_path):
    doc = base_doc(
        workload={
            "synthetic": {
                "n_threads": 4,
                "seed": 3,
                "phases_per_thread": 2,
                "duration_range": [10, 20],
                "demand_range": [1, 5],
            }
        }
    )
    config = load_experiment(write_config(tmp_path, doc))
    assert len(config.workloads) == 4
    for w in config.workloads:
        assert len(w.phases) == 2
        for ph in w.phases:
            assert 10 <= ph.duration <= 20
            assert 1 <= ph.demand <= 5
    again = load_experiment(write_config(tmp_path, doc))
    assert again.workloads == config.workloads


def test_load_trace_form_resolves_relative_path(tmp_path):
    workloads = (ThreadWorkload(0, (Phase(10, 3),)),)
    save_trace(workloads, tmp_path / "w.trace")
    config = load_experiment(write_config(tmp_path, base_doc(workload={"trace": "w.trace"})))
    assert config.workloads == workloads


def test_load_rejects_unknown_top_level_field(tmp_path):
    with pytest.raises(ConfigError, match="quantums"):
        load_experiment(write_config(tmp_path, base_doc(quantums=5)))


def test_load_rejects_unknown_system_field(tmp_path):
    doc = base_doc()
    doc["system"]["cores"] = 4
    with pytest.raises(ConfigError, match="system.cores"):
        load_experiment(write_config(tmp_path, doc))


def test_load_rejects_unknown_policy_naming_it(tmp_path):
    with pytest.raises(ConfigError, match="frobnicate"):
        load_experiment(write_config(tmp_path, base_doc(policies=["serpentine", "frobnicate"])))


def test_load_rejects_policy_listed_twice(tmp_path):
    doc = base_doc(policies=["serpentine", "static", "serpentine"])
    with pytest.raises(ConfigError, match=r"^config field 'policies': serpentine is listed twice$"):
        load_experiment(write_config(tmp_path, doc))


def test_load_refuses_synthetic_thread_count_above_slots_before_generating(
    tmp_path, monkeypatch
):
    def generate_synthetic(*args):
        raise AssertionError("generated threads for a count the machine cannot hold")

    monkeypatch.setattr(experiments, "generate_synthetic", generate_synthetic)
    doc = base_doc(workload={"synthetic": {"n_threads": 100_000_000}})
    expected = (
        r"^config field 'workload.synthetic.n_threads': "
        r"100000000 threads but the machine has 2\*2 = 4 slots$"
    )
    with pytest.raises(ConfigError, match=expected):
        load_experiment(write_config(tmp_path, doc))


def test_load_rejects_missing_workload(tmp_path):
    doc = base_doc()
    del doc["workload"]
    with pytest.raises(ConfigError, match="workload"):
        load_experiment(write_config(tmp_path, doc))


def test_load_rejects_two_workload_forms(tmp_path):
    doc = base_doc(workload={"demands": [1], "trace": "x"})
    with pytest.raises(ConfigError, match="exactly one"):
        load_experiment(write_config(tmp_path, doc))


def test_load_rejects_non_integer_where_integer_expected(tmp_path):
    doc = base_doc(quanta="many")
    with pytest.raises(ConfigError, match="quanta"):
        load_experiment(write_config(tmp_path, doc))
    doc = base_doc()
    doc["system"]["memory_latency"] = 99.5
    with pytest.raises(ConfigError, match="memory_latency"):
        load_experiment(write_config(tmp_path, doc))


def test_load_rejects_warmup_not_below_quanta(tmp_path):
    with pytest.raises(ConfigError, match="warmup_quanta"):
        load_experiment(write_config(tmp_path, base_doc(warmup_quanta=3)))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_experiment(str(path))


def test_load_propagates_system_invariants(tmp_path):
    doc = base_doc()
    doc["system"]["window_cycles"] = 999_999
    with pytest.raises(ConfigError, match="window_cycles"):
        load_experiment(write_config(tmp_path, doc))


def test_load_rejects_optimal_on_machine_above_exhaustive_cap(tmp_path):
    doc = base_doc(policies=["serpentine", "optimal"])
    doc["system"].update(num_processors=4, slots_per_processor=4)
    with pytest.raises(ConfigError, match=r"'policies': optimal needs K\*L <= 12 .* = 16"):
        load_experiment(write_config(tmp_path, doc))
    doc["system"].update(num_processors=4, slots_per_processor=3)  # 12 is allowed
    assert load_experiment(write_config(tmp_path, doc)).system.num_threads == 12


@pytest.mark.parametrize(
    "form, where",
    [
        ({"demands": [1, 6]}, "thread 1 phase 0"),
        ({"threads": [{"phases": [[10, 1]]}, {"phases": [[10, 2], [10, 6]]}]}, "thread 1 phase 1"),
        ({"synthetic": {"n_threads": 2, "demand_range": [6, 6]}}, "thread 0 phase 0"),
        ("trace", "thread 1 phase 1"),
    ],
    ids=["demands", "threads", "synthetic", "trace"],
)
def test_over_pool_workload_is_refused_at_load_in_every_form(tmp_path, form, where):
    # every sweep point would fit; the config's own machine does not
    if form == "trace":
        phases = ((Phase(10, 1),), (Phase(10, 2), Phase(10, 6)))
        save_trace(tuple(ThreadWorkload(t, p) for t, p in enumerate(phases)), tmp_path / "w.trace")
        form = {"trace": "w.trace"}
    doc = base_doc(workload=form, sweep={"mshrs_per_processor": [8, 16]})
    doc["system"]["mshrs_per_processor"] = 4
    expected = rf"^config field 'workload': {where}: demand 6 exceeds the 4-entry MSHR pool$"
    with pytest.raises(ConfigError, match=expected):
        load_experiment(write_config(tmp_path, doc))


def test_load_rejects_bad_sweep_key(tmp_path):
    with pytest.raises(ConfigError, match="sweep.policy"):
        load_experiment(write_config(tmp_path, base_doc(sweep={"policy": [1]})))


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({"system": 5}, r"'system': expected an object"),
        ({"workload": {"trace": 5}}, r"'workload.trace': expected a path string, got 5"),
        ({"workload": {"synthetic": {}}}, r"'workload.synthetic.n_threads': required"),
        (
            {"workload": {"synthetic": {"n_threads": 2, "duration_range": 5}}},
            r"'workload.synthetic.duration_range': expected \[min, max\], got 5",
        ),
        (
            {"workload": {"synthetic": {"n_threads": 2, "phases_per_thread": 0}}},
            r"'workload.synthetic': phases_per_thread must be >= 1, got 0",
        ),
        ({"workload": {"threads": {}}}, r"'workload.threads': expected a list of thread objects"),
        ({"workload": {"threads": [{}]}}, r"'workload.threads\[0\].phases': required"),
        (
            {"workload": {"threads": [{"phases": []}]}},
            r"'workload.threads\[0\].phases': expected a non-empty list of \[duration, demand\] pairs",
        ),
        (
            {"workload": {"threads": [{"phases": [[10, 1], [0, 1]]}]}},
            r"'workload.threads\[0\].phases\[1\]': phase duration must be an integer >= 1, got 0",
        ),
        (
            {"workload": {"threads": [{"phases": [[10, 1]], "repeat": "yes"}]}},
            r"'workload.threads\[0\].repeat': expected true or false, got 'yes'",
        ),
        ({"workload": {"demands": 5}}, r"'workload.demands': expected a list of integers"),
        (
            {"workload": {"demands": [1, -1]}},
            r"'workload.demands\[1\]': phase demand must be an integer >= 0, got -1",
        ),
        ({"policies": "serpentine"}, r"'policies': expected a list of policy names"),
        ({"policies": []}, r"'policies': must list at least one policy"),
        ({"quanta": 0}, r"'quanta': must be >= 1, got 0"),
        ({"sweep": {"seed": []}}, r"'sweep.seed': expected a non-empty list of integers"),
        (
            {"workload": {"threads": [{"phases": [[100]]}]}},
            r"'workload.threads\[0\].phases\[0\]': expected \[duration, demand\], got \[100\]",
        ),
        (
            {"workload": {"synthetic": {"n_threads": 2, "demand_range": [3]}}},
            r"'workload.synthetic.demand_range': expected \[min, max\], got \[3\]",
        ),
    ],
)
def test_load_refuses_bad_field_naming_it(tmp_path, overrides, expected):
    with pytest.raises(ConfigError, match=rf"^config field {expected}$"):
        load_experiment(write_config(tmp_path, base_doc(**overrides)))


# running and measuring


def test_run_policies_identical_seeds_across_policies(tmp_path):
    # a loaded config refuses a policy listed twice; a built one may hold it
    config = load_experiment(write_config(tmp_path, base_doc()))
    config = replace(config, policies=(Policy.SERPENTINE, Policy.SERPENTINE))
    a, b = run_policies(config)
    assert a == b  # same policy, same seed, same workloads


def test_measure_excludes_warmup():
    system = SystemConfig(
        num_processors=2,
        slots_per_processor=2,
        mshrs_per_processor=16,
        memory_latency=200,
        quantum_cycles=10_000,
        window_cycles=2_000,
    )
    workloads = tuple(
        ThreadWorkload(t, (Phase(1 << 30, d),)) for t, d in enumerate((12, 2, 12, 2))
    )
    config = ExperimentConfig(
        system=system,
        workloads=workloads,
        policies=(Policy.STATIC, Policy.SERPENTINE),
        quanta=11,
        warmup_quanta=1,
    )
    static_rep, serp_rep = run_policies(config)
    m_static = measure(static_rep, config.warmup_quanta)
    m_serp = measure(serp_rep, config.warmup_quanta)
    # steady totals: worst split holds occupancy 20, serpentine 28 (of any
    # 40 in flight, one completes per latency share)
    assert m_static.throughput == 0.1
    assert m_serp.throughput == 0.13992
    assert m_serp.throughput / m_static.throughput == pytest.approx(1.3992)
    # whole-run numbers differ because the first quantum is included
    assert measure(serp_rep, 0).throughput < m_serp.throughput
    # static samples (8,2,8,2): the contended pair splits the 16-entry pool
    assert m_static.mean_gap == 12.0
    assert m_serp.mean_gap == 0.0


def test_measure_rejects_empty_window():
    system = SystemConfig(quantum_cycles=100, window_cycles=100)
    workloads = tuple(ThreadWorkload(t, (Phase(1 << 30, 0),)) for t in range(16))
    config = ExperimentConfig(system=system, workloads=workloads, policies=(Policy.STATIC,))
    (rep,) = run_policies(config)
    with pytest.raises(ValueError, match="warmup"):
        measure(rep, 1)


def test_measure_adds_float_metrics_left_to_right():
    """Ten quanta of gap 0.1 average to the left-to-right sum over ten,
    0.09999999999999999, on every Python version; the builtin ``sum`` gives
    0.1 from Python 3.12, which would change the summary's bytes."""
    system = SystemConfig(num_processors=2, slots_per_processor=1, quantum_cycles=50, window_cycles=50)
    workloads = (ThreadWorkload(0, (Phase(1 << 30, 1),)), ThreadWorkload(1, (Phase(1 << 30, 0),)))
    report = run_simulation(system, workloads, "static", 0, 10)
    quality = ScheduleQuality(
        per_processor_mlp_sum=(0.1, 0.0),
        max_sum=0.1,
        min_sum=0.0,
        gap=0.1,
        per_processor_oversubscription=(0.1, 0.0),
    )
    report = replace(report, per_quantum=tuple(replace(r, quality=quality) for r in report.per_quantum))
    total = 0.0
    for _ in range(10):
        total += 0.1
    metrics = measure(report)
    assert metrics.mean_gap == total / 10 == 0.09999999999999999
    assert metrics.mean_oversubscription == total / 20


# table writers


def test_quanta_csv_schema(tmp_path):
    config = load_experiment(write_config(tmp_path, base_doc()))
    (rep,) = run_policies(config)
    path = tmp_path / "q.csv"
    write_quanta_csv(rep, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(QUANTA_FIELDS)
    assert len(rows) == 1 + config.quanta * config.system.num_threads
    # row for quantum 0, thread 0 reflects the row-major start
    assert rows[1][:4] == ["0", "0", "0", "0"]


def test_compare_csv_speedup_column(tmp_path):
    doc = base_doc(policies=["static", "serpentine"], quanta=4, warmup_quanta=1)
    config = load_experiment(write_config(tmp_path, doc))
    metrics = [measure(r, config.warmup_quanta) for r in run_policies(config)]
    path = tmp_path / "c.csv"
    write_compare_csv(metrics, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(COMPARE_FIELDS)
    assert rows[1][0] == "static"
    assert float(rows[1][-1]) == 1.0  # first policy against itself
    assert rows[2][0] == "serpentine"
    assert float(rows[2][-1]) == pytest.approx(
        metrics[1].throughput / metrics[0].throughput
    )


def test_summary_is_deterministic_and_complete(tmp_path):
    config = load_experiment(write_config(tmp_path, base_doc(policies=["serpentine", "static"])))
    reports = run_policies(config)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_summary(config, reports, str(a))
    write_summary(config, reports, str(b))
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["policies"] == ["serpentine", "static"]
    assert set(doc["results"]) == {"serpentine", "static"}
    serp = doc["results"]["serpentine"]
    assert serp["totals"]["cycles"] == config.quanta * config.system.quantum_cycles
    assert "throughput" in serp["measured"]


# sweep


def test_sweep_rows_follow_product_order(tmp_path):
    doc = base_doc(
        policies=["static", "serpentine"],
        sweep={"mshrs_per_processor": [8, 16], "seed": [0, 1]},
    )
    config = load_experiment(write_config(tmp_path, doc))
    header, rows = run_sweep(config)
    assert header[:3] == ("mshrs_per_processor", "seed", "policy")
    assert [(r[0], r[1], r[2]) for r in rows] == [
        (8, 0, "static"),
        (8, 0, "serpentine"),
        (8, 1, "static"),
        (8, 1, "serpentine"),
        (16, 0, "static"),
        (16, 0, "serpentine"),
        (16, 1, "static"),
        (16, 1, "serpentine"),
    ]


def test_sweep_requires_sweep_section(tmp_path):
    config = load_experiment(write_config(tmp_path, base_doc()))
    with pytest.raises(ConfigError, match="sweep"):
        run_sweep(config)


def refusing_runs(runs):
    """A ``run_simulation`` stand-in that records its call and fails it.

    A run in a forked child would append to the child's copy of ``runs``
    only; the error reaches the parent from any process.
    """

    def run_simulation(*args):
        runs.append(args)
        raise AssertionError("a sweep point ran before every point was checked")

    return run_simulation


def test_sweep_rejects_optimal_point_before_any_point_runs(tmp_path, monkeypatch):
    # the 4x4 point is last in product order; nothing may simulate before
    # the sweep refuses it
    doc = base_doc(policies=["serpentine", "optimal"], sweep={"num_processors": [2, 3, 4]})
    doc["system"]["slots_per_processor"] = 4
    doc["system"]["num_processors"] = 3
    config = load_experiment(write_config(tmp_path, doc))
    runs = []
    monkeypatch.setattr(experiments, "run_simulation", refusing_runs(runs))
    with pytest.raises(ConfigError, match=r"sweep point \(num_processors=4\): .*'policies': optimal"):
        run_sweep(config)
    assert runs == []


@pytest.mark.parametrize(
    "key, bad, field",
    [
        ("seed", -5, "seed"),
        ("seed", 1 << 64, "seed"),
        ("quanta", 1, "warmup_quanta"),
        ("mshrs_per_processor", 0, "system"),
        ("window_cycles", 401, "system"),
    ],
)
def test_sweep_checks_every_point_as_a_config_before_any_runs(
    tmp_path, monkeypatch, key, bad, field
):
    # the bad value is the last point; it is refused as in a loaded config
    doc = base_doc(quanta=3, warmup_quanta=1)
    doc["sweep"] = {key: [doc["system"].get(key, 3), bad]}
    config = load_experiment(write_config(tmp_path, doc))
    runs = []
    monkeypatch.setattr(experiments, "run_simulation", refusing_runs(runs))
    expected = rf"sweep point \({key}={bad}\): config field '{field}'"
    with pytest.raises(ConfigError, match=expected):
        run_sweep(config)
    assert runs == []


def test_sweep_names_offending_point(tmp_path):
    # mshrs 4 cannot host the demand-6 thread; the error carries the point
    doc = base_doc(sweep={"mshrs_per_processor": [16, 4]})
    config = load_experiment(write_config(tmp_path, doc))
    with pytest.raises(ConfigError, match="mshrs_per_processor=4"):
        run_sweep(config)


# oracle check


def test_oracle_check_balanced_example(tmp_path):
    # demands (8,6,4,2) stay uncontended, so the sampled vector is exactly
    # that and both schedulers reach max_sum 10
    doc = base_doc(workload={"demands": [8, 6, 4, 2]}, quanta=3)
    config = load_experiment(write_config(tmp_path, doc))
    check = run_oracle_check(config)
    assert check.rows[0] == (0, 10.0, 10.0, 1.0)
    assert check.corpus_max_ratio == 1.0


def test_oracle_check_zero_over_zero_is_one(tmp_path):
    doc = base_doc(workload={"demands": [0, 0, 0, 0]}, quanta=2)
    config = load_experiment(write_config(tmp_path, doc))
    check = run_oracle_check(config)
    assert all(row[1:] == (0.0, 0.0, 1.0) for row in check.rows)
    assert check.corpus_max_ratio == 1.0


def test_oracle_check_serpentine_score_is_the_run_quality():
    # run_oracle_check reads serpentine's max-sum from each quantum's
    # quality; that must be the same score as re-deciding and re-scoring
    config = load_experiment(str(CONFIGS / "oracle.json"))
    system = config.system
    padded = pad_workloads(config.workloads, system)
    report = run_simulation(system, padded, Policy.SERPENTINE, config.seed, config.quanta)
    for rec in report.per_quantum:
        mlp = rec.sampled_mlp
        assert rec.quality == processor_load(serpentine_schedule(mlp, system), mlp, system)
    rows = run_oracle_check(config).rows
    assert [row[1] for row in rows] == [rec.quality.max_sum for rec in report.per_quantum]


def test_oracle_check_rejects_large_machines(tmp_path):
    doc = base_doc()
    doc["system"].update(num_processors=4, slots_per_processor=4)
    doc["workload"] = {"demands": [1] * 16}
    config = load_experiment(write_config(tmp_path, doc))
    with pytest.raises(ConfigError, match="12"):
        run_oracle_check(config)


def test_repo_configs_parse_and_pad():
    # pad against the base system and every sweep point: catches configs
    # whose workloads only fit some of the machines they will run on
    for name in ("speedup.json", "demo.json", "oracle.json", "sweep.json"):
        config = load_experiment(str(CONFIGS / name))
        assert config.policies
        pad_workloads(config.workloads, config.system)
        keys = [k for k, _ in config.sweep]
        for combo in itertools.product(*(values for _, values in config.sweep)):
            point = {k: v for k, v in zip(keys, combo) if k not in ("seed", "quanta")}
            pad_workloads(config.workloads, replace(config.system, **point))


# Load-path fuzz: the shipped configs with values replaced and keys deleted.
# Every value here is one that a load-time check refuses before anything is
# allocated for it, or one that costs nothing to load; the configs are only
# loaded, never run, since a config that loads may run for minutes.

SHIPPED_DOCS = {p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
FUZZ_VALUES = (
    True, False, None, "", "x", "serpentine", [], [1], [1, 2], ["x"], {}, float("nan"),
    -1, -(1 << 63), 0, 1, 1 << 31, 1 << 63, 1 << 64,
)


def _places(node, path=()):
    """Every place in a JSON document, as the path of keys and indices to it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _places(child, path + (key,))


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(SHIPPED_DOCS[draw(st.sampled_from(sorted(SHIPPED_DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_places(doc))))
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_a_mutated_shipped_config_loads_or_names_a_field(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_experiment(str(path))
    except ConfigError as exc:
        assert str(exc).startswith("config field '"), str(exc)


# forked map


def forking(monkeypatch, cpus=2, worth=0.0):
    """Make ``_forked_map`` and the oracle check see ``cpus`` CPUs and fork
    once ``worth`` seconds of work are projected; by default a map forks at
    item 0's first quantum boundary, and an oracle check before it scores
    quantum 0."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "_FORK_WORTH_S", worth)


def one_step(fn):
    """``fn`` as a map item of one quantum: the observer, if any, is called
    before ``fn`` runs, as ``run_simulation`` calls it after a quantum."""

    def item(x, observer):
        if observer is not None:
            observer(None)
        return fn(x)

    return item


def forked_map(fn, items):
    """``_forked_map`` over items of one quantum each."""
    return experiments._forked_map(one_step(fn), items, len(items))


FDS = Path("/proc/self/fd")


@contextmanager
def leaves_nothing_behind():
    """The block leaves no child unreaped, no descriptor open (checked where
    ``/proc/self/fd`` lists them), and SIGALRM's handler and ITIMER_REAL as
    it found them."""
    fds = sorted(os.listdir(FDS)) if FDS.is_dir() else None
    handler = signal.getsignal(signal.SIGALRM)
    timer = signal.getitimer(signal.ITIMER_REAL)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == timer
    if fds is not None:
        assert sorted(os.listdir(FDS)) == fds


def wait_for(path, seconds=20):
    """Poll for ``path`` for up to ``seconds``; whether it appeared."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)
    return path.exists()


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "oracle-check"])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_cli_outputs_are_the_same_bytes_serial_and_forked(
    tmp_path, monkeypatch, capsys, command, name
):
    out = tmp_path / "out"
    argv = [command, "--config", str(CONFIGS / name)]
    if command != "oracle-check":
        argv += ["--out", str(out)]
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked_map = experiments._forked_map
    maps = []  # per map of 2+ items, per run of its item 0: per quantum, whether it had forked

    def watched_map(fn, items, steps):
        runs = []
        before = len(forks)

        def indexed(i, observer):
            if i:
                return fn(items[i], observer)
            forked = []
            runs.append(forked)

            def watched(record):
                observer(record)
                forked.append(len(forks) > before)

            return fn(items[0], None if observer is None else watched)

        if len(items) >= 2:
            maps.append(runs)
        return forked_map(indexed, list(range(len(items))), steps)

    monkeypatch.setattr(experiments, "_forked_map", watched_map)
    pays = experiments._pays
    given, forks_made, mapped = [], [], []
    # serial; forking at item 0's first quantum boundary (oracle-check:
    # before quantum 0); forking once three quanta are timed, mid-item: at
    # item 0's fourth boundary, as the map's clock starts at its first
    # (oracle-check: after three quanta); 3 CPUs, forking at once
    mid_item = lambda seconds, done, left: done >= 3  # noqa: E731
    settings = ((1, pays), (2, lambda *_: True), (2, mid_item), (3, lambda *_: True))
    for cpus, rule in settings:
        monkeypatch.setattr(experiments, "_usable_cpus", lambda n=cpus: n)
        monkeypatch.setattr(experiments, "_pays", rule)
        shutil.rmtree(out, ignore_errors=True)
        forks.clear()
        maps.clear()
        code = main(argv)
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        given.append((code, capsys.readouterr(), written))
        forks_made.append(len(forks))
        mapped.append(list(maps))
    assert given[0] == given[1] == given[2] == given[3]
    # the serial run never forks; the second forks wherever a map has two items
    several = command in ("sweep", "oracle-check") or len(load_experiment(argv[2]).policies) > 1
    assert forks_made[0] == 0
    assert forks_made[1] > 0 or given[1][0] != 0 or not several
    # oracle-check on 3 CPUs streams its quanta to two workers' strided shares
    if command == "oracle-check" and given[3][0] == 0:
        assert forks_made[3] == 2
    # item 0 runs once in every map, in the parent; the forking settings fork
    # at the boundary they name, the mid-item one with item 0's quanta left
    for i, first in ((1, 0), (2, 3), (3, 0)):
        for runs in mapped[i]:
            assert len(runs) == 1
            assert runs[0] == [q >= first for q in range(len(runs[0]))]
            assert len(runs[0]) > first + 1 or i != 2
    assert all(len(runs) == 1 for runs in mapped[0])


def test_forked_map_keeps_item_order_across_processes(monkeypatch):
    forking(monkeypatch, cpus=3)
    with leaves_nothing_behind():
        results = forked_map(lambda x: (x * x, os.getpid()), list(range(10)))
    assert [square for square, _ in results] == [x * x for x in range(10)]
    # 10 items on 3 CPUs: 4 shares of at most 3 items each
    assert len({pid for _, pid in results}) == 4


@pytest.mark.parametrize(
    "n, cpus, processes, most", [(5, 2, 3, 2), (6, 2, 2, 3), (10, 3, 4, 3), (3, 8, 3, 1)]
)
def test_forked_map_shares_hold_at_most_n_over_cpus_items(monkeypatch, n, cpus, processes, most):
    forking(monkeypatch, cpus=cpus)
    with leaves_nothing_behind():
        pids = forked_map(lambda x: os.getpid(), list(range(n)))
    per_process = collections.Counter(pids)
    assert len(per_process) == processes
    assert max(per_process.values()) == most
    assert pids[0] == os.getpid()


def test_children_start_while_item_0_still_runs(monkeypatch, tmp_path):
    # Item 0 waits for item 1's process to start.  The map forks at item
    # 0's first quantum boundary; a map that forked only once item 0 had
    # ended would wait 20 s and then run item 1 too late for item 0 to see it.
    forking(monkeypatch)
    marker = tmp_path / "item 1 started"

    def fn(x):
        if x == 1:
            marker.touch()
            return os.getpid()
        return wait_for(marker)

    with leaves_nothing_behind():
        saw, pid = forked_map(fn, [0, 1])
    assert saw
    assert pid != os.getpid()


def test_forked_map_runs_item_0_once_and_forks_while_it_has_quanta_left(monkeypatch, tmp_path):
    # Item 0 runs 10 quanta of about 1 ms and items 1 and 2 one each, so
    # after its first quantum about 11 ms of work are projected, past the
    # 1 ms threshold.  At its fifth quantum item 0 waits for a child's
    # marker, which only a child forked before that quantum can leave.
    forking(monkeypatch, worth=0.001)
    parent = os.getpid()
    marker = tmp_path / "a child ran"
    starts = []
    saw = []

    def fn(x, observer):
        if os.getpid() != parent:
            marker.touch()
        elif x == 0:
            starts.append(x)
            for quantum in range(10):
                time.sleep(0.001)
                observer(None)
                if quantum == 4:
                    saw.append(wait_for(marker))
        return x * x

    with leaves_nothing_behind():
        results = experiments._forked_map(fn, [0, 1, 2], 12)
    assert starts == [0]
    assert saw == [True]
    assert results == [0, 1, 4]


# 1000 s of work is never projected
@pytest.mark.parametrize("cpus, worth", [(1, 0.0), (2, 1000.0)])
def test_forked_map_stays_in_process_without_two_cpus_or_enough_work(
    monkeypatch, cpus, worth
):
    forking(monkeypatch, cpus=cpus, worth=worth)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    with leaves_nothing_behind():
        assert forked_map(lambda x: -x, [3, 1, 2]) == [-3, -1, -2]
        assert forked_map(lambda x: -x, []) == []


def in_a_thread(call):
    results = []
    thread = threading.Thread(target=lambda: results.append(call()))
    thread.start()
    thread.join(30)
    assert not thread.is_alive()
    return results[0]


def test_forked_map_stays_in_process_while_another_thread_runs(monkeypatch):
    forking(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    with leaves_nothing_behind():
        assert in_a_thread(lambda: forked_map(lambda x: -x, [3, 1, 2])) == [-3, -1, -2]


@pytest.mark.parametrize("owner", ["caller's timer", "caller's handler"])
def test_forked_map_forks_and_keeps_a_callers_alarm(monkeypatch, owner):
    forking(monkeypatch)
    handler = lambda *_: None  # noqa: E731
    call = lambda: forked_map(lambda x: (-x, os.getpid()), [3, 1, 2])  # noqa: E731
    with leaves_nothing_behind():
        if owner == "caller's handler":
            previous = signal.signal(signal.SIGALRM, handler)
            try:
                results = call()
                assert signal.getsignal(signal.SIGALRM) is handler
            finally:
                signal.signal(signal.SIGALRM, previous)
        else:
            # SIGALRM's default action ends the process, so the timer is
            # long and disarmed whatever happens
            signal.setitimer(signal.ITIMER_REAL, 1000)
            try:
                results = call()
                left, interval = signal.getitimer(signal.ITIMER_REAL)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert 990 < left <= 1000
            assert interval == 0
            assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert [value for value, _ in results] == [-3, -1, -2]
    # 3 items on 2 CPUs: 3 shares of one item each
    assert len({pid for _, pid in results}) == 3


def test_child_run_inside_another_runs_observer_matches_a_fresh_run():
    config = load_experiment(str(CONFIGS / "demo.json"))
    system, workloads, seed, quanta = config.system, config.workloads, config.seed, config.quanta
    policies = list(Policy)
    fresh = {p: run_simulation(system, workloads, p, seed, quanta) for p in policies}
    inner = []

    def observer(record):
        policy = policies[record.index % len(policies)]
        inner.append((policy, run_simulation(system, workloads, policy, seed, quanta)))

    outer = run_simulation(system, workloads, Policy.RANDOM, seed, quanta, observer)
    assert outer == fresh[Policy.RANDOM]
    assert len(inner) == quanta
    for policy, report in inner:
        assert report == fresh[policy]


@pytest.mark.parametrize("form", ["threads", "trace"])
@pytest.mark.parametrize("penalty", [0, 1000])
def test_forked_batch_continuing_from_one_start_matches_independent_runs(
    tmp_path, monkeypatch, penalty, form
):
    # run_policies simulates the set-up and quantum 0 once, before the map,
    # and every run, in this process or in a forked child that inherited
    # the start, continues from a copy of it.  Thread 1 does not repeat.
    threads = [
        {"phases": [[700, 5], [1300, 1], [400, 7]]},
        {"phases": [[2500, 6], [900, 2]], "repeat": False},
        {"phases": [[300, 3], [300, 8], [1100, 0]]},
        {"phases": [[5000, 4]]},
        {"phases": [[600, 8], [600, 8], [1800, 2]]},
    ]
    doc = base_doc(
        system={
            "num_processors": 2,
            "slots_per_processor": 3,
            "mshrs_per_processor": 8,
            "memory_latency": 100,
            "quantum_cycles": 2000,
            "window_cycles": 500,
            "migration_penalty": penalty,
        },
        workload={"threads": threads},
        policies=[p.value for p in Policy],
        quanta=6,
        seed=3,
    )
    config = c = load_experiment(write_config(tmp_path, doc))
    if form == "trace":
        save_trace(c.workloads, str(tmp_path / "threads.trace"))
        doc["workload"] = {"trace": "threads.trace"}
        config = load_experiment(write_config(tmp_path, doc))
        assert config.workloads == c.workloads
    independent = [run_simulation(c.system, c.workloads, p, c.seed, c.quanta) for p in c.policies]
    starts = []
    start = experiments.Start
    monkeypatch.setattr(experiments, "Start", lambda *args: starts.append(1) or start(*args))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (1, 2, 3):
        forking(monkeypatch, cpus=cpus)
        forks.clear()
        with leaves_nothing_behind():
            assert run_policies(config) == independent
        assert bool(forks) == (cpus > 1)
    assert len(starts) == 3


def test_forked_sweep_continues_each_point_from_one_start(tmp_path, monkeypatch):
    # run_sweep builds one start per point, before the map, and every
    # (point, policy) run, in this process or in a forked child that
    # inherited the point's start, continues from a copy of it.
    doc = base_doc(
        system={
            "num_processors": 2,
            "slots_per_processor": 3,
            "mshrs_per_processor": 8,
            "memory_latency": 100,
            "quantum_cycles": 2000,
            "window_cycles": 500,
        },
        workload={
            "threads": [
                {"phases": [[700, 5], [1300, 1], [400, 7]]},
                {"phases": [[2500, 6], [900, 2]], "repeat": False},
                {"phases": [[300, 3], [300, 8], [1100, 0]]},
                {"phases": [[5000, 4]]},
            ]
        },
        policies=["serpentine", "random", "static"],
        quanta=5,
        warmup_quanta=1,
        seed=3,
        sweep={"migration_penalty": [0, 1000], "quanta": [4, 6]},
    )
    config = load_experiment(write_config(tmp_path, doc))
    independent = []
    for penalty, quanta in itertools.product([0, 1000], [4, 6]):
        system = replace(config.system, migration_penalty=penalty)
        for policy in config.policies:
            report = run_simulation(system, config.workloads, policy, config.seed, quanta)
            m = measure(report, config.warmup_quanta)
            independent.append(
                (penalty, quanta, policy.value, m.throughput, m.total_stalls)
                + (m.mean_gap, m.mean_oversubscription)
            )
    starts = []
    start = experiments.Start
    monkeypatch.setattr(experiments, "Start", lambda *args: starts.append(args) or start(*args))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (1, 2, 3):
        forking(monkeypatch, cpus=cpus)
        forks.clear()
        starts.clear()
        with leaves_nothing_behind():
            header, rows = run_sweep(config)
        assert header[:3] == ("migration_penalty", "quanta", "policy")
        assert rows == independent
        assert bool(forks) == (cpus > 1)
        # one start per point, each for that point's machine
        assert [args[0].migration_penalty for args in starts] == [0, 0, 1000, 1000]


def test_child_exception_reaches_the_parent_with_its_type_and_message(monkeypatch):
    forking(monkeypatch)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            raise ConfigError(f"item {x} failed in a child")
        return x

    # the parent keeps item 0; items 1 and 2 go to a child each, and the
    # first child's error is raised
    with leaves_nothing_behind():
        with pytest.raises(ConfigError, match=r"^item 1 failed in a child$"):
            forked_map(fn, [0, 1, 2])


class Unpicklable(Exception):
    """An exception that cannot be sent back from a child."""

    def __reduce__(self):
        raise TypeError("not picklable")


def test_child_exception_that_does_not_pickle_reaches_the_parent_by_type_and_message(
    monkeypatch,
):
    forking(monkeypatch)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            raise Unpicklable(f"bad {x}")
        return x

    with leaves_nothing_behind():
        with pytest.raises(RuntimeError, match=r"^Unpicklable: bad 1$"):
            forked_map(fn, [0, 1, 2])


def closure(x):
    return lambda: x


def test_child_result_that_does_not_pickle_reaches_the_parent_as_the_pickling_error(
    monkeypatch,
):
    forking(monkeypatch)
    parent = os.getpid()
    with pytest.raises(Exception) as expected:
        pickle.dumps((True, [closure(1)]), pickle.HIGHEST_PROTOCOL)

    def fn(x):
        return x if os.getpid() == parent else closure(x)

    with leaves_nothing_behind():
        with pytest.raises(type(expected.value)) as err:
            forked_map(fn, [0, 1])
    assert str(err.value) == str(expected.value)


def test_child_that_exits_without_results_names_its_exit_status(monkeypatch):
    forking(monkeypatch)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with leaves_nothing_behind():
        with pytest.raises(ChildProcessError, match="exit status 3"):
            forked_map(fn, [0, 1, 2])


def test_interrupt_in_the_parent_ends_and_reaps_a_busy_child(monkeypatch):
    forking(monkeypatch)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            time.sleep(60)
        elif x == 2:
            raise KeyboardInterrupt
        return x

    # 4 items on 2 CPUs: the parent's share is items 0 and 2, the child's 1 and 3
    start = time.perf_counter()
    with leaves_nothing_behind():
        with pytest.raises(KeyboardInterrupt):
            forked_map(fn, [0, 1, 2, 3])
    assert time.perf_counter() - start < 30


def test_interrupt_in_item_0_after_the_fork_ends_and_reaps_busy_children(monkeypatch, tmp_path):
    forking(monkeypatch)
    parent = os.getpid()
    marker = tmp_path / "a child started"

    def fn(x):
        if os.getpid() != parent:
            marker.touch()
            time.sleep(60)
        elif x == 0 and wait_for(marker):
            raise KeyboardInterrupt
        return x

    start = time.perf_counter()
    with leaves_nothing_behind():
        with pytest.raises(KeyboardInterrupt):
            forked_map(fn, [0, 1, 2])
    assert time.perf_counter() - start < 30


# streamed oracle check


def oracle_doc(processors, slots, quanta):
    """A machine with 8-cycle quanta, whose threads change demand every few
    cycles so the sampled vectors vary from quantum to quantum."""
    threads = [
        {"phases": [[3 + t % 5, 1 + t % 4], [2 + t % 3, t % 2]]} for t in range(processors * slots)
    ]
    system = {
        "num_processors": processors,
        "slots_per_processor": slots,
        "mshrs_per_processor": 4,
        "memory_latency": 5,
        "quantum_cycles": 8,
        "window_cycles": 8,
    }
    return {
        "system": system,
        "workload": {"threads": threads},
        "policies": ["serpentine"],
        "quanta": quanta,
    }


def oracle_stdout(capsys, path):
    assert main(["oracle-check", "--config", path]) == 0
    return capsys.readouterr().out


def serial_oracle_stdout(monkeypatch, capsys, path):
    forking(monkeypatch, cpus=1)
    return oracle_stdout(capsys, path)


def recording_forks(monkeypatch):
    """The pid of every child ``os.fork`` makes from here on, in order."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def recording_write_errors(monkeypatch):
    """The type of every error ``os.write`` raises from here on."""
    errors = []
    write = os.write

    def recorded(fd, data):
        try:
            return write(fd, data)
        except OSError as exc:
            errors.append(type(exc))
            raise

    monkeypatch.setattr(os, "write", recorded)
    return errors


def at_decision(monkeypatch, index, action):
    """Call ``action`` in this process just before the run's decision on
    quantum ``index``, which comes before that quantum is scored."""
    decide = engine.next_schedule
    parent = os.getpid()
    decisions = itertools.count()

    def decided(*args):
        if os.getpid() == parent and next(decisions) == index:
            action()
        return decide(*args)

    monkeypatch.setattr(engine, "next_schedule", decided)


def test_oracle_check_forks_and_fills_no_pipe_on_a_long_run_of_tiny_quanta(
    tmp_path, monkeypatch, capsys
):
    # 13,000 quanta: more 8-byte results (8,192) plus 16-byte vectors
    # (4,096) than two 64 KiB pipes hold, so a parent that read the results
    # only once the run ended would wait on a worker waiting on it
    path = write_config(tmp_path, oracle_doc(1, 2, 13_000))
    serial = serial_oracle_stdout(monkeypatch, capsys, path)
    forking(monkeypatch, cpus=2)
    pids = recording_forks(monkeypatch)
    with leaves_nothing_behind():
        assert oracle_stdout(capsys, path) == serial
    assert len(pids) == 1


def test_oracle_check_fork_holds_the_vectors_a_stalled_worker_has_no_room_for(
    tmp_path, monkeypatch, capsys
):
    # 1,000 vectors of 12 doubles are 96,000 bytes, more than a 64 KiB pipe
    # holds; the worker scores nothing before the run has made 800 of them
    path = write_config(tmp_path, oracle_doc(1, 12, 1_000))
    serial = serial_oracle_stdout(monkeypatch, capsys, path)
    forking(monkeypatch, cpus=2)
    parent = os.getpid()
    marker = tmp_path / "the run is at quantum 800"
    optimal = experiments.optimal_partition

    def stalled(*args):
        if os.getpid() != parent:
            assert wait_for(marker)
        return optimal(*args)

    monkeypatch.setattr(experiments, "optimal_partition", stalled)
    at_decision(monkeypatch, 800, marker.touch)
    errors = recording_write_errors(monkeypatch)
    with leaves_nothing_behind():
        assert oracle_stdout(capsys, path) == serial
    assert BlockingIOError in errors


def test_oracle_check_fork_survives_a_worker_that_exits_before_reading(
    tmp_path, monkeypatch, capsys
):
    path = write_config(tmp_path, oracle_doc(2, 2, 300))
    serial = serial_oracle_stdout(monkeypatch, capsys, path)
    forking(monkeypatch, cpus=2)
    monkeypatch.setattr(_fork, "_serve", lambda *args: os._exit(3))
    with leaves_nothing_behind():
        assert oracle_stdout(capsys, path) == serial


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_oracle_check_fork_survives_a_worker_killed_mid_run(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, oracle_doc(2, 2, 300))
    serial = serial_oracle_stdout(monkeypatch, capsys, path)
    forking(monkeypatch, cpus=2)
    pids = recording_forks(monkeypatch)

    def kill_the_worker():
        os.kill(pids[0], signal.SIGKILL)
        # wait for it to end, but leave it for the check to reap
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)

    at_decision(monkeypatch, 100, kill_the_worker)
    errors = recording_write_errors(monkeypatch)
    with leaves_nothing_behind():
        assert oracle_stdout(capsys, path) == serial
    assert BrokenPipeError in errors


def test_interrupt_in_the_oracle_check_run_kills_and_reaps_its_forked_worker(
    tmp_path, monkeypatch
):
    config = load_experiment(write_config(tmp_path, oracle_doc(2, 2, 300)))
    forking(monkeypatch, cpus=2)
    parent = os.getpid()
    marker = tmp_path / "the worker started"
    optimal = experiments.optimal_partition

    def busy(*args):
        if os.getpid() != parent:
            marker.touch()
            time.sleep(60)
        return optimal(*args)

    def interrupt():
        assert wait_for(marker)
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "optimal_partition", busy)
    at_decision(monkeypatch, 5, interrupt)
    start = time.perf_counter()
    with leaves_nothing_behind():
        with pytest.raises(KeyboardInterrupt):
            run_oracle_check(config)
    assert time.perf_counter() - start < 30
