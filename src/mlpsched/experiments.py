"""Experiment plumbing: JSON configs, simulation batches, tables on disk.

An experiment config is one JSON document bundling the machine shape, a
workload source, a policy list, and run lengths.  The helpers here load and
validate that document (errors name the offending field), run each policy on
identical workloads and seeds, and emit schema-stable tables:

* per-quantum CSV, one row per (quantum, thread);
* a JSON run summary per batch;
* a policy comparison CSV with speedups against the first-listed policy;
* a sweep CSV over a cartesian product of config values.

Independent runs (the policies of a batch, every (point, policy) run of a
sweep) go to forked processes, in shares of at most max(1, runs // CPUs)
runs each.  Each config's batch, and each sweep point's, simulates its
set-up and quantum 0 once, before the map, and every run of it continues
from a copy.  Both forking paths decide between quanta, with one rule
(``_pays``): the map times the quanta of its first run after the first,
and once the quanta left are worth a fork it forks the other shares from
there, while that run goes on in the parent (``_forked_map``).  An oracle
check scores each quantum while its run goes on, and once the decisions
left are worth a fork it streams them to forked workers
(``run_oracle_check``).  The results are the same whatever the CPU count;
without ``os.fork`` everything runs in one process.

Data files never embed timestamps, so identical inputs give identical bytes.
Floats are written in shortest round-trip form (``str``).  Summary metrics
can exclude the first ``warmup_quanta`` quanta so steady-state comparisons
ignore the fixed row-major start; the per-quantum CSV always keeps every
quantum.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import os
import sys
from contextlib import contextmanager
from functools import reduce
from time import perf_counter
from typing import Callable, Iterable, Sequence

from .core import (
    ConfigError,
    SystemConfig,
    Value,
    _cut,
    _shown,
    _slots,
    asdict,
    processor_load,
    replace,
)
from .engine import SimulationReport, Start, _steps, run_simulation
from .policies import (
    Policy,
    _check_oracle_cap,
    optimal_partition,
    serpentine_schedule,  # noqa: F401  perfbench/traced.py times calls through this name
)
from .workload import (
    IDLE_PHASE_DURATION,
    Phase,
    ThreadWorkload,
    WorkloadSpec,
    generate_synthetic,
    load_trace,
    pad_workloads,
)

__all__ = [
    "COMPARE_FIELDS",
    "ExperimentConfig",
    "OracleCheck",
    "PolicyMetrics",
    "QUANTA_FIELDS",
    "SWEEPABLE_FIELDS",
    "load_experiment",
    "measure",
    "run_oracle_check",
    "run_policies",
    "run_sweep",
    "speedup",
    "write_compare_csv",
    "write_quanta_csv",
    "write_summary",
    "write_sweep_csv",
]

QUANTA_FIELDS = ("quantum", "thread", "processor", "slot", "sampled_mlp", "completed", "stalls")
_SYSTEM_FIELDS = SystemConfig._fields
SWEEPABLE_FIELDS = _SYSTEM_FIELDS + ("seed", "quanta")

_MAX_SEED = 1 << 64
# What a config may ask for, refused before anything is padded or generated:
# a run holds per-thread state for every one of the machine's K*L slots, the
# synthetic form draws every phase it lists, a report keeps a record of
# every thread in every quantum, and every step end a run passes is an event
# (1.3-2.6 us each on a 2-vCPU host, CPython 3.11), where idle cycles cost
# almost nothing.
_MAX_SLOTS = 1 << 16
_MAX_SYNTHETIC_PHASES = 1 << 20
_MAX_THREAD_QUANTA = 1 << 20
_MAX_STEP_ENDS = 1 << 22


def _fail(field: str, problem: str) -> ConfigError:
    return ConfigError(f"config field '{field}': {problem}")


@contextmanager
def _naming(field: str):
    """Re-raise a value check's error as a config error that names ``field``."""
    try:
        yield
    except ValueError as exc:
        raise _fail(field, str(exc)) from exc


class ExperimentConfig(Value):
    """One experiment: machine, workloads (unpadded), policies, run lengths.

    The workloads are checked against the machine here, so every loaded
    config, ``--seed`` override and sweep point (each a ``core.replace``
    of the config) is checked; they are padded to K*L threads at run time.
    """

    system: SystemConfig
    workloads: tuple[ThreadWorkload, ...]
    policies: tuple[Policy, ...]
    quanta: int = 1
    warmup_quanta: int = 0
    seed: int = 0
    sweep: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def _check(self) -> None:
        if not self.policies:
            raise _fail("policies", "must list at least one policy")
        if self.quanta < 1:
            raise _fail("quanta", f"must be >= 1, got {_shown(self.quanta)}")
        if not 0 <= self.warmup_quanta < self.quanta:
            raise _fail(
                "warmup_quanta",
                f"must be in [0, quanta), got {_shown(self.warmup_quanta)} "
                f"with quanta {_shown(self.quanta)}",
            )
        if not 0 <= self.seed < _MAX_SEED:
            raise _fail("seed", f"must be in [0, 2^64), got {_shown(self.seed)}")
        if Policy.OPTIMAL in self.policies:
            with _naming("policies"):
                _check_oracle_cap(self.system)
        if self.system.num_threads > _MAX_SLOTS:
            raise _fail(
                "system",
                f"the machine has {_slots(self.system)} slots, more than {_MAX_SLOTS}",
            )
        thread_quanta = self.quanta * self.system.num_threads
        if thread_quanta > _MAX_THREAD_QUANTA:
            raise _fail(
                "quanta",
                f"quanta * K*L = {_shown(self.quanta)}*{self.system.num_threads} = "
                f"{_shown(thread_quanta)} thread-quanta, more than {_MAX_THREAD_QUANTA}",
            )
        cycles = self.quanta * self.system.quantum_cycles
        # A step lasts a cycle or more, so a thread ends at most one a cycle;
        # only a run that might pass the bound counts its steps.
        busy = sum(w.repeat and len(w.phases) > 1 for w in self.workloads)
        if cycles * busy > _MAX_STEP_ENDS:
            ends = _step_ends(self.workloads, cycles)
            if ends > _MAX_STEP_ENDS:
                raise _fail(
                    "quanta",
                    f"a run of quanta * quantum_cycles = {_shown(self.quanta)}*"
                    f"{_shown(self.system.quantum_cycles)} = {_shown(cycles)} cycles passes "
                    f"{_shown(ends)} step ends, more than {_MAX_STEP_ENDS}",
                )
        with _naming("workload"):
            pad_workloads(self.workloads, self.system)


def _step_ends(workloads: Sequence[ThreadWorkload], cycles: int) -> int:
    """The step ends a run of ``cycles`` cycles passes, about: over the
    repeating threads with two or more steps (the engine's ``_steps``), the
    run's cycles divided by the thread's lap, times its steps per lap."""
    ends = 0
    for w in workloads:
        steps = _steps(w)
        if w.repeat and len(steps) > 1:
            ends += cycles * len(steps) // sum(duration for duration, _ in steps)
    return ends


def _section(
    value, field: str, known: Sequence[str], required: Sequence[str] = (), unknown="unknown field"
) -> dict:
    """``value`` as a JSON object, checked in order: it is an object, it has
    no key outside ``known`` (refused with ``unknown``), and it has every
    ``required`` key.  Keys are named ``field.key``; the document's field is
    ``""``.
    """
    if not isinstance(value, dict):
        raise _fail(field or "<document>", "expected an object")
    prefix = f"{field}." if field else ""
    for key in value:
        if key not in known:
            raise _fail(prefix + _cut(key), unknown)
    for key in required:
        if key not in value:
            raise _fail(prefix + key, "required")
    return value


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(field, f"expected an integer, got {_shown(value)}")
    return value


def _as_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(field, f"expected true or false, got {_shown(value)}")
    return value


def _as_range(value, field: str, shape: str = "[min, max]") -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(field, f"expected {shape}, got {_shown(value)}")
    return (_as_int(value[0], field), _as_int(value[1], field))


_WORKLOAD_FORMS = ("trace", "synthetic", "threads", "demands")

# The WorkloadSpec fields of the ``workload.synthetic`` section, each with its parser.
_SPEC_PARSERS = {
    "phases_per_thread": _as_int,
    "duration_range": _as_range,
    "demand_range": _as_range,
    "repeat": _as_bool,
}


def _parse_system(section) -> SystemConfig:
    section = _section(section, "system", _SYSTEM_FIELDS)
    fields = {k: _as_int(v, f"system.{k}") for k, v in section.items()}
    with _naming("system"):
        return SystemConfig(**fields)


def _parse_phases(raw, field: str) -> tuple[Phase, ...]:
    if not isinstance(raw, list) or not raw:
        raise _fail(field, "expected a non-empty list of [duration, demand] pairs")
    phases = []
    for i, pair in enumerate(raw):
        duration, demand = _as_range(pair, f"{field}[{i}]", "[duration, demand]")
        with _naming(f"{field}[{i}]"):
            phases.append(Phase(duration=duration, demand=demand))
    return tuple(phases)


def _parse_workloads(
    section, config_dir: str, system: SystemConfig
) -> tuple[ThreadWorkload, ...]:
    """Materialize the workload source; exactly one source form is allowed.

    Forms: ``trace`` (path, relative to the config file), ``synthetic``
    (WorkloadSpec fields + n_threads + seed), ``threads`` (explicit phase
    lists), or ``demands`` (shorthand: one constant-demand repeating phase
    per thread).  A synthetic thread count above the machine's K*L slots,
    or more than ``_MAX_SYNTHETIC_PHASES`` phases over all threads, is
    refused before any thread is generated.
    """
    section = _section(section, "workload", _WORKLOAD_FORMS)
    forms = [k for k in _WORKLOAD_FORMS if k in section]
    if len(forms) != 1:
        raise _fail("workload", f"provide exactly one of {', '.join(_WORKLOAD_FORMS)}")
    form = forms[0]
    raw = section[form]

    if form == "trace":
        if not isinstance(raw, str):
            raise _fail("workload.trace", f"expected a path string, got {_shown(raw)}")
        path = raw if os.path.isabs(raw) else os.path.join(config_dir, raw)
        with _naming("workload.trace"):
            return load_trace(path)

    if form == "synthetic":
        raw = _section(
            raw, "workload.synthetic", ("n_threads", "seed", *_SPEC_PARSERS), ("n_threads",)
        )
        n_threads = _as_int(raw["n_threads"], "workload.synthetic.n_threads")
        if n_threads > system.num_threads:
            raise _fail(
                "workload.synthetic.n_threads",
                f"{_shown(n_threads)} threads but the machine has {_slots(system)} slots",
            )
        seed = _as_int(raw.get("seed", 0), "workload.synthetic.seed")
        spec_kwargs = {
            key: parse(raw[key], f"workload.synthetic.{key}")
            for key, parse in _SPEC_PARSERS.items()
            if key in raw
        }
        with _naming("workload.synthetic"):
            spec = WorkloadSpec(**spec_kwargs)
        phases = n_threads * spec.phases_per_thread
        if phases > _MAX_SYNTHETIC_PHASES:
            raise _fail(
                "workload.synthetic.phases_per_thread",
                f"n_threads * phases_per_thread = {_shown(n_threads)}*"
                f"{_shown(spec.phases_per_thread)} = {_shown(phases)} phases, "
                f"more than {_MAX_SYNTHETIC_PHASES}",
            )
        with _naming("workload.synthetic"):
            return generate_synthetic(spec, n_threads, seed)

    if form == "threads":
        if not isinstance(raw, list):
            raise _fail("workload.threads", "expected a list of thread objects")
        out = []
        for i, entry in enumerate(raw):
            entry = _section(entry, f"workload.threads[{i}]", ("phases", "repeat"), ("phases",))
            phases = _parse_phases(entry["phases"], f"workload.threads[{i}].phases")
            repeat = _as_bool(entry.get("repeat", True), f"workload.threads[{i}].repeat")
            out.append(ThreadWorkload(thread=i, phases=phases, repeat=repeat))
        return tuple(out)

    # demands: one repeating constant-demand phase per listed thread
    if not isinstance(raw, list):
        raise _fail("workload.demands", "expected a list of integers")
    out = []
    for i, d in enumerate(raw):
        demand = _as_int(d, f"workload.demands[{i}]")
        with _naming(f"workload.demands[{i}]"):
            phase = Phase(duration=IDLE_PHASE_DURATION, demand=demand)
        out.append(ThreadWorkload(thread=i, phases=(phase,), repeat=True))
    return tuple(out)


def _parse_policies(raw) -> tuple[Policy, ...]:
    if not isinstance(raw, list):
        raise _fail("policies", "expected a list of policy names")
    out = []
    for name in raw:
        try:
            policy = Policy(name)
        except ValueError:
            known = ", ".join(p.value for p in Policy)
            raise _fail("policies", f"unknown policy {_shown(name)} (known: {known})") from None
        if policy in out:
            raise _fail("policies", f"{policy.value} is listed twice")
        out.append(policy)
    return tuple(out)


def _parse_sweep(raw) -> tuple[tuple[str, tuple[int, ...]], ...]:
    unsweepable = f"not sweepable (choose from {', '.join(SWEEPABLE_FIELDS)})"
    raw = _section(raw, "sweep", SWEEPABLE_FIELDS, unknown=unsweepable)
    out = []
    for key, values in raw.items():
        if not isinstance(values, list) or not values:
            raise _fail(f"sweep.{key}", "expected a non-empty list of integers")
        out.append((key, tuple(_as_int(v, f"sweep.{key}") for v in values)))
    return tuple(out)


def load_experiment(path: str) -> ExperimentConfig:
    """Parse and validate one experiment config document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: not valid JSON ({exc})") from exc
        except ValueError as exc:  # not UTF-8, or an integer past the interpreter's digit limit
            raise ConfigError(f"config {path}: cannot be parsed ({exc})") from None
        except RecursionError:
            raise ConfigError(f"config {path}: nested too deeply to parse") from None
    known = ("system", "workload", "policies", "quanta", "warmup_quanta", "seed", "sweep")
    doc = _section(doc, "", known, ("workload", "policies"))
    system = _parse_system(doc.get("system", {}))
    return ExperimentConfig(
        system=system,
        workloads=_parse_workloads(
            doc["workload"], os.path.dirname(os.path.abspath(path)), system
        ),
        policies=_parse_policies(doc["policies"]),
        quanta=_as_int(doc.get("quanta", 1), "quanta"),
        warmup_quanta=_as_int(doc.get("warmup_quanta", 0), "warmup_quanta"),
        seed=_as_int(doc.get("seed", 0), "seed"),
        sweep=_parse_sweep(doc["sweep"]) if "sweep" in doc else (),
    )


class PolicyMetrics(Value):
    """Steady-state metrics for one run, taken over the post-warmup quanta.

    ``mean_gap`` and ``mean_oversubscription`` average the quality of each
    quantum's chosen schedule against that quantum's sampled counters
    (oversubscription additionally averages across processors).
    """

    policy: Policy
    throughput: float
    total_stalls: int
    mean_gap: float
    mean_oversubscription: float


COMPARE_FIELDS = PolicyMetrics._fields + ("speedup",)


def _row(m: PolicyMetrics) -> tuple:
    """``m``'s fields in order, the policy by name: one run's row of the
    compare and sweep tables, and its summary's ``measured`` values."""
    return (m.policy.value, *[getattr(m, name) for name in PolicyMetrics._fields[1:]])


def _left_to_right(values) -> float:
    """Add floats in order, one rounding per step.

    From Python 3.12 the builtin ``sum`` compensates float rounding, so its
    last digit can differ from this, and the output files would differ
    between Python versions.
    """
    return reduce(operator.add, values, 0)


def measure(report: SimulationReport, warmup_quanta: int = 0) -> PolicyMetrics:
    records = report.per_quantum[warmup_quanta:]
    if not records:
        raise ValueError(
            f"warmup_quanta {warmup_quanta} leaves no quanta to measure "
            f"(run had {len(report.per_quantum)})"
        )
    cycles = len(records) * report.config.quantum_cycles
    k = report.config.num_processors
    completed = sum(sum(r.completed) for r in records)
    stalls = sum(sum(r.stalls) for r in records)
    gap_sum = _left_to_right(r.quality.gap for r in records)
    over_sum = _left_to_right(
        _left_to_right(r.quality.per_processor_oversubscription) for r in records
    )
    return PolicyMetrics(
        policy=report.policy,
        throughput=completed / cycles,
        total_stalls=stalls,
        mean_gap=gap_sum / len(records),
        mean_oversubscription=over_sum / (len(records) * k),
    )


# Forking pays only when the work it moves off the parent is well above a
# fork round trip: pipe, fork, pickle, read to EOF and waitpid took a median
# 2.4-2.9 ms in-process on a 2-vCPU VM (BENCH_forked_map.json).  About ten
# round trips; the tiny shipped configs stay below it.  Both forking callers
# apply it between quanta (``_pays``): the map after each quantum of its
# first item, the oracle check after each quantum it scores itself.
_FORK_WORTH_S = 0.025


def _pays(seconds: float, done: int, left: int) -> bool:
    """Whether ``left`` more steps, at the mean time per step of the ``done``
    taken in ``seconds``, hold ``_FORK_WORTH_S`` of work; always when that
    threshold is 0 or below."""
    return _FORK_WORTH_S <= 0 or (done > 0 and seconds / done * left >= _FORK_WORTH_S)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """``os.fork`` exists and this process runs one thread: a child cannot
    inherit a lock that another thread holds."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None or threading.active_count() == 1)


def _forked_map(fn: Callable, items: Sequence, steps: int) -> list:
    """``[fn(x, None) for x in items]``, in order, spread over forked processes.

    ``fn(x, observer)`` must pass ``observer`` on to ``run_simulation``, so
    that it is called once per step (quantum); ``steps`` counts the steps of
    all items together.  With n >= 2 items, at least two usable CPUs and
    ``_can_fork()``, the parent runs ``items[0]`` with an observer that,
    once ``_pays`` says the steps left are worth it, forks the other strided
    shares ``items[c::w]`` to children (``_fork.ForkedMap``), with no more
    than max(1, n // CPUs) items each, and returns; item 0 goes on in the
    parent, which then computes the rest of share 0.  If item 0 ends first,
    the parent runs the rest itself.  Every item runs once.

    The clock starts at the observer's first call and ``_pays`` projects
    from the steps after it, so neither item 0's set-up nor a first step
    that the items share (``run_policies``' start) counts as work per step.

    ``fn`` must be deterministic in its item, so the results do not depend
    on which process computes them; safe to call from inside its own
    observer, where the children run their shares; and its results must
    pickle.  On any error or interrupt the children are killed, every pipe
    closed and every child reaped before this raises.
    """
    cpus = _usable_cpus()
    if len(items) < 2 or cpus < 2 or not _can_fork():
        return [fn(x, None) for x in items]
    forked = None
    done = 0  # steps timed, those after item 0's first
    started = None

    def observer(_record) -> None:
        nonlocal forked, done, started
        if started is None:
            started = perf_counter()
        else:
            done += 1
        if forked is None and _pays(perf_counter() - started, done, steps - 1 - done):
            from ._fork import ForkedMap  # compiled and imported only by a map that forks

            forked = ForkedMap(lambda x: fn(x, None), items, cpus)

    try:
        first = fn(items[0], observer)
        if forked is None:
            return [first, *(fn(x, None) for x in items[1:])]
        w = forked.shares
        return forked.collect([first, *(fn(x, None) for x in items[w::w])])
    except BaseException:
        if forked is not None:
            forked.close()
        raise


def _batch(config: ExperimentConfig) -> list[tuple[ExperimentConfig, Start, Policy]]:
    """One run per listed policy, all sharing one ``Start``.

    Every run of a config starts from the row-major placement on the same
    workloads, so its set-up and quantum 0, which no policy has decided
    yet, are simulated once, here, before any map, and every run, in this
    process or a forked child that inherited the start, continues from a
    copy of it.
    """
    start = Start(config.system, config.workloads)
    return [(config, start, policy) for policy in config.policies]


def _run(run: tuple[ExperimentConfig, Start, Policy], observer) -> SimulationReport:
    """One run of a ``_batch``, continued from its batch's start."""
    config, start, policy = run
    return run_simulation(
        config.system, config.workloads, policy, config.seed, config.quanta, observer, start=start
    )


def run_policies(config: ExperimentConfig) -> list[SimulationReport]:
    """Run every listed policy on identical workloads and seed, continuing
    each from the one start of the config's ``_batch``."""
    return _forked_map(_run, _batch(config), config.quanta * len(config.policies))


def write_quanta_csv(report: SimulationReport, path: str) -> None:
    """One row per (quantum, thread): placement, sampled counter, work done."""
    rows = (
        (rec.index, t, p, s, rec.sampled_mlp[t], rec.completed[t], rec.stalls[t])
        for rec in report.per_quantum
        for t, (p, s) in enumerate(rec.schedule.placement)
    )
    write_sweep_csv(QUANTA_FIELDS, rows, path)


def speedup(throughput: float, base: float) -> float:
    """``throughput`` over ``base``: 1 when equal (0/0 included), inf over a zero base."""
    if throughput == base:
        return 1.0
    if base == 0.0:
        return float("inf")
    return throughput / base


def write_compare_csv(metrics: Sequence[PolicyMetrics], path: str) -> None:
    """Comparison table; speedup is against the first-listed policy."""
    base = metrics[0].throughput
    rows = [(*_row(m), speedup(m.throughput, base)) for m in metrics]
    write_sweep_csv(COMPARE_FIELDS, rows, path)


def write_summary(
    config: ExperimentConfig, reports: Sequence[SimulationReport], path: str
) -> None:
    """JSON run summary: config echo plus whole-run and post-warmup metrics."""
    policies = {}
    for report in reports:
        policy, *measured = _row(measure(report, config.warmup_quanta))
        policies[policy] = {
            "totals": asdict(report.totals),
            "measured": {
                "first_quantum": config.warmup_quanta,
                "quanta": config.quanta - config.warmup_quanta,
                **dict(zip(PolicyMetrics._fields[1:], measured)),
            },
        }
    doc = {
        "system": asdict(config.system),
        "policies": [p.value for p in config.policies],
        "quanta": config.quanta,
        "warmup_quanta": config.warmup_quanta,
        "seed": config.seed,
        "threads": config.system.num_threads,
        "results": policies,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sweep_points(config: ExperimentConfig):
    keys = [k for k, _ in config.sweep]
    for combo in itertools.product(*(values for _, values in config.sweep)):
        yield dict(zip(keys, combo))


def run_sweep(config: ExperimentConfig) -> tuple[tuple[str, ...], list[tuple]]:
    """Cartesian product over the swept values; rows in (point, policy) order.

    Returns (header, rows).  Each point is a new ``ExperimentConfig``, so it
    is checked exactly as a loaded config is, and its policies continue
    from one shared start, as ``run_policies`` runs a config (``_batch``).
    Every point, its workloads against its machine included, is checked
    before any start is built, and one that violates an invariant aborts
    the sweep with the offending values named.  The runs of all points
    form one ``_forked_map``, so a sweep forks at most once, and each run
    is measured in the process that ran it.
    """
    if not config.sweep:
        raise _fail("sweep", "required for a sweep run")
    keys = tuple(k for k, _ in config.sweep)
    header = keys + PolicyMetrics._fields
    points = []
    for point in _sweep_points(config):
        label = ", ".join(f"{k}={_shown(v)}" for k, v in point.items())
        system_fields = {k: v for k, v in point.items() if k in _SYSTEM_FIELDS}
        try:
            with _naming("system"):
                system = replace(config.system, **system_fields)
            point_config = replace(
                config,
                system=system,
                quanta=point.get("quanta", config.quanta),
                seed=point.get("seed", config.seed),
            )
        except ConfigError as exc:
            raise ConfigError(f"sweep point ({label}): {exc}") from exc
        points.append((tuple(point.values()), point_config))

    runs = [run for _, c in points for run in _batch(c)]
    metrics = _forked_map(
        lambda run, observer: measure(_run(run, observer), config.warmup_quanta),
        runs,
        sum(c.quanta for c, _, _ in runs),
    )
    swept = [values for values, c in points for _ in c.policies]
    return header, [values + _row(m) for values, m in zip(swept, metrics)]


def write_sweep_csv(header: Sequence[str], rows: Iterable[Sequence], path: str) -> None:
    """``header`` and then ``rows`` as one CSV table: the writer of every
    table here, the sweep's, the comparison and the per-quantum ones."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class OracleCheck(Value):
    """Per-quantum serpentine vs exhaustive-optimal max-sum comparison."""

    rows: tuple[tuple[int, float, float, float], ...]  # (quantum, serpentine, optimal, ratio)
    corpus_max_ratio: float


def run_oracle_check(config: ExperimentConfig) -> OracleCheck:
    """Drive a serpentine run and score each sampled vector against the oracle.

    Each quantum is scored as the run goes on, by an observer of the run.
    It scores quanta itself while their mean time so far, times the quanta
    left, stays below ``_FORK_WORTH_S``; from then on, given two usable
    CPUs and ``_can_fork()``, it streams each vector to min(CPUs - 1,
    quanta left) forked workers (``_fork.StreamedMap``) and, once the run
    ends, scores from the last quantum back whatever no worker has sent.

    Ratio convention: a 0/0 quantum (all counters zero) counts as 1.0, since
    both schedulers are trivially optimal.  The machine must pass the
    oracle's thread cap, checked before the run starts.
    """
    _check_oracle_cap(config.system)
    system = config.system
    quanta = config.quanta
    cpus = _usable_cpus() if _can_fork() else 1
    optima = []
    spent = 0.0  # seconds spent on the optima above
    streamed = None

    def optimum(mlp):
        return processor_load(optimal_partition(mlp, system), mlp, system).max_sum

    def score(rec):
        nonlocal spent, streamed
        mlp = rec.sampled_mlp
        if streamed is None:
            left = quanta - rec.index
            if cpus < 2 or left < 2 or not _pays(spent, len(optima), left):
                started = perf_counter()
                optima.append(optimum(mlp))
                spent += perf_counter() - started
                return
            from ._fork import StreamedMap  # compiled and imported only by a run that forks

            streamed = StreamedMap(optimum, len(mlp), min(cpus - 1, left))
        streamed.send(mlp)

    try:
        report = run_simulation(
            system, config.workloads, Policy.SERPENTINE, config.seed, quanta, score
        )
        if streamed is not None:
            optima += streamed.finish()
    finally:
        if streamed is not None:
            streamed.close()
    rows = []
    worst = 1.0
    for rec, opt in zip(report.per_quantum, optima):
        # The run's policy is serpentine, so rec.quality already scores
        # serpentine's decision on this quantum's counters.
        serp = rec.quality.max_sum
        ratio = 1.0 if opt == 0.0 else serp / opt
        worst = max(worst, ratio)
        rows.append((rec.index, serp, opt, ratio))
    return OracleCheck(rows=tuple(rows), corpus_max_ratio=worst)
