"""Thread workloads: phase lists, synthetic generators, and trace files.

A thread's behavior is a list of phases; each phase holds a target number of
simultaneously outstanding memory requests (its demand) for a fixed number of
cycles.  Scenarios can be generated synthetically from a template or saved to
and loaded from a line-delimited trace file (see ``docs/formats.md``).
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from .core import ConfigError, SystemConfig, Value, _check_int, _shown, _slots

__all__ = [
    "IDLE_PHASE_DURATION",
    "Phase",
    "ThreadWorkload",
    "TraceError",
    "WorkloadSpec",
    "generate_synthetic",
    "load_trace",
    "pad_workloads",
    "save_trace",
]

TRACE_VERSION_LINE = "mlpsched-trace 1"
TRACE_FIELDS = ("thread", "phase", "duration", "demand", "repeat")

# Idle padding threads cycle one long zero-demand phase.
IDLE_PHASE_DURATION = 1 << 30


class TraceError(ValueError):
    """A trace file is malformed; the message names the offending line, or
    the file and the first bad byte of one that is not UTF-8."""


class Phase(Value):
    """``duration`` cycles during which the thread keeps ``demand`` requests in flight."""

    duration: int
    demand: int

    def _check(self) -> None:
        _check_int(self.duration, 1, "phase duration", "an integer >= 1")
        _check_int(self.demand, 0, "phase demand", "an integer >= 0")


class ThreadWorkload(Value):
    """A thread's phase list; with ``repeat`` the list cycles until the run ends.

    Without ``repeat`` the thread goes idle (demand 0) after its last phase.
    """

    thread: int
    phases: tuple[Phase, ...]
    repeat: bool = True

    def _check(self) -> None:
        _check_int(self.thread, 0, "thread id", ">= 0")
        if not self.phases:
            raise ValueError(f"thread {_shown(self.thread)}: phase list must be non-empty")


class WorkloadSpec(Value):
    """Per-thread template for synthetic generation.

    Every thread gets ``phases_per_thread`` phases with durations and demands
    drawn uniformly from the inclusive ranges.
    """

    phases_per_thread: int = 1
    duration_range: tuple[int, int] = (10_000, 10_000)
    demand_range: tuple[int, int] = (0, 8)
    repeat: bool = True

    def _check(self) -> None:
        _check_int(self.phases_per_thread, 1, "phases_per_thread", ">= 1")
        for name, least in (("duration_range", 1), ("demand_range", 0)):
            value = getattr(self, name)
            pair = "a (min, max) pair of integers"
            if not isinstance(value, (tuple, list)) or len(value) != 2:
                raise ValueError(f"{name} must be {pair}, got {_shown(value)}")
            for bound in value:
                _check_int(bound, -math.inf, name, pair)
            lo, hi = value
            if lo < least or hi < lo:
                raise ValueError(f"{name} must satisfy {least} <= min <= max, got {_shown(value)}")


def generate_synthetic(spec: WorkloadSpec, n_threads: int, seed: int) -> tuple[ThreadWorkload, ...]:
    """Deterministic workload generation: same (spec, n_threads, seed), same result.

    Durations and demands are drawn uniformly (``random.Random(seed)``,
    Mersenne Twister) from ``spec``'s inclusive ranges.  ``n_threads`` must
    be an integer >= 1 and ``seed`` one >= 0: ``random.Random`` seeds with
    a negative integer's absolute value, so -5 would draw what 5 draws.
    """
    _check_int(n_threads, 1, "n_threads", ">= 1")
    _check_int(seed, 0, "seed", ">= 0")
    rng = random.Random(seed)
    out = []
    for t in range(n_threads):
        phases = tuple(
            Phase(
                duration=rng.randint(*spec.duration_range),
                demand=rng.randint(*spec.demand_range),
            )
            for _ in range(spec.phases_per_thread)
        )
        out.append(ThreadWorkload(thread=t, phases=phases, repeat=spec.repeat))
    return tuple(out)


def pad_workloads(
    workloads: Sequence[ThreadWorkload], config: SystemConfig
) -> tuple[ThreadWorkload, ...]:
    """Check a scenario against a machine and pad it with idle threads to K*L.

    This is the one check of workloads against a machine: thread ids must be
    0..len-1 in order, there may be at most K*L threads, and no phase demand
    may exceed the per-processor MSHR pool.
    """
    n = config.num_threads
    if len(workloads) > n:
        raise ConfigError(
            f"scenario supplies {len(workloads)} threads but the machine has {_slots(config)} slots"
        )
    mshrs = config.mshrs_per_processor
    for index, w in enumerate(workloads):
        if w.thread != index:
            raise ConfigError(
                f"workload thread ids must be 0..{len(workloads) - 1} in order; "
                f"position {index} holds thread {_shown(w.thread)}"
            )
        for i, ph in enumerate(w.phases):
            if ph.demand > mshrs:
                raise ConfigError(
                    f"thread {w.thread} phase {i}: demand {_shown(ph.demand)} exceeds the "
                    f"{_shown(mshrs)}-entry MSHR pool"
                )
    idle = tuple(
        ThreadWorkload(thread=t, phases=(Phase(IDLE_PHASE_DURATION, 0),), repeat=True)
        for t in range(len(workloads), n)
    )
    return tuple(workloads) + idle


def save_trace(workloads: Iterable[ThreadWorkload], path: str) -> None:
    """Write a scenario as a line-delimited trace (version line, header, rows)."""
    lines = [TRACE_VERSION_LINE, ",".join(TRACE_FIELDS)]
    for w in workloads:
        for i, ph in enumerate(w.phases):
            lines.append(f"{w.thread},{i},{ph.duration},{ph.demand},{int(w.repeat)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Row tails (the ``duration,demand,repeat`` text) that one load keeps: the
# loader's only cache, so what a load holds beside the file's lines and the
# workloads it returns is bounded.  A trace that repeats its tails holds few
# distinct ones (905 in the 25,600 rows of the benchmark's dense trace), and
# they all fit.  A trace whose tails never repeat gains nothing from the
# cache, so it stops growing here (0.57 MB at 4,096 tails with six-digit
# durations) whatever the trace's length.  One constant serves both kinds,
# so it is not a setting.
_TAIL_CACHE_SIZE = 4096


def _unpack_error(line: str, line_no: int) -> TraceError:
    """The error for a non-blank row whose five integers did not unpack.

    A wrong field count is reported first.  With five fields the unpack
    failed on a field that is not an integer: the first, in header order.
    """
    parts = line.split(",")
    if len(parts) != len(TRACE_FIELDS):
        return TraceError(f"line {line_no}: expected {len(TRACE_FIELDS)} fields, got {len(parts)}")
    for field, raw in zip(TRACE_FIELDS, parts):
        try:
            int(raw)
        except ValueError:
            break
    digits = raw.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if digits.isdecimal():  # refused for its length alone
        return TraceError(
            f"line {line_no}: {field} is past the interpreter's integer digit limit, "
            f"got {_shown(raw)}"
        )
    return TraceError(f"line {line_no}: {field} must be an integer, got {_shown(raw)}")


def load_trace(path: str) -> tuple[ThreadWorkload, ...]:
    """Load a trace file; the inverse of ``save_trace`` on valid scenarios.

    Errors name the offending physical line (the version line is line 1),
    or, for a file that is not UTF-8, the file and the first bad byte.
    Demands are checked against a machine's pool by ``pad_workloads``.

    Each distinct row tail, the ``duration,demand,repeat`` text, is parsed
    and checked once, for up to ``_TAIL_CACHE_SIZE`` tails; a row whose tail
    is past that bound is parsed and checked in full.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:  # one decode of the whole file: start is its offset
            raise TraceError(
                f"trace {path}: not UTF-8, byte {exc.object[exc.start]:#04x} "
                f"at offset {exc.start} cannot be decoded"
            ) from None
    if not lines or lines[0].strip() != TRACE_VERSION_LINE:
        raise TraceError(f"line 1: expected version line {TRACE_VERSION_LINE!r}")
    if len(lines) < 2 or tuple(lines[1].strip().split(",")) != TRACE_FIELDS:
        raise TraceError(f"line 2: expected header {','.join(TRACE_FIELDS)!r}")

    tails: dict[str, tuple[Phase, int]] = {}  # checked row tail -> its Phase and flag
    phases: dict[int, list[Phase]] = {}
    repeats: dict[int, int] = {}
    # The last row's thread text, phase list and flag: a row that goes on
    # with them at the next phase number, written plainly, only appends its
    # Phase.  Any other row, another spelling of that number included, takes
    # the general path.
    run_text, run, run_flag = None, [], None
    for line_no, line in enumerate(lines[2:], start=3):
        try:
            thread_raw, index_raw, tail = line.split(",", 2)
            entry = tails.get(tail)
            if (entry is not None and thread_raw == run_text
                    and entry[1] == run_flag and index_raw == str(len(run))):
                run.append(entry[0])
                continue
            thread, index = int(thread_raw), int(index_raw)
            if entry is None:
                duration, demand, flag = map(int, tail.split(","))
        except ValueError:
            if not line.strip():
                continue
            raise _unpack_error(line, line_no) from None
        if thread < 0:
            raise TraceError(f"line {line_no}: thread must be >= 0, got {_shown(thread)}")
        if entry is None:  # the tail's own checks, before it is kept
            try:
                phase = Phase(duration, demand)
            except ValueError as exc:
                raise TraceError(f"line {line_no}: {exc}") from exc
            if flag not in (0, 1):
                raise TraceError(f"line {line_no}: repeat must be 0 or 1, got {_shown(flag)}")
            if len(tails) < _TAIL_CACHE_SIZE:
                tails[tail] = phase, flag
        else:
            phase, flag = entry
        own = phases.get(thread)
        if own is None:
            own = phases[thread] = []
            repeats[thread] = flag
        elif repeats[thread] != flag:
            raise TraceError(f"line {line_no}: thread {_shown(thread)} has inconsistent repeat flags")
        if index != len(own):
            raise TraceError(
                f"line {line_no}: thread {_shown(thread)} expected phase {len(own)}, "
                f"got {_shown(index)}"
            )
        own.append(phase)
        run_text, run, run_flag = thread_raw, own, flag

    if not phases:
        raise TraceError("line 3: trace contains no records")
    for t in range(max(phases) + 1):
        if t not in phases:
            raise TraceError(f"thread {t} has no phases")
    return tuple(
        ThreadWorkload(thread=t, phases=tuple(phases[t]), repeat=repeats[t] == 1)
        for t in range(len(phases))
    )
