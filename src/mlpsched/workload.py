"""Thread workloads: phase lists, synthetic generators, and trace files.

A thread's behavior is a list of phases; each phase holds a target number of
simultaneously outstanding memory requests (its demand) for a fixed number of
cycles.  Scenarios can be generated synthetically from a template or saved to
and loaded from a line-delimited trace file (see ``docs/formats.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ConfigError, SystemConfig

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
    """A trace file is malformed; the message names the offending line."""


@dataclass(frozen=True)
class Phase:
    """``duration`` cycles during which the thread keeps ``demand`` requests in flight."""

    duration: int
    demand: int

    def __post_init__(self) -> None:
        # bool is an int subclass, but True is neither a duration nor a demand
        duration, demand = self.duration, self.demand
        if isinstance(duration, bool) or not isinstance(duration, int) or duration < 1:
            raise ValueError(f"phase duration must be an integer >= 1, got {duration!r}")
        if isinstance(demand, bool) or not isinstance(demand, int) or demand < 0:
            raise ValueError(f"phase demand must be an integer >= 0, got {demand!r}")


@dataclass(frozen=True)
class ThreadWorkload:
    """A thread's phase list; with ``repeat`` the list cycles until the run ends.

    Without ``repeat`` the thread goes idle (demand 0) after its last phase.
    """

    thread: int
    phases: tuple[Phase, ...]
    repeat: bool = True

    def __post_init__(self) -> None:
        if self.thread < 0:
            raise ValueError(f"thread id must be >= 0, got {self.thread}")
        if not self.phases:
            raise ValueError(f"thread {self.thread}: phase list must be non-empty")


@dataclass(frozen=True)
class WorkloadSpec:
    """Per-thread template for synthetic generation.

    Either ``explicit_phases`` (every thread gets exactly that list) or a
    template of ``phases_per_thread`` phases with durations and demands drawn
    uniformly from the inclusive ranges.
    """

    phases_per_thread: int = 1
    duration_range: tuple[int, int] = (10_000, 10_000)
    demand_range: tuple[int, int] = (0, 8)
    explicit_phases: tuple[Phase, ...] | None = None
    repeat: bool = True

    def __post_init__(self) -> None:
        if self.explicit_phases is not None:
            if not self.explicit_phases:
                raise ValueError("explicit_phases must be non-empty when given")
            return
        if self.phases_per_thread < 1:
            raise ValueError(f"phases_per_thread must be >= 1, got {self.phases_per_thread}")
        lo, hi = self.duration_range
        if lo < 1 or hi < lo:
            raise ValueError(f"duration_range must satisfy 1 <= min <= max, got {self.duration_range}")
        lo, hi = self.demand_range
        if lo < 0 or hi < lo:
            raise ValueError(f"demand_range must satisfy 0 <= min <= max, got {self.demand_range}")


def generate_synthetic(spec: WorkloadSpec, n_threads: int, seed: int) -> tuple[ThreadWorkload, ...]:
    """Deterministic workload generation: same (spec, n_threads, seed), same result.

    Durations and demands are drawn uniformly (``random.Random(seed)``,
    Mersenne Twister) from ``spec``'s inclusive ranges.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    rng = random.Random(seed)
    out = []
    for t in range(n_threads):
        if spec.explicit_phases is not None:
            phases = spec.explicit_phases
        else:
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
    """Pad a scenario with idle threads up to the machine's K*L slots.

    Thread ids must already be 0..len-1 in order.  Supplying more threads
    than slots is a configuration error; demands are checked against the
    per-processor MSHR pool.
    """
    n = config.num_threads
    if len(workloads) > n:
        raise ConfigError(
            f"scenario supplies {len(workloads)} threads but the machine has "
            f"{config.num_processors}*{config.slots_per_processor} = {n} slots"
        )
    for index, w in enumerate(workloads):
        if w.thread != index:
            raise ConfigError(
                f"workload thread ids must be 0..{len(workloads) - 1} in order; "
                f"position {index} holds thread {w.thread}"
            )
        for ph in w.phases:
            if ph.demand > config.mshrs_per_processor:
                raise ConfigError(
                    f"thread {w.thread}: phase demand {ph.demand} exceeds the "
                    f"{config.mshrs_per_processor}-entry MSHR pool"
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


def _parse_int(raw: str, field: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TraceError(f"line {line_no}: {field} must be an integer, got {raw!r}") from None


def load_trace(path: str, config: SystemConfig | None = None) -> tuple[ThreadWorkload, ...]:
    """Load a trace file; the inverse of ``save_trace`` on valid scenarios.

    Errors name the offending physical line (the version line is line 1).
    When a config is given, demands are checked against its MSHR pool.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != TRACE_VERSION_LINE:
        raise TraceError(f"line 1: expected version line {TRACE_VERSION_LINE!r}")
    if len(lines) < 2 or tuple(lines[1].strip().split(",")) != TRACE_FIELDS:
        raise TraceError(f"line 2: expected header {','.join(TRACE_FIELDS)!r}")

    phases: dict[int, list[Phase]] = {}
    repeats: dict[int, bool] = {}
    for line_no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(TRACE_FIELDS):
            raise TraceError(
                f"line {line_no}: expected {len(TRACE_FIELDS)} fields, got {len(parts)}"
            )
        thread = _parse_int(parts[0], "thread", line_no)
        phase_index = _parse_int(parts[1], "phase", line_no)
        duration = _parse_int(parts[2], "duration", line_no)
        demand = _parse_int(parts[3], "demand", line_no)
        repeat_raw = _parse_int(parts[4], "repeat", line_no)
        if thread < 0:
            raise TraceError(f"line {line_no}: thread must be >= 0, got {thread}")
        try:
            phase = Phase(duration, demand)
        except ValueError as exc:
            raise TraceError(f"line {line_no}: {exc}") from exc
        if config is not None and demand > config.mshrs_per_processor:
            raise TraceError(
                f"line {line_no}: demand {demand} exceeds the "
                f"{config.mshrs_per_processor}-entry MSHR pool"
            )
        if repeat_raw not in (0, 1):
            raise TraceError(f"line {line_no}: repeat must be 0 or 1, got {repeat_raw}")
        repeat = bool(repeat_raw)
        if thread in repeats and repeats[thread] != repeat:
            raise TraceError(f"line {line_no}: thread {thread} has inconsistent repeat flags")
        repeats[thread] = repeat
        expected_index = len(phases.setdefault(thread, []))
        if phase_index != expected_index:
            raise TraceError(
                f"line {line_no}: thread {thread} expected phase {expected_index}, "
                f"got {phase_index}"
            )
        phases[thread].append(phase)

    if not phases:
        raise TraceError("line 3: trace contains no records")
    for t in range(max(phases) + 1):
        if t not in phases:
            raise TraceError(f"thread {t} has no phases")
    return tuple(
        ThreadWorkload(
            thread=t,
            phases=tuple(phases[t]),
            repeat=repeats[t],
        )
        for t in range(len(phases))
    )
