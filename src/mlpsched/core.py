"""Shared value types: machine shape, thread placements, and balance metrics.

Everything in this module is an immutable value and every operation is a pure
function, so they are safe to use from any number of concurrent callers.
"""

from __future__ import annotations

import reprlib
from typing import Sequence

__all__ = [
    "ConfigError",
    "InvalidScheduleError",
    "MlpVector",
    "Schedule",
    "ScheduleQuality",
    "SystemConfig",
    "Value",
    "asdict",
    "processor_load",
    "replace",
    "validate_schedule",
]

# Per-thread windowed mean MSHR occupancy, indexed by thread id.  Values are
# real (a windowed mean of integer occupancy is generally fractional), each
# >= 0 and bounded by the MSHR pool the thread ran on.
MlpVector = tuple[float, ...]


class ConfigError(ValueError):
    """A machine or experiment parameter violates its constraints."""


_SHOWN_CHARS = 60


def _shown(value) -> str:
    """A bad input value for an error message, at most _SHOWN_CHARS long.

    ``reprlib`` caps nesting depth, item counts and string lengths, so a
    huge or deeply nested value is never rendered in full before it is cut.
    It renders an integer whole first, so one past the interpreter's digit
    limit, as a product of two config values can be, is shown by its size.
    """
    try:
        return _cut(reprlib.repr(value))
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


def _cut(text: str) -> str:
    """``text`` cut to at most _SHOWN_CHARS, its end replaced by ``...`` when cut."""
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


def _slots(config: SystemConfig) -> str:
    """A machine's thread slots for an error message, ``K*L = N``, each value shown."""
    k, l = config.num_processors, config.slots_per_processor
    return f"{_shown(k)}*{_shown(l)} = {_shown(k * l)}"


_set_field = object.__setattr__


class Value:
    """Base of the package's immutable value types.

    A subclass lists its fields as annotated class attributes, in order, each
    with an optional default, as a frozen dataclass does.  Instances are built
    by position or keyword and run the subclass's ``_check`` hook, if any;
    they refuse assignment, compare and hash by field values (equal only to
    an instance of the same class), and print as a dataclass does.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            if args or tuple(kwargs) != fields:  # else every field by keyword, in order
                kwargs = self._bind(args, kwargs)
            args = kwargs.values()
        for name, value in zip(fields, args):
            # attribute by attribute, as a dataclass does, so that reads stay fast
            _set_field(self, name, value)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """Every field's value by name, in field order, from the arguments and defaults."""
        fields = cls._fields
        named = {**dict(zip(fields, args)), **kwargs}
        values = {**cls._defaults, **named}
        if len(named) != len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(
                f"{cls.__name__}() takes each of its fields ({', '.join(fields)}) "
                "once, by position or keyword, or from its default"
            )
        return {f: values[f] for f in fields}

    def _check(self) -> None:
        """Refuse an invalid value; run on every construction, ``replace`` included."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(asdict(self).values()) == tuple(asdict(other).values())

    def __hash__(self) -> int:
        return hash(tuple(asdict(self).values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in asdict(self).items())
        return f"{type(self).__qualname__}({shown})"



def replace(value: Value, **changes) -> Value:
    """A copy of ``value`` with ``changes`` applied, built and checked anew."""
    return type(value)(**{**asdict(value), **changes})


def asdict(value: Value) -> dict:
    """``value``'s fields by name, in field order; nested values are kept as they are."""
    return {name: getattr(value, name) for name in value._fields}


class InvalidScheduleError(ValueError):
    """A thread placement violates the bijection constraints."""


_POSITIVE_FIELDS = (
    "num_processors",
    "slots_per_processor",
    "mshrs_per_processor",
    "memory_latency",
    "quantum_cycles",
    "window_cycles",
)


class SystemConfig(Value):
    """Machine shape and timing parameters.

    The defaults describe a desk-scale machine: 4 processors exposing 4
    thread slots and a 16-entry MSHR pool each, 200-cycle memory, 100k-cycle
    scheduling quanta with the occupancy window covering the final 10k cycles
    of each quantum.  The MSHR pool is per processor and shared by that
    processor's slots; the window must not exceed the quantum.
    """

    num_processors: int = 4
    slots_per_processor: int = 4
    mshrs_per_processor: int = 16
    memory_latency: int = 200
    quantum_cycles: int = 100_000
    window_cycles: int = 10_000
    migration_penalty: int = 0

    def _check(self) -> None:
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {_shown(value)}")
        penalty = self.migration_penalty
        if isinstance(penalty, bool) or not isinstance(penalty, int) or penalty < 0:
            raise ConfigError(f"migration_penalty must be a non-negative integer, got {_shown(penalty)}")
        if self.window_cycles > self.quantum_cycles:
            raise ConfigError(
                f"window_cycles ({_shown(self.window_cycles)}) must not exceed "
                f"quantum_cycles ({_shown(self.quantum_cycles)})"
            )

    @property
    def num_threads(self) -> int:
        """Threads the machine schedules: one per (processor, slot) position."""
        return self.num_processors * self.slots_per_processor


class Schedule(Value):
    """Placement of threads onto (processor, slot) positions.

    ``placement[t]`` is the (processor, slot) pair of thread ``t``.  A valid
    schedule is a total bijection: with K processors of L slots it places
    exactly K*L threads and uses every position once, which in turn forces
    exactly L threads per processor.
    """

    placement: tuple[tuple[int, int], ...]

    @property
    def num_threads(self) -> int:
        return len(self.placement)


def validate_schedule(schedule: Schedule, config: SystemConfig) -> None:
    """Check the placement invariants, raising on the first violation.

    Violations, in check order: wrong thread count (missing or extra
    threads), processor or slot index out of range, and duplicate
    (processor, slot) position.  Once these pass, the K*L threads fill the
    K*L positions one each, so every processor holds exactly L threads.
    """
    k, l = config.num_processors, config.slots_per_processor
    n = k * l
    if schedule.num_threads != n:
        raise InvalidScheduleError(
            f"schedule places {schedule.num_threads} threads, config requires {n}"
        )
    seen: dict[tuple[int, int], int] = {}
    for t, (p, s) in enumerate(schedule.placement):
        if not 0 <= p < k:
            raise InvalidScheduleError(f"thread {t}: processor {p} out of range [0, {k})")
        if not 0 <= s < l:
            raise InvalidScheduleError(f"thread {t}: slot {s} out of range [0, {l})")
        if (p, s) in seen:
            raise InvalidScheduleError(
                f"duplicate slot ({p}, {s}) held by threads {seen[p, s]} and {t}"
            )
        seen[p, s] = t


class ScheduleQuality(Value):
    """Per-processor MLP load of a schedule plus balance metrics.

    ``gap`` is ``max_sum - min_sum``; ``per_processor_oversubscription[p]``
    is how far processor p's load exceeds its MSHR pool (0 when it fits).
    Oversubscription is a measurement, never an enforced constraint.
    """

    per_processor_mlp_sum: tuple[float, ...]
    max_sum: float
    min_sum: float
    gap: float
    per_processor_oversubscription: tuple[float, ...]


def processor_load(
    schedule: Schedule, mlp: Sequence[float], config: SystemConfig
) -> ScheduleQuality:
    """Sum each processor's thread counters and derive balance metrics."""
    validate_schedule(schedule, config)
    if len(mlp) != schedule.num_threads:
        raise ValueError(
            f"mlp vector has {len(mlp)} entries, schedule places {schedule.num_threads} threads"
        )
    sums = [0.0] * config.num_processors
    for t, (p, _) in enumerate(schedule.placement):
        sums[p] += mlp[t]
    pool = float(config.mshrs_per_processor)
    hi = max(sums)
    lo = min(sums)
    return ScheduleQuality(
        per_processor_mlp_sum=tuple(sums),
        max_sum=hi,
        min_sum=lo,
        gap=hi - lo,
        per_processor_oversubscription=tuple(max(0.0, s - pool) for s in sums),
    )
