"""Seeded inputs for the three benchmark workloads.

Each workload is an experiment config (plus, for ``dense_events``, a trace
file) written into a scratch directory; the mlpsched CLI sees only those
files.  The same ``(seed, scale)`` always gives the same bytes.  Sizes were
tuned on seeds 0-9; seed ``HELD_OUT_SEED`` was kept back from that tuning.
``scale`` shrinks the run lengths for the smoke test only.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HELD_OUT_SEED = 20191113

ALL_POLICIES = ["serpentine", "naive_sorted", "round_robin", "random", "optimal", "static"]


@dataclass(frozen=True)
class Workload:
    """One generated workload: the CLI arguments and the work it asks for."""

    command: str                # mlpsched subcommand
    config_path: str
    config: dict
    thread_cycles: int          # sum over run_simulation calls of K*L * quanta * quantum_cycles


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _write(out_dir: str, command: str, config: dict, runs: int) -> Workload:
    path = os.path.join(out_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    system = config["system"]
    threads = system["num_processors"] * system["slots_per_processor"]
    cycles = config["quanta"] * system["quantum_cycles"]
    return Workload(command, path, config, runs * threads * cycles)


def sparse_phases(seed: int, scale: float, out_dir: str) -> Workload:
    """Scaled-up ``configs/demo.json``: long phases, few state changes per cycle."""
    config = {
        "system": {
            "num_processors": 4,
            "slots_per_processor": 3,
            "mshrs_per_processor": 16,
            "memory_latency": 200,
            "quantum_cycles": 10_000,
            "window_cycles": 2_000,
        },
        "workload": {
            "synthetic": {
                "n_threads": 12,
                "seed": seed,
                "phases_per_thread": 8,
                "duration_range": [6_000, 30_000],
                "demand_range": [0, 10],
            }
        },
        "policies": ALL_POLICIES,
        "quanta": _scaled(8, scale, 3),
        "warmup_quanta": 2,
        "seed": seed,
    }
    return _write(out_dir, "simulate", config, len(ALL_POLICIES))


DENSE_THREADS = 64
DENSE_PHASES_PER_THREAD = 400
DENSE_POLICIES = ["static", "serpentine", "naive_sorted", "round_robin", "random"]


def write_dense_trace(seed: int, phases_per_thread: int, path: str) -> None:
    """Many 20-200-cycle phases at demand 0-4 for every one of 64 threads.

    Draws only ``random()`` from a string-seeded generator, whose sequence
    Python keeps stable across versions.
    """
    rng = random.Random(f"dense_events:{seed}")
    lines = ["mlpsched-trace 1", "thread,phase,duration,demand,repeat"]
    for t in range(DENSE_THREADS):
        for i in range(phases_per_thread):
            duration = 20 + int(rng.random() * 181)
            demand = int(rng.random() * 5)
            lines.append(f"{t},{i},{duration},{demand},1")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def dense_events(seed: int, scale: float, out_dir: str) -> Workload:
    """8x8 machine, 4-entry pools, latency 1: every cycle retires and issues.

    With any longer latency the saturated pools issue in lockstep and retire
    in bursts, so many cycles would carry no event at all.
    """
    phases = _scaled(DENSE_PHASES_PER_THREAD, scale, 2)
    write_dense_trace(seed, phases, os.path.join(out_dir, "dense.trace"))
    config = {
        "system": {
            "num_processors": 8,
            "slots_per_processor": 8,
            "mshrs_per_processor": 4,
            "memory_latency": 1,
            "quantum_cycles": 1_500,
            "window_cycles": 500,
        },
        "workload": {"trace": "dense.trace"},
        "policies": DENSE_POLICIES,
        "quanta": _scaled(8, scale, 2),
        "warmup_quanta": 1,
        "seed": seed,
    }
    return _write(out_dir, "compare", config, len(DENSE_POLICIES))


def oracle_decisions(seed: int, scale: float, out_dir: str) -> Workload:
    """4x3 machine, short quanta: the exhaustive per-quantum oracle dominates."""
    config = {
        "system": {
            "num_processors": 4,
            "slots_per_processor": 3,
            "mshrs_per_processor": 16,
            "memory_latency": 50,
            "quantum_cycles": 400,
            "window_cycles": 100,
        },
        "workload": {
            "synthetic": {
                "n_threads": 12,
                "seed": seed,
                "phases_per_thread": 64,
                "duration_range": [200, 2_000],
                # Measured over seeds 0-9: with demand 1-10 the oracle's search
                # visits vary 4.7% between seeds (IQR over median), with 0-10 8.0%.
                "demand_range": [1, 10],
            }
        },
        "policies": ["serpentine"],
        "quanta": _scaled(160, scale, 2),
        "seed": seed,
    }
    return _write(out_dir, "oracle-check", config, 1)


GENERATORS = {
    "sparse_phases": sparse_phases,
    "dense_events": dense_events,
    "oracle_decisions": oracle_decisions,
}
