"""Share of simulated cycles in which anything happens, per policy.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/event_share.py sparse_phases 0

A cycle has an event when it retires a request, issues one, ends a thread's
phase or unfreezes a migrated thread.  A stall counter that grows by one is
not an event.  These are the cycles that an event-skipping engine could not
skip.  The count wraps ``step_cycle`` in this process only; it is a one-off
measurement, not part of a benchmark run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import mlpsched.engine as engine
from mlpsched.experiments import load_experiment, run_policies

from workloads import GENERATORS

KINDS = ("event", "retire", "issue", "phase", "unfreeze")


def counting_step(counts: dict, step):
    def step_cycle(state, config):
        completed = sum(state.completed_quantum)
        in_flight = sum(len(pool) for pool in state.pools)
        phase = 1 in state.phase_left
        unfreeze = state.cycle > 0 and state.cycle in state.frozen_until
        step(state, config)
        retired = sum(state.completed_quantum) - completed
        issued = sum(len(pool) for pool in state.pools) - in_flight + retired
        counts["cycles"] += 1
        for kind, happened in zip(KINDS, (retired or issued or phase or unfreeze, retired, issued, phase, unfreeze)):
            counts[kind] += bool(happened)
        return state

    return step_cycle


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    counts: dict = {}
    engine.step_cycle = counting_step(counts, engine.step_cycle)
    shares = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        config = load_experiment(GENERATORS[name](seed, 1.0, work).config_path)
        for policy in config.policies:
            counts.update(dict.fromkeys(("cycles", *KINDS), 0))
            run_policies(dataclasses.replace(config, policies=(policy,)))
            shares[policy.value] = {kind: counts[kind] / counts["cycles"] for kind in KINDS}
    print(json.dumps({"workload": name, "seed": seed, "share_of_cycles": shares}, indent=1))


if __name__ == "__main__":
    main()
