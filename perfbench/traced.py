"""Run one mlpsched CLI command with a span around every call into a layer.

Usage: python3 perfbench/traced.py SPANS_JSON -- SUBCOMMAND [ARGS...]

Each public function is rebound in the module that calls it (for example
``mlpsched.engine.next_schedule``), so only calls that cross a layer
boundary are timed.  The per-cycle ``step_cycle`` is deliberately left
alone: wrapping it would time millions of calls.  Spans are kept in memory
and written to SPANS_JSON when the command ends.  The exit code is the
command's.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import mlpsched.cli as cli
import mlpsched.engine as engine
import mlpsched.experiments as experiments
from mlpsched.policies import Policy


def _policy(args, result) -> dict:
    return {"policy": Policy(args[0]).value}


def _simulation(args, report) -> dict:
    totals = report.totals
    config = report.config
    pool_means = totals.mean_processor_occupancy
    return {
        "thread_cycles": config.num_threads * totals.cycles,
        "cycles": totals.cycles,
        "stall_cycles": totals.stall_cycles,
        "completed": totals.completed,
        "pool_busy": sum(pool_means) / (len(pool_means) * config.mshrs_per_processor) * totals.cycles,
    }


def _trace_rows(args, workloads) -> dict:
    return {"rows": sum(len(w.phases) for w in workloads)}


# (module the call is made from, public name, layer, extra facts from the call)
WRAPPED = [
    (cli, "load_experiment", "experiments", None),
    (cli, "run_policies", "experiments", None),
    (cli, "run_oracle_check", "experiments", None),
    (cli, "measure", "experiments", None),
    (cli, "write_quanta_csv", "experiments", None),
    (cli, "write_compare_csv", "experiments", None),
    (cli, "write_summary", "experiments", None),
    (experiments, "measure", "experiments", None),
    (experiments, "generate_synthetic", "workload", None),
    (experiments, "load_trace", "workload", _trace_rows),
    (experiments, "pad_workloads", "workload", None),
    (experiments, "run_simulation", "engine", _simulation),
    (experiments, "serpentine_schedule", "policies", lambda a, r: {"policy": "serpentine"}),
    (experiments, "optimal_partition", "policies", lambda a, r: {"policy": "optimal"}),
    (experiments, "processor_load", "core", None),
    (engine, "next_schedule", "policies", _policy),
    (engine, "processor_load", "core", None),
]


class Recorder:
    """In-memory spans: layer, name, start, end, and the index of the parent span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, module, name: str, layer: str, describe) -> None:
        fn = getattr(module, name)
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append({})
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index] = {
                    "layer": layer, "name": name, "start": start, "end": end, "parent": parent,
                }
            if describe is not None:
                spans[index].update(describe(args, result))
            return result

        setattr(module, name, traced)


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- SUBCOMMAND [ARGS...]")
    recorder = Recorder()
    for module, name, layer, describe in WRAPPED:
        recorder.wrap(module, name, layer, describe)
    try:
        return cli.main(sys.argv[3:])
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
