"""Benchmark of the mlpsched CLI on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparse_phases --seed 0 --seconds 35 --trace 0

The benchmark writes the workload's inputs from ``--seed``, then for
``--seconds`` runs the real CLI (``python3 -m mlpsched``, one fresh
interpreter per run, one run at a time) against the checkout's ``src/``.
Every run's outputs are checked.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
runs, with times scaled to a fixed reference speed (``reference_loop``).  With ``--trace 1`` untraced and traced runs alternate, and the
metrics are the per-layer ones taken from the median traced run's spans
(see ``traced.py``).  See ``README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from time import perf_counter

import checks
from workloads import ALL_POLICIES, GENERATORS

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
MIN_RUNS = 3
SETUPS_PER_RUN = 3
CHILD_TIMEOUT_S = 60.0
# End-to-end times are in seconds at the host speed where reference_loop()
# takes REFERENCE_S; see README.md for why.
REFERENCE_S = 0.1
REFERENCE_ITERATIONS = 1_000_000

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_thread_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("experiments", "workload", "engine", "policies", "core")

PER_LAYER = {
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "experiments.load_experiment_s": "s",
    "experiments.measure_s": "s",
    "experiments.write_s": "s",
    "experiments.rows_written": "count",
    "workload.load_trace_s": "s",
    "workload.trace_rows": "count",
    "workload.trace_rows_per_s": "1/s",
    "workload.generate_synthetic_s": "s",
    "workload.pad_workloads_s": "s",
    "engine.thread_cycles": "count",
    "engine.thread_cycles_per_s": "1/s",
    "engine.share_of_wall": "ratio",
    "engine.stall_fraction": "ratio",
    "engine.pool_utilisation": "ratio",
    "engine.completed_per_cycle": "1/cycle",
    "policies.decisions": "count",
    "policies.optimal_s": "s",
    **{
        f"policies.{p}.{stat}": unit
        for p in ALL_POLICIES
        for stat, unit in (
            ("decision_us_p50", "us"),
            ("decision_us_ptail", "us"),
            ("decision_ptail_pct", "%"),
            ("samples", "count"),
        )
    },
    "core.processor_load_calls": "count",
    "core.processor_load_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.wall_raw_s": "s",
    "host.reference_s": "s",
    "sim_serpentine_speedup": "ratio",
    "sim_oracle_ratio_max": "ratio",
}


def spawn(argv: list[str], env: dict, stdout_path: str, stderr_path: str):
    """Run one child to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    The loop does the kind of work the engine does (list indexing, integer
    arithmetic, dict updates) and none of mlpsched's code, so no change to
    the program moves it; only the host's speed does.
    """
    start = perf_counter()
    counts = [0] * 64
    carries: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        j = i & 63
        counts[j] += i % 7
        if counts[j] > 1000:
            counts[j] -= 1000
            carries[j] = carries.get(j, 0) + 1
    return perf_counter() - start


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def layer_metrics(spans: list[dict], wall: float) -> tuple[dict, dict]:
    """Per-layer numbers of one traced run, plus its decision times by policy."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    layer_self = defaultdict(float)
    duration = defaultdict(float)   # by function name
    calls = defaultdict(int)
    facts = defaultdict(float)
    decisions = defaultdict(list)
    write_self = 0.0
    for index, span in enumerate(spans):
        elapsed = span["end"] - span["start"]
        layer_self[span["layer"]] += elapsed - child_time[index]
        duration[span["name"]] += elapsed
        calls[span["name"]] += 1
        if span["name"].startswith("write_"):
            write_self += elapsed - child_time[index]
        for key in ("thread_cycles", "cycles", "stall_cycles", "completed", "pool_busy", "rows"):
            facts[key] += span.get(key, 0)
        if "policy" in span:
            decisions[span["policy"]].append(elapsed)

    load_trace = duration["load_trace"]
    metrics = {
        "cli.self_s": wall - sum(layer_self[layer] for layer in LAYERS),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "experiments.load_experiment_s": duration["load_experiment"],
        "experiments.measure_s": duration["measure"],
        "experiments.write_s": write_self,
        "workload.load_trace_s": load_trace,
        "workload.trace_rows": facts["rows"],
        "workload.trace_rows_per_s": facts["rows"] / load_trace if load_trace else 0.0,
        "workload.generate_synthetic_s": duration["generate_synthetic"],
        "workload.pad_workloads_s": duration["pad_workloads"],
        # Every workload runs at least one simulation, so these divisors are > 0.
        "engine.thread_cycles": facts["thread_cycles"],
        "engine.thread_cycles_per_s": facts["thread_cycles"] / layer_self["engine"],
        "engine.share_of_wall": layer_self["engine"] / wall,
        "engine.stall_fraction": facts["stall_cycles"] / facts["thread_cycles"],
        "engine.pool_utilisation": facts["pool_busy"] / facts["cycles"],
        "engine.completed_per_cycle": facts["completed"] / facts["cycles"],
        "policies.decisions": sum(len(d) for d in decisions.values()),
        "policies.optimal_s": sum(decisions["optimal"]),
        "core.processor_load_calls": calls["processor_load"],
        "core.processor_load_s": duration["processor_load"],
        "trace.wall_s": wall,
    }
    return metrics, decisions


def csv_rows(out_dir: str) -> int:
    rows = 0
    for name in os.listdir(out_dir):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows


class Bench:
    """One benchmark run: generated inputs, child runs, and their checks."""

    def __init__(self, name: str, seed: int, scale: float, root: str, work: str) -> None:
        self.name = name
        self.work = work
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        self.workload = GENERATORS[name](seed, scale, inputs)
        self.golden = seed == DEFAULT_SEED and scale == 1.0
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.attempted = 0
        self.failed = 0
        self.runs = 0

    def _fresh_dir(self, kind: str) -> str:
        self.runs += 1
        path = os.path.join(self.work, f"{kind}-{self.runs}")
        os.makedirs(path)
        return path

    def setup_once(self) -> float:
        """One fresh-interpreter set-up; also confirms the checkout's sources were used."""
        run_dir = self._fresh_dir("setup")
        out = os.path.join(run_dir, "stdout.txt")
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), self.workload.config_path]
        _, _, code = spawn(argv, self.env, out, os.path.join(run_dir, "stderr.txt"))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {_read(run_dir, 'stderr.txt')}")
        with open(out, encoding="utf-8") as fh:
            probe = json.loads(fh.read())
        if not probe["package"].startswith(self.src + os.sep):
            raise RuntimeError(f"measured {probe['package']}, not the checkout's {self.src}")
        shutil.rmtree(run_dir)
        return probe["setup_s"]

    def cli_once(self, traced: bool) -> tuple[float, float, str, dict | None]:
        """One checked CLI run: wall, peak RSS, output directory, and what it gave.

        The output directory is left in place for the caller.  What the run
        gave is None when it failed its checks; otherwise it holds the
        simulated statistics (``sim``) and, if traced, the spans (``spans``).
        """
        run_dir = self._fresh_dir("traced" if traced else "cli")
        out_dir = os.path.join(run_dir, "out")
        os.makedirs(out_dir)
        argv = [self.workload.command, "--config", self.workload.config_path]
        if self.workload.command != "oracle-check":
            argv += ["--out", out_dir, "--quiet"]
        spans_path = os.path.join(run_dir, "spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spans_path, "--", *argv]
        else:
            argv = [sys.executable, "-m", "mlpsched", *argv]
        stdout_path = os.path.join(out_dir, checks.STDOUT_NAME)
        stderr_path = os.path.join(run_dir, "stderr.txt")
        wall, rss, code = spawn(argv, self.env, stdout_path, stderr_path)

        self.attempted += 1
        given = None
        if code != 0:
            problems = [f"exit code {code}: {_read(run_dir, 'stderr.txt')}"]
        else:
            # Any exception here is a fault in the program's outputs, not in
            # the benchmark, so it fails the run instead of ending the benchmark.
            try:
                problems = checks.CHECKS[self.workload.command](self.workload.config, out_dir)
                if self.golden:
                    problems += checks.check_golden(self.name, out_dir)
                given = {"sim": self.sim_statistics(out_dir)}
                problems += [
                    f"{name} is {value}" for name, value in given["sim"].items() if not math.isfinite(value)
                ]
                if traced:
                    with open(spans_path, encoding="utf-8") as fh:
                        given["spans"] = json.load(fh)
            except Exception as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{self.name} run {self.runs}: {problem}", file=sys.stderr)
            return wall, rss, out_dir, None
        return wall, rss, out_dir, given

    def end_to_end(self, seconds: float) -> dict:
        """Medians over the runs that passed their checks (over all runs if none did)."""
        walls, rss, passed, setups = [], [], [], []
        start, lap = perf_counter(), 0.0
        # Stop before a round that would end after --seconds.
        while self.attempted < MIN_RUNS or perf_counter() - start + lap <= seconds:
            lap_start = perf_counter()
            before = reference_loop()
            setup = [self.setup_once() for _ in range(SETUPS_PER_RUN)]
            wall, peak, out_dir, given = self.cli_once(traced=False)
            shutil.rmtree(os.path.dirname(out_dir))
            # Scale to the reference speed with the loop timed on both sides.
            speed = REFERENCE_S / ((before + reference_loop()) / 2)
            setups += [t * speed for t in setup]
            walls.append(wall * speed)
            rss.append(peak)
            passed.append(given is not None)
            lap = perf_counter() - lap_start
        keep = [i for i, ok in enumerate(passed) if ok] or range(len(walls))
        wall = statistics.median(walls[i] for i in keep)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "sim_thread_cycles_per_s": self.workload.thread_cycles / wall,
            "peak_rss_mb": statistics.median(rss[i] for i in keep),
        }

    def sim_statistics(self, out_dir: str) -> dict:
        """The simulated statistic this workload's command reports; the other reads 0."""
        if self.workload.command == "oracle-check":
            return {"sim_serpentine_speedup": 0.0, "sim_oracle_ratio_max": checks.oracle_ratio_max(out_dir)}
        return {"sim_serpentine_speedup": checks.serpentine_speedup(out_dir), "sim_oracle_ratio_max": 0.0}

    def per_layer(self, seconds: float) -> dict:
        """Numbers of the median traced run that passed; all 0 if no run passed."""
        plain_walls, references, runs, sim = [], [], [], None
        decisions = defaultdict(list)
        start, lap = perf_counter(), 0.0
        # Stop before a round that would end after --seconds.
        while self.attempted < 2 * MIN_RUNS or perf_counter() - start + lap <= seconds:
            lap_start = perf_counter()
            references.append(reference_loop())
            wall, _, out_dir, given = self.cli_once(traced=False)
            if given is not None:
                plain_walls.append(wall)
                sim = given["sim"]
            shutil.rmtree(os.path.dirname(out_dir))

            wall, _, out_dir, given = self.cli_once(traced=True)
            if given is not None:
                metrics, run_decisions = layer_metrics(given["spans"], wall)
                metrics["experiments.rows_written"] = csv_rows(out_dir)
                runs.append(metrics)
                for policy, durations in run_decisions.items():
                    decisions[policy] += durations
            shutil.rmtree(os.path.dirname(out_dir))
            lap = perf_counter() - lap_start
        if not runs or sim is None:
            print(f"{self.name}: no untraced and traced run passed its checks", file=sys.stderr)
            return dict.fromkeys(PER_LAYER, 0.0)

        # The traced run with the (lower) median wall time, whole, so that its
        # layer self times and cli.self_s add up to its trace.wall_s exactly.
        runs.sort(key=lambda r: r["trace.wall_s"])
        result = runs[(len(runs) - 1) // 2]
        result["host.wall_raw_s"] = statistics.median(plain_walls)
        result["host.reference_s"] = statistics.median(references)
        result["trace.overhead_s"] = result["trace.wall_s"] - result["host.wall_raw_s"]
        for policy in ALL_POLICIES:
            samples = sorted(decisions[policy])
            pct = tail_percentile(len(samples))
            result[f"policies.{policy}.samples"] = len(samples)
            result[f"policies.{policy}.decision_ptail_pct"] = pct
            result[f"policies.{policy}.decision_us_p50"] = (
                percentile(samples, 50) * 1e6 if samples else 0.0
            )
            result[f"policies.{policy}.decision_us_ptail"] = (
                percentile(samples, pct) * 1e6 if samples else 0.0
            )
        return {**result, **sim}


def _read(run_dir: str, name: str) -> str:
    with open(os.path.join(run_dir, name), encoding="utf-8", errors="replace") as fh:
        return fh.read().strip()[-2000:]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink run lengths (the smoke test uses a tiny scale); digests are pinned at 1",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mlpsched", "cli.py")):
        print(f"error: no mlpsched sources at {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        bench = Bench(args.workload, args.seed, args.scale, root, work)
        if args.trace:
            values, units = bench.per_layer(args.seconds), PER_LAYER
        else:
            values, units = bench.end_to_end(args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
