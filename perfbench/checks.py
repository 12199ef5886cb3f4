"""Output checks run on every benchmark run.

Each check returns a list of problems; an empty list means the run's
outputs are correct.  Three properties are checked, where the command
writes what they need:

* every quantum's placement in a per-quantum CSV is a bijection over the
  K x L slots;
* the summary totals equal the CSV column sums;
* on every ``oracle-check`` row, optimal <= serpentine and the ratio is >= 1.

At the default seed the output files must also hash to the SHA-256 digests
pinned in ``golden.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
STDOUT_NAME = "stdout.txt"

_ORACLE_ROW = re.compile(r"quantum (\d+): serpentine (\S+) optimal (\S+) ratio (\S+)$")
_ORACLE_MAX = re.compile(r"corpus-max ratio: (\S+)$")


def digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file in a run's output directory, by file name."""
    result = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def check_golden(workload: str, out_dir: str) -> list[str]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)[workload]
    got = digests(out_dir)
    return [
        f"{name}: sha256 {got.get(name, 'missing')} != pinned {pinned.get(name, 'none')}"
        for name in sorted(set(pinned) | set(got))
        if got.get(name) != pinned.get(name)
    ]


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_totals(policy: str, totals: dict) -> list[str]:
    problems = []
    if totals["completed"] != sum(totals["completed_per_thread"]):
        problems.append(f"{policy}: totals.completed is not the per-thread sum")
    if totals["stall_cycles"] != sum(totals["stall_cycles_per_thread"]):
        problems.append(f"{policy}: totals.stall_cycles is not the per-thread sum")
    return problems


def check_simulate(config: dict, out_dir: str) -> list[str]:
    """Per-quantum CSVs: bijective placements, and column sums equal the summary."""
    system = config["system"]
    k, l = system["num_processors"], system["slots_per_processor"]
    n = k * l
    slots = {(p, s) for p in range(k) for s in range(l)}
    summary = _read_summary(out_dir)["results"]
    problems = []
    for policy in config["policies"]:
        completed = [0] * n
        stalls = [0] * n
        measured_completed = 0
        placements: dict[int, dict[int, tuple[int, int]]] = {}
        with open(os.path.join(out_dir, f"{policy}_quanta.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                q, t = int(row["quantum"]), int(row["thread"])
                placements.setdefault(q, {})[t] = (int(row["processor"]), int(row["slot"]))
                completed[t] += int(row["completed"])
                stalls[t] += int(row["stalls"])
                if q >= config["warmup_quanta"]:
                    measured_completed += int(row["completed"])
        if sorted(placements) != list(range(config["quanta"])):
            problems.append(f"{policy}: CSV quanta are not 0..{config['quanta'] - 1}")
        for q, placement in placements.items():
            if sorted(placement) != list(range(n)) or set(placement.values()) != slots:
                problems.append(f"{policy}: quantum {q} placement is not a bijection over {k}x{l} slots")
        result = summary[policy]
        totals = result["totals"]
        problems += _check_totals(policy, totals)
        if totals["completed_per_thread"] != completed:
            problems.append(f"{policy}: totals.completed_per_thread != CSV completed sums")
        if totals["stall_cycles_per_thread"] != stalls:
            problems.append(f"{policy}: totals.stall_cycles_per_thread != CSV stalls sums")
        measured = result["measured"]
        expected = measured_completed / (measured["quanta"] * system["quantum_cycles"])
        if measured["throughput"] != expected:
            problems.append(f"{policy}: measured throughput {measured['throughput']} != CSV {expected}")
    return problems


def check_compare(config: dict, out_dir: str) -> list[str]:
    """compare.csv rows equal the summary's measured values, in policy order."""
    summary = _read_summary(out_dir)["results"]
    with open(os.path.join(out_dir, "compare.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [r["policy"] for r in rows] != config["policies"]:
        problems.append(f"compare.csv policies {[r['policy'] for r in rows]} != config")
        return problems
    base = float(rows[0]["throughput"])
    for row in rows:
        policy = row["policy"]
        result = summary[policy]
        problems += _check_totals(policy, result["totals"])
        measured = result["measured"]
        if float(row["throughput"]) != measured["throughput"]:
            problems.append(f"{policy}: compare.csv throughput != summary")
        if int(row["total_stalls"]) != measured["total_stalls"]:
            problems.append(f"{policy}: compare.csv total_stalls != summary")
        expected = speedup(float(row["throughput"]), base)
        if float(row["speedup"]) != expected:
            problems.append(f"{policy}: speedup {row['speedup']} != throughput / base {expected}")
    return problems


def parse_oracle(stdout: str) -> tuple[list[tuple[int, float, float, float]], float | None]:
    rows, worst = [], None
    for line in stdout.splitlines():
        if m := _ORACLE_ROW.match(line):
            rows.append((int(m[1]), float(m[2]), float(m[3]), float(m[4])))
        elif m := _ORACLE_MAX.match(line):
            worst = float(m[1])
    return rows, worst


def check_oracle(config: dict, out_dir: str) -> list[str]:
    """Every row: optimal <= serpentine, ratio >= 1; the max line is the row max."""
    with open(os.path.join(out_dir, STDOUT_NAME), encoding="utf-8") as fh:
        rows, worst = parse_oracle(fh.read())
    problems = []
    if [r[0] for r in rows] != list(range(config["quanta"])):
        problems.append(f"oracle-check printed {len(rows)} quantum rows, expected {config['quanta']}")
    for q, serp, opt, ratio in rows:
        if opt > serp:
            problems.append(f"quantum {q}: optimal {opt} > serpentine {serp}")
        if ratio < 1.0:
            problems.append(f"quantum {q}: ratio {ratio} < 1")
    if worst is None or not rows or worst != max(r[3] for r in rows):
        problems.append(f"corpus-max ratio {worst} is not the maximum row ratio")
    return problems


CHECKS = {"simulate": check_simulate, "compare": check_compare, "oracle-check": check_oracle}


def speedup(throughput: float, base: float) -> float:
    """Throughput over base, as the program writes it: 1 when equal, inf over a zero base."""
    if throughput == base:
        return 1.0
    return float("inf") if base == 0.0 else throughput / base


def serpentine_speedup(out_dir: str) -> float:
    """Post-warmup throughput of serpentine over static, from summary.json."""
    results = _read_summary(out_dir)["results"]
    return speedup(results["serpentine"]["measured"]["throughput"], results["static"]["measured"]["throughput"])


def oracle_ratio_max(out_dir: str) -> float:
    with open(os.path.join(out_dir, STDOUT_NAME), encoding="utf-8") as fh:
        return parse_oracle(fh.read())[1]
