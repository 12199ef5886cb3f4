"""Time one fresh-interpreter set-up: import, load_experiment, pad_workloads.

Usage: python3 perfbench/setup_probe.py CONFIG

Prints one JSON object: the elapsed seconds and the imported package's path,
so the caller can confirm that the checkout's own sources were measured.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    import mlpsched.cli  # the CLI's whole import graph
    from mlpsched.experiments import load_experiment
    from mlpsched.workload import pad_workloads

    config = load_experiment(sys.argv[1])
    pad_workloads(config.workloads, config.system)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "package": mlpsched.cli.__file__}))


if __name__ == "__main__":
    main()
