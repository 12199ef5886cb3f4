"""The golden output digests, and a check of them that needs only the
standard library.

    python tests/golden_check.py

Each case runs one CLI command from inside an empty temporary directory (so
the ``wrote out/...`` lines in stdout carry no temporary path) and pins the
SHA-256 of stdout and of every file written under ``out/``.  ``SHIPPED``
pins the configs under ``configs/``; ``SYNTHETIC`` pins seeded synthetic
configs that add the shapes the shipped ones lack.  ``test_golden.py`` and
``test_golden_synthetic.py`` run these cases under pytest; run as a script,
this file runs them all without pytest, prints one line per case and exits
1 if any digest differs, so any Python the package supports can check them.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# Computed before the next-event engine replaced cycle-by-cycle stepping.
SHIPPED = {
    ("compare", "speedup"): {
        "stdout": "b31813a806b5b35b067228f6b97fd0ebda7914ed6b0b7d62c6f6aaf6b2881329",
        "compare.csv": "d8d90ce51c9c395eb3fc7ee5b1f56601d5a0caf3158552410cfbbe33d7a93665",
        "summary.json": "a682ad6e7629fba5184d8036a9dc2ad7414c8b3bcb816d6a3725452babef7a2d",
    },
    ("oracle-check", "oracle"): {
        "stdout": "7eaeac0efd2dfafea59c55b40d34fcc1c00a1a173336f927cfeff03fcff027d6",
    },
    ("simulate", "demo"): {
        "stdout": "72393e83a6338b333d64021bed9b9e2ec39b8c3edc22eabe97624028fd86f762",
        "naive_sorted_quanta.csv": "f567a73c9261aa481feebb92333eff637b8af940b3534331c9ed9fecbc3cda26",
        "optimal_quanta.csv": "5c19459c6d0f4d75110923f659fa18264b7cda10e614a708e03df41641560a10",
        "random_quanta.csv": "455fbecff727df6eed92b40ece98c29451ab0c6e76b736a4346a2c53b99d2e9a",
        "round_robin_quanta.csv": "d392ff8c36d73e6300cee126131607d5aed9db4f4938d40b9250c86b6b1c4b98",
        "serpentine_quanta.csv": "48c1a2de917684e1f6ec67a0eee97a6f608ada24729d0cd78a5793b53c2bdd8f",
        "static_quanta.csv": "9c5f2196d049967705ad74bda1ad537a55b9f8918625120f821698328a53f7a7",
        "summary.json": "2a608b5bc405de050a30e0843fd9941052ea89209ea80c7b1c55ba7eaebd6b0e",
    },
    ("sweep", "sweep"): {
        "stdout": "218168db57e0b05884d483c57dc2321361386c1d386e0ef1664f67e8180905f9",
        "sweep.csv": "333c018c42cd9ffad10486ff04e64f3cef6e375d634329b97e1c362bb6338f54",
    },
}


ALL_POLICIES = ["serpentine", "naive_sorted", "round_robin", "random", "optimal", "static"]


def experiment(system, synthetic, quanta, warmup, seed):
    return {
        "system": system,
        "workload": {"synthetic": synthetic},
        "policies": ALL_POLICIES,
        "quanta": quanta,
        "warmup_quanta": warmup,
        "seed": seed,
    }


# Seeded synthetic configs, all six policies each.
SYNTHETIC_CONFIGS = {
    # long phases on demo's machine shape, quanta 20 x L x latency
    "long_phases_4x3": experiment(
        dict(num_processors=4, slots_per_processor=3, mshrs_per_processor=16,
             memory_latency=100, quantum_cycles=6000, window_cycles=1500),
        dict(n_threads=12, seed=3, phases_per_thread=4,
             duration_range=[5000, 20000], demand_range=[0, 12]),
        quanta=6, warmup=1, seed=5,
    ),
    # constant threads on 8-entry pools, migrations frozen for 400 cycles
    "constant_3x4": experiment(
        dict(num_processors=3, slots_per_processor=4, mshrs_per_processor=8,
             memory_latency=40, quantum_cycles=6000, window_cycles=1500,
             migration_penalty=400),
        dict(n_threads=12, seed=8, phases_per_thread=1,
             duration_range=[1, 1], demand_range=[0, 8]),
        quanta=5, warmup=1, seed=9,
    ),
    # window = quantum, a freeze longer than the quantum, threads that run
    # out of phases, and two idle padding threads
    "finite_whole_window_2x6": experiment(
        dict(num_processors=2, slots_per_processor=6, mshrs_per_processor=12,
             memory_latency=30, quantum_cycles=4000, window_cycles=4000,
             migration_penalty=5000),
        dict(n_threads=10, seed=21, phases_per_thread=3,
             duration_range=[1500, 9000], demand_range=[0, 12], repeat=False),
        quanta=5, warmup=0, seed=13,
    ),
    # short latency, small pools, frequent phase ends
    "short_latency_6x2": experiment(
        dict(num_processors=6, slots_per_processor=2, mshrs_per_processor=6,
             memory_latency=7, quantum_cycles=3000, window_cycles=600),
        dict(n_threads=12, seed=34, phases_per_thread=6,
             duration_range=[400, 2500], demand_range=[0, 6]),
        quanta=6, warmup=2, seed=21,
    ),
}

# Computed before the engine's periodic fast-forward was added.  The
# workloads come from ``generate_synthetic`` and the ``random`` policy draws
# from ``random.Random``, whose sequences Python does not promise to keep
# across versions.
SYNTHETIC = {
    "long_phases_4x3": {
        "stdout": "5aa7bdf7c1a012731930e2ea37ec214bfa5cf2602d1b2b5951e793942ffd012c",
        "naive_sorted_quanta.csv": "7f0e444524b3e25ebfda8a147e8862e8e142cec3ff250a364fcc69f7b73379ad",
        "optimal_quanta.csv": "146d636eba5ce04be7e705bc4579fd301a2b554314385ac9ed25282451d2e928",
        "random_quanta.csv": "63f2fc50dad9ac2ccc5186a8b15d4afd4c9d8d2e7f033352ff36a833605b9e9c",
        "round_robin_quanta.csv": "aae6a3f2c62983afc8388a6e802250d80097d5bc0660ea947785ab2acd5c413c",
        "serpentine_quanta.csv": "84216b8a9cc2eaccf357867a5ee8b7e173a44b91167e6fdcde4eadc1475d1b92",
        "static_quanta.csv": "65b08c6587258d55aead736eac595102dfecf807a5bfd707e640f5782da3be16",
        "summary.json": "5fd16f4ed06d1f008750d3d9337c499239aeb5a4cf4a3b71bfad4de8a87840ca",
    },
    "constant_3x4": {
        "stdout": "d5275dda3ec7f62cad746d283092d8076bd935a21fa34546f5f43ab6c9693939",
        "naive_sorted_quanta.csv": "132bca3081e32e961f5feed9f063631fa6a97d4ec838de6042b2f87dbfdd1800",
        "optimal_quanta.csv": "82c9077e3266d851be14889bace0611960c0929b02b5da1bad0793be17e9d6bd",
        "random_quanta.csv": "688429afad794d2c2b36407bd864783deac06eb600f299ac06cee1249e8c7ed5",
        "round_robin_quanta.csv": "53f6206c80d230bb4972c9077d4276adb27c10839fc9ff9fa22637d7438d3af8",
        "serpentine_quanta.csv": "4d060b74977e65ab723b2004d4dd6ea12051f6e64363ca08843c5e8577d3b43a",
        "static_quanta.csv": "7fdc4e53e90ad2ae079f1a38e45ad2a8eebedf74d7877700714303282a374edd",
        "summary.json": "15da75e08cca854e8d97a2d9d343ceca0fcd3117f04d319e212edbd3bcb20507",
    },
    "finite_whole_window_2x6": {
        "stdout": "52119fe455677a138142e88b3b2f66934062d519acec4b11ab9fc1cab9de17ae",
        "naive_sorted_quanta.csv": "ea293bc2f1fbda6cdd8328e8024576d7d568da3f4c6d343f91773fcfdc8ac428",
        "optimal_quanta.csv": "7de178b1fce3cf21b496eff4210ce1005251eee6f0e3ea1d5df5e414d11d994b",
        "random_quanta.csv": "ad60c867b1d79deb20c684845163bc495c593d4feacb009162ce1b8e8bfc3132",
        "round_robin_quanta.csv": "3cf5f8ba341cdd5ee9654fbc136fc58b159d8bf9cc04a0d1ef35caf1bc6d8258",
        "serpentine_quanta.csv": "3c4ed0fcd8391e844e9efbeb40a6579352aca0bba9334e8808624c7e5e0df134",
        "static_quanta.csv": "29d8801e82fec103454674ed8eba74c5b0cab591a69b89c1ac384cb7467e0d42",
        "summary.json": "c634cd8424047eff323f7419c6234d810e8a209ebe656a36764f9658339f6124",
    },
    "short_latency_6x2": {
        "stdout": "4db2581cfca9a5a7404f460343f7a1dfef466e83a8be910a5f718d841feb8fac",
        "naive_sorted_quanta.csv": "2ca9659b18f1971f5a0bb9fce957932ca0c6e2c04ce9907034fcb7d64e500518",
        "optimal_quanta.csv": "905bae5c43bc020d7e88dfcd3d90bff2925081767b94bedba421c46bcf21b6f3",
        "random_quanta.csv": "2da8dd8b2ef1d99efaa8fe1dc93db989ed67118ffb67c8238ec4fe473d6fa0ce",
        "round_robin_quanta.csv": "512d2dedcfa5665ce07003cd0c6c4ef3d801d43748d1e76185c97e6a5b139d67",
        "serpentine_quanta.csv": "d8080b0ccbb7068b61fe4b2894c5136ebddf803757ccff0acf95e75ea16ad730",
        "static_quanta.csv": "265a6183651f49a379899251f44bb4598243e0035a37eeca953b4bcdad83318c",
        "summary.json": "3d4d1fa568c32c6e42ae88aa653798e438ca9f7737d62e8f1e9b331856c7b5a3",
    },
}

SYNTHETIC_ARGV = ["simulate", "--config", "config.json", "--out", "out"]


def shipped_argv(command, name):
    """The command line of the ``SHIPPED`` case ``(command, name)``."""
    argv = [command, "--config", str(CONFIG_DIR / f"{name}.json")]
    if command != "oracle-check":
        argv += ["--out", "out"]
    return argv


def digests(argv, config=None):
    """SHA-256 of the command's stdout and of every file it writes under
    ``out/``, run from inside an empty temporary directory, with ``config``
    written there as ``config.json`` if given."""
    from mlpsched.cli import main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            if config is not None:
                Path("config.json").write_text(json.dumps(config), encoding="utf-8")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = main(argv)
            if status != 0:
                return {"exit status": status}
            found = {"stdout": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}
            out = Path("out")
            if out.is_dir():
                for path in sorted(out.iterdir()):
                    found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            return found
        finally:
            os.chdir(here)


def check():
    """Run every case, print one line each, and return the exit status."""
    runs = [
        (f"{command} {name}", shipped_argv(command, name), None, golden)
        for (command, name), golden in sorted(SHIPPED.items())
    ]
    runs += [
        (f"simulate {name}", SYNTHETIC_ARGV, SYNTHETIC_CONFIGS[name], golden)
        for name, golden in sorted(SYNTHETIC.items())
    ]
    failed = 0
    for label, argv, config, golden in runs:
        found = digests(argv, config)
        wrong = sorted(f for f in set(golden) | set(found) if golden.get(f) != found.get(f))
        failed += bool(wrong)
        print(f"MISMATCH {label}: {', '.join(wrong)}" if wrong else f"ok       {label}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{len(runs) - failed} of {len(runs)} cases match on Python {version}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(check())
