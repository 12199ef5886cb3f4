"""Golden digests on seeded synthetic configs, all six policies each.

``test_golden.py`` pins the shipped configs; these four configs add shapes
the shipped ones lack: constant threads, migrations with a penalty below and
above the quantum, a window as long as the quantum, threads that run out of
phases, and quanta many times L x latency, where the engine's periodic
fast-forward skips whole repeats.  Each case runs ``simulate`` from inside
an empty directory and pins the SHA-256 of stdout and of every file written.
The digests were computed before the fast-forward was added.

The workloads come from ``generate_synthetic`` and the ``random`` policy
draws from ``random.Random``, whose sequences Python does not promise to
keep across versions; the CI matrix runs these on every version it tests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mlpsched.cli import main

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


CONFIGS = {
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

GOLDEN = {
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


def run_digests(config, workdir, monkeypatch, capsys):
    """SHA-256 of ``simulate``'s stdout and of every file it writes under ``out/``."""
    monkeypatch.chdir(workdir)
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--config", "config.json", "--out", "out"]) == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()}
    for path in sorted(Path(workdir, "out").iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_synthetic_config_outputs_match_golden(name, tmp_path, monkeypatch, capsys):
    assert run_digests(CONFIGS[name], tmp_path, monkeypatch, capsys) == GOLDEN[name]
