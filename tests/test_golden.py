"""Golden digests: the shipped configs' output bytes must never drift.

Each case runs one CLI command on a config under ``configs/`` from inside an
empty directory (so the ``wrote out/...`` lines in stdout carry no temporary
path) and pins the SHA-256 of every file written and of stdout.  The digests
were computed before the next-event engine replaced cycle-by-cycle stepping;
a refactor that changes any byte of any output fails here.  Rerun
byte-identity (acceptance criterion 7) only compares two runs of the same
code, so it cannot see drift between versions.
"""

import hashlib
from pathlib import Path

import pytest

from mlpsched.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
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


def run_digests(command, config, workdir, monkeypatch, capsys):
    """SHA-256 of stdout and of every file the command writes under ``out/``."""
    monkeypatch.chdir(workdir)
    argv = [command, "--config", str(CONFIGS / f"{config}.json")]
    if command != "oracle-check":
        argv += ["--out", "out"]
    capsys.readouterr()
    assert main(argv) == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()}
    out = Path(workdir) / "out"
    if out.is_dir():
        for path in sorted(out.iterdir()):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("command, config", sorted(GOLDEN), ids=lambda v: v)
def test_shipped_config_outputs_match_golden(command, config, tmp_path, monkeypatch, capsys):
    assert run_digests(command, config, tmp_path, monkeypatch, capsys) == GOLDEN[(command, config)]
