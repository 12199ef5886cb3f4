"""Golden digests: the shipped configs' output bytes must never drift.

Each case runs one CLI command on a config under ``configs/`` from inside an
empty directory (so the ``wrote out/...`` lines in stdout carry no temporary
path) and pins the SHA-256 of every file written and of stdout.  The digests
and the runner live in ``golden_check.py``, which also runs them without
pytest.  They were computed before the next-event engine replaced
cycle-by-cycle stepping; a refactor that changes any byte of any output
fails here.  Rerun byte-identity (acceptance criterion 7) only compares two
runs of the same code, so it cannot see drift between versions.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from golden_check import SHIPPED, digests, shipped_argv


@pytest.mark.parametrize("command, config", sorted(SHIPPED), ids=lambda v: v)
def test_shipped_config_outputs_match_golden(command, config):
    assert digests(shipped_argv(command, config)) == SHIPPED[(command, config)]


def test_golden_check_needs_no_pytest():
    """``python tests/golden_check.py`` must run where pytest is not
    installed: neither it nor the CLI it drives may import pytest."""
    script = Path(__file__).resolve().parent / "golden_check.py"
    code = (
        "import runpy, sys\n"
        f"runpy.run_path({str(script)!r})\n"
        "import mlpsched.cli\n"
        "assert 'pytest' not in sys.modules, 'pytest was imported'\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
