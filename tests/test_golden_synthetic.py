"""Golden digests on seeded synthetic configs, all six policies each.

``test_golden.py`` pins the shipped configs; these five configs add shapes
the shipped ones lack: constant threads, migrations with a penalty below and
above the quantum, a window as long as the quantum, threads that run out of
phases, quanta many times L x latency, where the engine's periodic
fast-forward skips whole repeats, and pools with room for their residents'
whole demand, whose groups the engine moves straight to the next event.  Each case runs ``simulate`` from inside
an empty directory and pins the SHA-256 of stdout and of every file written.
The configs, the digests and the runner live in ``golden_check.py``; the
digests were computed before the fast-forward was added, or, for the
fitted pools, before the jumps that serve them were added.

The workloads come from ``generate_synthetic`` and the ``random`` policy
draws from ``random.Random``, whose sequences Python does not promise to
keep across versions; the CI matrix runs these on every version it tests.
"""

import pytest

from golden_check import SYNTHETIC, SYNTHETIC_ARGV, SYNTHETIC_CONFIGS, digests


@pytest.mark.parametrize("name", sorted(SYNTHETIC_CONFIGS))
def test_synthetic_config_outputs_match_golden(name):
    assert digests(SYNTHETIC_ARGV, SYNTHETIC_CONFIGS[name]) == SYNTHETIC[name]
