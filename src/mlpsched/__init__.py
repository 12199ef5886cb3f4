"""MLP-aware quantum scheduling: occupancy counters, policies, simulator.

The model: threads on a K-processor machine (L hardware slots each) issue
memory requests against per-processor MSHR pools.  Windowed per-thread
occupancy counters, sampled each scheduling quantum, feed a policy that
rebalances the thread-to-processor map; the serpentine policy spreads the
heaviest memory consumers across processors in alternating passes.
"""

from .core import SystemConfig
from .engine import run_simulation
from .policies import serpentine_schedule
from .workload import Phase, ThreadWorkload

__version__ = "0.1.0"

# The names the README's library example imports; everything else is
# imported from its submodule (mlpsched.core, .engine, .experiments,
# .policies, .workload).
__all__ = [
    "Phase",
    "SystemConfig",
    "ThreadWorkload",
    "run_simulation",
    "serpentine_schedule",
    "__version__",
]
