"""MLP-aware quantum scheduling: occupancy counters, policies, simulator.

The model: threads on a K-processor machine (L hardware slots each) issue
memory requests against per-processor MSHR pools.  Windowed per-thread
occupancy counters, sampled each scheduling quantum, feed a policy that
rebalances the thread-to-processor map; the serpentine policy spreads the
heaviest memory consumers across processors in alternating passes.
"""

from .core import (
    ConfigError,
    InvalidScheduleError,
    MlpVector,
    Schedule,
    ScheduleQuality,
    SystemConfig,
    processor_load,
    validate_schedule,
)
from .engine import (
    QuantumRecord,
    SimulationReport,
    SimulationTotals,
    initial_schedule,
    run_simulation,
    throughput,
)
from .experiments import (
    ExperimentConfig,
    OracleCheck,
    PolicyMetrics,
    load_experiment,
    measure,
    run_oracle_check,
    run_policies,
    run_sweep,
)
from .policies import (
    MAX_EXHAUSTIVE_THREADS,
    Policy,
    naive_sorted_schedule,
    next_schedule,
    optimal_partition,
    quantum_seed,
    random_schedule,
    round_robin_schedule,
    serpentine_schedule,
    static_schedule,
)
from .workload import (
    Phase,
    ThreadWorkload,
    TraceError,
    WorkloadSpec,
    generate_synthetic,
    load_trace,
    pad_workloads,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "InvalidScheduleError",
    "MAX_EXHAUSTIVE_THREADS",
    "MlpVector",
    "OracleCheck",
    "Phase",
    "Policy",
    "PolicyMetrics",
    "QuantumRecord",
    "Schedule",
    "ScheduleQuality",
    "SimulationReport",
    "SimulationTotals",
    "SystemConfig",
    "ThreadWorkload",
    "TraceError",
    "WorkloadSpec",
    "generate_synthetic",
    "initial_schedule",
    "load_experiment",
    "load_trace",
    "measure",
    "naive_sorted_schedule",
    "next_schedule",
    "optimal_partition",
    "pad_workloads",
    "processor_load",
    "quantum_seed",
    "random_schedule",
    "round_robin_schedule",
    "run_oracle_check",
    "run_policies",
    "run_simulation",
    "run_sweep",
    "save_trace",
    "serpentine_schedule",
    "static_schedule",
    "throughput",
    "validate_schedule",
    "__version__",
]
