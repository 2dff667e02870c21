"""ESTEEM reproduction: energy-saving reconfiguration for eDRAM LLCs.

A from-scratch Python reproduction of Mittal, Vetter & Li, *"Improving
Energy Efficiency of Embedded DRAM Caches for High-end Computing Systems"*
(HPDC 2014): the ESTEEM dynamic cache-reconfiguration technique, the
Refrint polyphase-valid baseline, and the simulation substrate
(a trace-driven multi-core model of the shared L2 and main memory, eDRAM
refresh machinery, energy model, synthetic SPEC/HPC workload proxies)
needed to regenerate every figure and table of the paper's evaluation.

Quickstart
----------
>>> from repro import Runner, SimConfig
>>> runner = Runner(SimConfig.scaled(instructions_per_core=2_000_000))
>>> comparison = runner.compare("h264ref", "esteem")
>>> comparison.energy_saving_pct > 0
True
"""

from repro.config import (
    CacheGeometry,
    EsteemConfig,
    MemoryConfig,
    RefreshConfig,
    SimConfig,
)
from repro.cache import SetAssociativeCache
from repro.core import EsteemController, esteem_decide
from repro.core.selective_sets import SelectiveSetsController
from repro.edram import (
    CacheDecayRefresh,
    PeriodicAllRefresh,
    RefrintPolyphaseDirty,
    RefrintPolyphaseValid,
    retention_us,
)
from repro.energy import EnergyParams, counter_overhead_percent
from repro.experiments import (
    Runner,
    aggregate,
    fig2_reconfiguration_timeline,
    per_workload_comparison,
)
from repro.experiments.parallel import ParallelWorkerError, parallel_compare
from repro.obs import MetricsRegistry, Profiler, ProgressReporter, Tracer
from repro.tech import TECHNOLOGIES, evaluate_technology
from repro.timing import System, SystemResult
from repro.workloads import (
    ALL_BENCHMARKS,
    DUAL_CORE_MIXES,
    generate_trace,
    get_mix,
    get_profile,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_BENCHMARKS",
    "CacheDecayRefresh",
    "RefrintPolyphaseDirty",
    "SelectiveSetsController",
    "TECHNOLOGIES",
    "evaluate_technology",
    "MetricsRegistry",
    "ParallelWorkerError",
    "Profiler",
    "ProgressReporter",
    "Tracer",
    "parallel_compare",
    "CacheGeometry",
    "DUAL_CORE_MIXES",
    "EnergyParams",
    "EsteemConfig",
    "EsteemController",
    "MemoryConfig",
    "PeriodicAllRefresh",
    "RefreshConfig",
    "RefrintPolyphaseValid",
    "Runner",
    "SetAssociativeCache",
    "SimConfig",
    "System",
    "SystemResult",
    "aggregate",
    "counter_overhead_percent",
    "esteem_decide",
    "fig2_reconfiguration_timeline",
    "generate_trace",
    "get_mix",
    "get_profile",
    "per_workload_comparison",
    "retention_us",
    "__version__",
]
