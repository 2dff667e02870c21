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

from repro.util import lazy_exports

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Names resolve on first
#: access (PEP 562), so ``import repro`` loads neither NumPy nor the
#: simulator; ``from repro import Runner`` imports what ``Runner`` needs.
_EXPORTS = {
    "ALL_BENCHMARKS": "repro.workloads.profiles",
    "CacheDecayRefresh": "repro.edram.decay",
    "CacheGeometry": "repro.config",
    "DUAL_CORE_MIXES": "repro.workloads.multiprog",
    "EnergyParams": "repro.energy.params",
    "EsteemConfig": "repro.config",
    "EsteemController": "repro.core.esteem",
    "MemoryConfig": "repro.config",
    "MetricsRegistry": "repro.obs.metrics",
    "ParallelWorkerError": "repro.experiments.parallel",
    "PeriodicAllRefresh": "repro.edram.refresh",
    "ProgressReporter": "repro.obs.campaign",
    "RefreshConfig": "repro.config",
    "RefrintPolyphaseDirty": "repro.edram.rpd",
    "RefrintPolyphaseValid": "repro.edram.rpv",
    "Runner": "repro.experiments.runner",
    "SelectiveSetsController": "repro.core.selective_sets",
    "SetAssociativeCache": "repro.cache.cache",
    "SimConfig": "repro.config",
    "System": "repro.timing.system",
    "SystemResult": "repro.timing.result",
    "TECHNOLOGIES": "repro.tech.params",
    "Tracer": "repro.obs.trace",
    "aggregate": "repro.experiments.runner",
    "counter_overhead_percent": "repro.energy.model",
    "esteem_decide": "repro.core.algorithm",
    "evaluate_technology": "repro.tech.compare",
    "fig2_reconfiguration_timeline": "repro.experiments.figures",
    "generate_trace": "repro.workloads.synthetic",
    "get_mix": "repro.workloads.multiprog",
    "get_profile": "repro.workloads.profiles",
    "retention_us": "repro.edram.retention",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__ = lazy_exports(__name__, _EXPORTS)
