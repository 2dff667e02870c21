"""LLC technology comparison substrate (paper Sections 1-2 context).

The paper motivates eDRAM by comparison: SRAM leaks ~8x more, NVMs
(STT-RAM/ReRAM) have near-zero leakage but limited write endurance and
slow, expensive writes.  This package models those alternatives around the
same cache geometry so the motivation can be measured
(``benchmarks/bench_tech_comparison.py``).
"""

from repro.util import lazy_exports

_EXPORTS = {
    "TECHNOLOGIES": "repro.tech.params",
    "TechSystem": "repro.tech.compare",
    "evaluate_technology": "repro.tech.compare",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
