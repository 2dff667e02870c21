"""Timing model: cores, cycle accounting, the multi-core loop (S4-S5)."""

from repro.timing.core_model import CoreResult, CoreState
from repro.timing.system import System, SystemResult, TECHNIQUES

__all__ = [
    "CoreResult",
    "CoreState",
    "System",
    "SystemResult",
    "TECHNIQUES",
]
