"""Deterministic fault injection: modeled eDRAM faults + harness chaos.

Two planes, one seeded :class:`~repro.faults.plan.FaultPlan`:

* Plane 1 (:mod:`repro.faults.inject`): retention failures / bit-flips
  in the modeled eDRAM cache, latched at refresh boundaries, interacting
  with ECC correction and dirty-line data-loss accounting.
* Plane 2 (:mod:`repro.faults.chaos`): crash / hang / corrupt-result
  behaviour of sweep worker processes, driving the resilient sweep
  harness in :mod:`repro.experiments.parallel`.
"""

from repro.util import lazy_exports

_EXPORTS = {
    "CHAOS_ACTIONS": "repro.faults.plan",
    "FaultEvent": "repro.faults.plan",
    "FaultInjector": "repro.faults.inject",
    "FaultPlan": "repro.faults.plan",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
