"""Plane 1: seeded injection of eDRAM retention faults into a live run.

A :class:`FaultInjector` is built by :class:`~repro.timing.system.System`
when a :class:`~repro.faults.plan.FaultPlan` with hardware faults is
supplied, and is consulted by :meth:`~repro.edram.refresh.RefreshEngine.
advance_to` at every refresh boundary.  Faults latch at boundaries (not
at their exact due cycle): a decayed cell's corruption is discovered when
the refresh logic next touches the line, and boundary-latching keeps the
reference and fast simulation loops on the identical fault schedule, so
a faulted run is loop-independent and reproduces bit for bit under
retry.

Each injected fault resolves to one of four outcomes:

``masked``
    The targeted line was invalid (or the way is out of range for the
    current cache) -- flipping bits in dead cells has no architectural
    effect.
``corrected``
    The run's ECC can correct at least as many bits as the fault flipped
    (only the ``ecc`` technique has correction capability); the line
    survives untouched.
``invalidated-clean``
    A clean line was dropped; the next access re-fetches it from memory
    (a performance cost, not a correctness one).
``data-loss``
    A *dirty* line was dropped -- the modified data existed only in the
    cache, so this is unrecoverable silent data corruption.  This is the
    outcome that bounds how far refresh power can be cut (paper
    Section 2's reliability argument).

Every fault emits an :data:`~repro.obs.trace.EVENT_FAULT_INJECT` trace
event and bumps ``faults.*`` metrics counters, so injections are visible
in ``repro trace`` / ``repro trace-stats`` output.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.config import RefreshConfig
from repro.faults.plan import FaultPlan
from repro.obs.trace import EVENT_FAULT_INJECT

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`FaultPlan`'s hardware faults to one run's cache.

    Parameters
    ----------
    plan:
        The fault plan (explicit events and/or per-bank rates).
    cache:
        The L2 model whose lines get corrupted.
    config:
        Refresh machinery parameters (bank count, retention period).
    workload, technique:
        Identity of the run; together with ``plan.seed`` they key the
        RNG stream, so a retried run replays identical faults.
    correctable_bits:
        Bits per line the run's ECC can correct (0 for every technique
        except ``ecc``).
    tracer:
        Event tracer (``None`` = disabled), shared with the system.
    metrics:
        Metrics registry (``None`` = disabled), shared with the system.
    """

    def __init__(
        self,
        plan: FaultPlan,
        cache: SetAssociativeCache,
        config: RefreshConfig,
        workload: str,
        technique: str,
        correctable_bits: int = 0,
        tracer=None,
        metrics=None,
    ) -> None:
        self.plan = plan
        self.cache = cache
        self.correctable_bits = correctable_bits
        self.tracer = tracer
        num_banks = config.num_banks
        if plan.bank_rates is not None and len(plan.bank_rates) != num_banks:
            raise ValueError(
                f"fault plan names {len(plan.bank_rates)} bank rates but the "
                f"machine has {num_banks} banks"
            )
        self._rng = np.random.default_rng(plan.rng_seed_for(workload, technique))
        self._events = sorted(plan.events, key=lambda e: (e.cycle, e.set_index, e.way))
        self._next_event = 0
        if plan.bank_rates is not None:
            rates = plan.bank_rates
        else:
            rates = (plan.flip_rate,) * num_banks
        self._bank_rates = rates
        self._rate_bits = plan.rate_bits
        # Per-bank arrays of global line indices (the bank layout is static:
        # low-order set interleaving, see BankedRefreshScheduler.bank_of_set).
        a = cache.associativity
        num_lines = cache.state.num_lines
        # Vectorised form of BankedRefreshScheduler.bank_of_set (low-order
        # set interleaving: bank = set_index % num_banks).
        banks_of_lines = (np.arange(num_lines) // a) % num_banks
        self._bank_lines = tuple(
            np.nonzero(banks_of_lines == b)[0] for b in range(num_banks)
        )
        self._any_rate = any(r > 0.0 for r in rates)
        # Outcome counters (reported via SystemResult).
        self.injected = 0
        self.masked = 0
        self.corrected = 0
        self.invalidated_clean = 0
        self.data_loss = 0
        if metrics is not None:
            self._c_injected = metrics.counter("faults.injected")
            self._c_masked = metrics.counter("faults.masked")
            self._c_corrected = metrics.counter("faults.corrected")
            self._c_invalidated = metrics.counter("faults.invalidated_clean")
            self._c_data_loss = metrics.counter("faults.data_loss")
        else:
            self._c_injected = None
            self._c_masked = None
            self._c_corrected = None
            self._c_invalidated = None
            self._c_data_loss = None

    # ------------------------------------------------------------------

    def at_boundary(self, boundary_cycle: int) -> None:
        """Latch every fault due at or before this refresh boundary."""
        events = self._events
        i = self._next_event
        a = self.cache.associativity
        while i < len(events) and events[i].cycle <= boundary_cycle:
            ev = events[i]
            i += 1
            if ev.way >= a or ev.set_index >= len(self.cache.sets):
                self._record(None, ev.bits, boundary_cycle, "masked", "event")
                continue
            g = ev.set_index * a + ev.way
            self._apply(g, ev.bits, boundary_cycle, "event")
        self._next_event = i
        if self._any_rate:
            self._rate_draw(boundary_cycle)

    def _rate_draw(self, boundary_cycle: int) -> None:
        """Per-bank binomial draw over currently valid lines."""
        valid = self.cache.state.valid
        rng = self._rng
        bits = self._rate_bits
        for bank, rate in enumerate(self._bank_rates):
            if rate <= 0.0:
                continue
            lines = self._bank_lines[bank]
            valid_lines = lines[valid[lines]]
            n_valid = int(valid_lines.size)
            if n_valid == 0:
                continue
            n_fail = int(rng.binomial(n_valid, rate))
            if n_fail == 0:
                continue
            victims = rng.choice(valid_lines, size=n_fail, replace=False)
            for g in victims:
                self._apply(int(g), bits, boundary_cycle, "rate")

    def _apply(self, g: int, bits: int, cycle: int, source: str) -> None:
        """Resolve one fault on global line ``g`` to an outcome."""
        if not self.cache.state.valid[g]:
            self._record(g, bits, cycle, "masked", source)
            return
        if bits <= self.correctable_bits:
            self._record(g, bits, cycle, "corrected", source)
            return
        _tag, was_dirty = self.cache.invalidate_line(g)
        outcome = "data-loss" if was_dirty else "invalidated-clean"
        self._record(g, bits, cycle, outcome, source)

    def _record(
        self, g: int | None, bits: int, cycle: int, outcome: str, source: str
    ) -> None:
        self.injected += 1
        if outcome == "masked":
            self.masked += 1
            c = self._c_masked
        elif outcome == "corrected":
            self.corrected += 1
            c = self._c_corrected
        elif outcome == "invalidated-clean":
            self.invalidated_clean += 1
            c = self._c_invalidated
        else:
            self.data_loss += 1
            c = self._c_data_loss
        if c is not None:
            c.inc()
            self._c_injected.inc()
        tracer = self.tracer
        if tracer is not None:
            a = self.cache.associativity
            tracer.emit(
                EVENT_FAULT_INJECT,
                cycle,
                outcome=outcome,
                source=source,
                bits=bits,
                set=-1 if g is None else g // a,
                way=-1 if g is None else g % a,
            )
