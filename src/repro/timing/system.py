"""The multi-core simulation loop (system S5).

:class:`System` wires a technique together -- shared eDRAM L2, refresh
engine, main memory, and (for ESTEEM) the interval controller -- and runs
one or two trace-driven cores against it.  Cores are interleaved by always
advancing the core with the smallest local clock, which keeps shared-L2
interference orderings realistic without event-queue overhead.

Methodology notes straight from the paper (Section 6.4):

* A dual-core benchmark that finishes its trace early keeps running (the
  trace wraps) so the co-runner still sees contention, but its IPC is
  recorded over the first pass only.
* The energy-saving algorithm runs at fixed wall-clock intervals; energy is
  integrated interval by interval so performance changes feed back into
  leakage/refresh energy (a faster run simply has fewer intervals).
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from functools import wraps
from math import inf, nextafter

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.config import DEFAULT_FREQUENCY_HZ, CacheGeometry, SimConfig
from repro.core.esteem import EsteemController
from repro.core.selective_sets import SelectiveSetsController
from repro.edram.refresh import (
    EsteemDrowsyRefresh,
    EsteemValidActiveRefresh,
    NoRefresh,
    PeriodicAllRefresh,
    PeriodicValidRefresh,
    RefreshEngine,
)
from repro.edram.decay import CacheDecayRefresh
from repro.edram.ecc import ECC_CORRECTABLE_BITS, ECC_OVERHEAD, EccExtendedRefresh
from repro.edram.rpd import RefrintPolyphaseDirty
from repro.edram.rpv import RefrintPolyphaseValid
from repro.energy.model import EnergyAccumulator, IntervalEnergyInputs
from repro.energy.params import EnergyParams
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mem.dram import MainMemory
from repro.metrics.stats import IntervalTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    EVENT_INTERVAL_ENERGY,
    EVENT_MSHR_STALL,
    EVENT_SIM_END,
    EVENT_SIM_START,
    Tracer,
)
from repro.timing.batch_kernel import build_batch
from repro.timing.core_model import CoreState
from repro.timing.result import SIM_ENGINE_VERSION, TECHNIQUES, SystemResult
from repro.workloads.trace import Trace

__all__ = ["SIM_ENGINE_VERSION", "System", "SystemResult", "TECHNIQUES"]

#: Per-core address-space offset bit (keeps multiprogrammed address spaces
#: disjoint without disturbing set indexing).
_CORE_OFFSET_SHIFT = 40

#: Cycles a hit pays to wake a drowsy way (``esteem-drowsy``).
DROWSY_WAKEUP_CYCLES = 2.0

#: Warm-L2 images keyed by (sets, ways, phases, prefill target).  For the
#: 4 MB L2 a build costs ~0.3 ms and a clone ~2 ms, and a sweep constructs
#: many systems over few keys.  LRU: a hit moves its key to the end, and
#: past 8 keys the least recently used one goes.
_L2_IMAGE_CACHE: OrderedDict[tuple, tuple] = OrderedDict()
_L2_IMAGE_CACHE_MAX = 8


def _gc_paused(method):
    """Run ``method`` with the cyclic garbage collector paused, restored
    as found (also on error).  Decorates ``System.__init__`` and ``run``.

    Both allocate many short-lived acyclic objects (the cloned L2's sets
    and tag maps) whose generation-0 collections find nothing, and a
    generation-2 one scans the large, immortal cached traces and L2
    images.  Disabling is the wrapper's first step, so the objects a
    construction leaves young trigger no collection on entry to ``run``.
    """

    @wraps(method)
    def paused(self, *args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return method(self, *args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def _warm_image(geo: CacheGeometry, phases: int, target: int) -> tuple:
    """A :meth:`SetAssociativeCache.from_image` image of the warm L2.

    The paper fast-forwards 10 B instructions and measures 400 M; by then
    a workload's distinct-line footprint (capped at the LLC capacity) sits
    in the cache as valid-but-stale data that the refresh policies must
    keep alive.  ``target`` junk lines (valid, clean) fill it way-major:
    every set fills ``target // sets`` ways and the first ``target % sets``
    sets one more.  Way ``w``'s junk tag is ``(2**45 + w) << set_bits`` in
    every set -- unique within a set, shared across sets -- so the image
    holds two prototype rows and tag maps, each referenced once per set.
    No core issues an address that high, so junk is never hit and loses
    victim arbitration to invalid ways, but valid-line refresh counts
    (RPV, periodic-valid, ESTEEM) see it.
    """
    s_count = geo.num_sets
    a = geo.associativity
    full_ways, remainder = divmod(target, s_count)
    filled = np.arange(a) < (full_ways + (np.arange(s_count) < remainder))[:, None]
    junk = [((1 << 45) + w) << geo.set_index_bits for w in range(a)]
    (hi_row, hi_map), (lo_row, lo_map) = (
        (junk[:k] + [None] * (a - k), dict(zip(junk[:k], range(k))))
        for k in (full_ways + 1, full_ways)
    )
    valid = filled.reshape(-1)
    # Stagger stale lines across the refresh phases (a power of two, so
    # ``&`` for ``%``): real steady-state data is phase-distributed, and
    # synchronised stamps would make RPV refresh the whole cache at once.
    stamps = -(np.arange(valid.size, dtype=np.int64) & (phases - 1))
    stamps[~valid] = -1
    return (
        [hi_row] * remainder + [lo_row] * (s_count - remainder),
        [hi_map] * remainder + [lo_map] * (s_count - remainder),
        valid,
        np.zeros(valid.size, dtype=bool),
        stamps,
    )


class System:
    """One simulated machine: cores + shared eDRAM L2 + memory + technique."""

    @_gc_paused
    def __init__(
        self,
        config: SimConfig,
        traces: list[Trace],
        technique: str = "baseline",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        reference_loop: bool = False,
        fault_plan: FaultPlan | None = None,
        batch_kernel: bool = True,
    ) -> None:
        if technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {technique!r}; use one of {TECHNIQUES}")
        if len(traces) != config.num_cores:
            raise ValueError(
                f"need {config.num_cores} traces, got {len(traces)}"
            )
        self.config = config
        self.technique = technique
        self.traces = traces
        self.workload = "-".join(t.name for t in traces)
        # Observability is injectable and off (None) by default, so the
        # hot loop's only cost is an ``is not None`` test.
        self.tracer = tracer
        self.metrics = metrics
        #: When True, :meth:`run` uses the straight-line per-record
        #: reference loop instead of the fast loop, traced or not.  The
        #: equivalence tests run both and assert identical results.
        self.reference_loop = reference_loop
        #: When True (default), the fast loop may classify an eligible
        #: single-core run in bulk with the batch kernel
        #: (:mod:`repro.timing.batch_kernel`); False pins the scalar fast
        #: loop.  Results are bit-identical either way.
        self.batch_kernel = batch_kernel
        #: Kernel-selection counters: records serviced by the batch
        #: commit loop vs the scalar loops this run.  Exported as
        #: ``kernel.batch_records`` / ``kernel.scalar_records`` metrics.
        self.kernel_batch_records = 0
        self.kernel_scalar_records = 0
        #: Cycles both loops add last to a write record's latency (TechSystem).
        self.write_penalty = 0.0

        self.l2, self.prefill_fraction = self._build_prefilled_l2()
        self.memory = MainMemory(config.memory)
        self.engine = self._build_engine()
        self.engine.tracer = self.tracer
        # Fault injection is strictly opt-in: with no plan (or a plan with
        # no hardware faults) the injector stays None and the refresh
        # engine's boundary hook is a single ``is not None`` test.
        self.fault_injector: FaultInjector | None = None
        if fault_plan is not None and fault_plan.has_model_faults():
            self.fault_injector = FaultInjector(
                fault_plan,
                self.l2,
                config.refresh,
                self.workload,
                technique,
                correctable_bits=ECC_CORRECTABLE_BITS if technique == "ecc" else 0,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            self.engine.injector = self.fault_injector
        # Interval-driven reconfiguration controller, if the technique has
        # one: ESTEEM (selective-ways) or the selective-sets baseline.
        self.esteem: EsteemController | SelectiveSetsController | None = None
        if technique in ("esteem", "esteem-drowsy"):
            self.esteem = EsteemController(
                self.l2,
                config.esteem,
                self.memory,
                tracer=self.tracer,
                drowsy=(technique == "esteem-drowsy"),
            )
        elif technique == "selective-sets":
            self.esteem = SelectiveSetsController(
                self.l2, config.esteem, self.memory
            )
        if self.esteem is not None and isinstance(self.esteem, EsteemController):
            self.esteem.fault_injector = self.fault_injector
        params = EnergyParams.for_cache_size(config.l2.size_bytes)
        if technique == "ecc":
            # ECC bits cost area: charge them on L2 leakage and dynamic
            # energy (SECDED on a 512-bit line is ~2%).
            overhead = 1.0 + ECC_OVERHEAD
            params = EnergyParams(
                l2_dynamic_j=params.l2_dynamic_j * overhead,
                l2_leakage_w=params.l2_leakage_w * overhead,
                mem_dynamic_j=params.mem_dynamic_j,
                mem_leakage_w=params.mem_leakage_w,
                transition_j=params.transition_j,
            )
        self.energy = EnergyAccumulator(params, registry=self.metrics)
        self.tracker = IntervalTracker()

    def _build_engine(self) -> RefreshEngine:
        state = self.l2.state
        refresh_cfg = self.config.refresh
        if self.technique == "baseline":
            return PeriodicAllRefresh(state, refresh_cfg)
        if self.technique == "rpv":
            return RefrintPolyphaseValid(state, refresh_cfg)
        if self.technique == "rpd":
            return RefrintPolyphaseDirty(state, refresh_cfg, self.l2)
        if self.technique == "decay":
            return CacheDecayRefresh(state, refresh_cfg, self.l2)
        if self.technique == "ecc":
            return EccExtendedRefresh(state, refresh_cfg, self.l2)
        if self.technique == "periodic-valid":
            return PeriodicValidRefresh(state, refresh_cfg)
        if self.technique == "no-refresh":
            return NoRefresh(state, refresh_cfg)
        if self.technique == "esteem-drowsy":
            return EsteemDrowsyRefresh(state, refresh_cfg)
        # "esteem" and "selective-sets" refresh valid lines in the powered
        # portion only.
        return EsteemValidActiveRefresh(state, refresh_cfg)

    def _build_prefilled_l2(self) -> tuple[SetAssociativeCache, float]:
        """Clone the warm L2 from its image, building the image on a miss.

        The target is the summed footprint clamped to the cache size, so
        every workload at least as large as the L2 shares one image.
        """
        geo = self.config.l2
        phases = self.config.refresh.rpv_phases
        num_lines = geo.num_lines
        target = max(0, min(sum(t.footprint_lines for t in self.traces), num_lines))
        key = (geo.num_sets, geo.associativity, phases, target)
        image = _L2_IMAGE_CACHE.get(key)
        if image is None:
            image = _L2_IMAGE_CACHE[key] = _warm_image(geo, phases, target)
            if len(_L2_IMAGE_CACHE) > _L2_IMAGE_CACHE_MAX:
                _L2_IMAGE_CACHE.popitem(last=False)
            counter = "l2_image.builds"
        else:
            _L2_IMAGE_CACHE.move_to_end(key)
            counter = "l2_image.hits"
        if self.metrics is not None:
            self.metrics.counter(counter).inc()
        return SetAssociativeCache.from_image(geo, image, name="L2"), target / num_lines

    # ------------------------------------------------------------------

    @_gc_paused
    def run(self) -> SystemResult:
        """Simulate until every core finishes its first trace pass.

        Two loops implement identical semantics, events included (verified
        bit-identical by ``tests/timing/test_fast_loop_equivalence.py``):

        * the straight-line reference loop (:meth:`_run_reference`), the
          executable spec, runs only when ``reference_loop`` is set;
        * the fully inlined fast loop (:meth:`_run_fast`) runs otherwise,
          traced or not.  It skips all maintenance work until the
          smallest core clock crosses the *event horizon*,
          ``min(next_interval, engine.next_boundary)``.

        The cyclic garbage collector is paused for the duration, as it
        is for construction (see :func:`_gc_paused`).
        """
        cores = [
            CoreState(i, trace, i << _CORE_OFFSET_SHIFT)
            for i, trace in enumerate(self.traces)
        ]
        if self.tracer is not None:
            self.tracer.emit(
                EVENT_SIM_START,
                0,
                workload=self.workload,
                technique=self.technique,
                cores=len(cores),
                interval_cycles=self.config.esteem.interval_cycles,
                retention_cycles=self.config.refresh.retention_cycles,
                l2_bytes=self.config.l2.size_bytes,
                prefill_fraction=self.prefill_fraction,
            )

        if self.reference_loop:
            end_cycle = self._run_reference(cores)
        else:
            end_cycle = self._run_fast(cores)

        self.engine.advance_to(int(end_cycle))
        self._close_interval(end_cycle, final=True)
        return self._finalize(cores, end_cycle)

    def _run_reference(self, cores: list[CoreState]) -> float:
        """The original per-record service loop (executable specification).

        Checks the interval boundary and advances the refresh engine on
        every record.  Slow, but trivially correct; the other loops are
        asserted bit-identical against it.
        """
        engine = self.engine
        phase_cycles = engine.phase_cycles
        interval_cycles = self.config.esteem.interval_cycles
        next_interval = interval_cycles
        single = len(cores) == 1
        core0 = cores[0]

        while True:
            if single:
                core = core0
                if core.wrapped:
                    break
            else:
                core = min(cores, key=_core_cycles)
                if all(c.wrapped for c in cores):
                    break
            now = int(core.cycles)
            while now >= next_interval:
                self._close_interval(next_interval)
                next_interval += interval_cycles
            engine.advance_to(now)
            addr, is_write, gap = core.cursor.next_record()
            latency = self._service(
                core, addr | core.addr_offset, is_write, now,
                now // phase_cycles,
            )
            core.retire(gap, latency)
            core.note_wrap_if_any()
            # The batch kernel never runs here; counting every record as
            # scalar keeps the kernel.* metrics comparable across loops.
            self.kernel_scalar_records += 1

        return max(c.cycles for c in cores)

    def _run_fast(self, cores: list[CoreState]) -> float:
        """Fully inlined event-horizon loop for one or two cores.

        Everything the reference loop touches per record -- cursor tuple
        build, the cache access itself, the memory-channel queue, the
        retire/wrap bookkeeping -- is inlined here with its state hoisted
        into locals once per chunk.  Cache/memory counters live in plain
        local ints for the duration of a chunk and are flushed back to
        their owning objects before any maintenance code (interval close,
        refresh advance) can observe them.  Arithmetic order matches
        :meth:`_service` / :meth:`SetAssociativeCache.access
        <repro.cache.cache.SetAssociativeCache.access>` /
        :meth:`CoreState.retire
        <repro.timing.core_model.CoreState.retire>` exactly, so results
        are bit-identical to the reference loop.

        Cores run in *stints*: the core with the smallest clock (first
        minimum on ties, like ``min()`` in the reference loop) services
        records until its clock reaches ``lim`` -- the horizon or the other
        core's clock, whichever is lower -- so the reference's per-record
        core selection costs nothing beyond the threshold compare the
        phase window already pays.  With one core ``lim`` is the horizon
        and every chunk is a single stint.
        """
        cfg = self.config
        l2 = self.l2
        engine = self.engine
        memory = self.memory
        phase_cycles = engine.phase_cycles
        interval_cycles = cfg.esteem.interval_cycles
        l2_latency = cfg.l2.latency_cycles
        drowsy_wakeup = DROWSY_WAKEUP_CYCLES
        # Cache internals (shared with access(); see cache.py hot path).
        sets = l2.sets
        a = l2.associativity
        state = l2.state
        # Memoryviews over the shared per-line state buffers: element
        # get/set is ~2x cheaper than NumPy scalar indexing, and writes
        # land in the same memory the vectorised refresh/maintenance code
        # reads.
        valid_mv = memoryview(state.valid)
        dirty_mv = memoryview(state.dirty)
        lw_mv = memoryview(state.last_window)
        stats = l2.stats
        hbp = stats.hits_by_position
        write_counts = l2.write_counts
        wpen = self.write_penalty
        # mshr.stall carries the growth of the float mm_qwait, as _service does.
        tracer = self.tracer
        module_of_set = l2.module_of_set
        profile_hist = l2.profile_hist
        # Memory-channel internals (shared with MainMemory._enqueue).
        service_cycles = memory.service_cycles
        mem_latency = memory.latency_cycles
        # Per-core state in parallel lists indexed by core; the running
        # core's cursor index and clock live in locals during a stint.
        two = len(cores) == 2
        cols_, gi_cum_ = zip(
            *(
                c.cursor.trace.retire_records(c.addr_offset, c.base_cpi)
                for c in cores
            )
        )
        n_ = [len(g) for g in gi_cum_]
        mlp_ = [c.mem_mlp for c in cores]
        i_ = [c.cursor.index for c in cores]
        wraps_ = [c.cursor.wraps for c in cores]
        cycles_ = [c.cycles for c in cores]
        fpc_ = [c.first_pass_cycles for c in cores]
        fpi_ = [c.first_pass_instructions for c in cores]
        # Nothing inside a chunk reads the instruction counters, so the hot
        # loop never increments them: each core keeps the count at the
        # start of its current pass, and the totals are rebuilt from the
        # cumulative per-record sums at wraps and at the end, as are the
        # scalar-record counts from cursor positions.
        pass_base_ = [
            c.instructions - (g[i - 1] if i else 0)
            for c, g, i in zip(cores, gi_cum_, i_)
        ]
        pos0 = sum(w * n + i for w, n, i in zip(wraps_, n_, i_))
        batch0 = self.kernel_batch_records
        running = sum(1 for w in wraps_ if w == 0)
        next_interval = interval_cycles
        a1 = a - 1
        # In drowsy gating mode lines survive in gated ways, so the
        # "every enabled way is resident" victim fast path below would
        # miscount residency from ``len(tag_map)``.
        drowsy_mode = l2.gated_ways_retain_data

        # --- batch-kernel eligibility, decided once per run -------------
        # The kernel precomputes hit/miss/victim/position for the rest of
        # the pass, which is only sound when nothing timing-dependent can
        # change an outcome before the trace ends: one core only
        # (shared-L2 interleaving depends on per-access latency), no
        # interval controller (nothing gates ways or sets), no fault
        # injector and a refresh engine that never mutates tags, valid,
        # dirty or recency state, the per-line write counts and the write
        # penalty off (every technology run arms the counts), and a zero
        # address offset so the raw trace columns are the access stream.
        # One build covers every record of the pass or the run stays
        # scalar (see :func:`build_batch` for when it declines); the
        # buffer is retired once, by the full commit at the end of the
        # trace, which writes back the tags and recency it deferred --
        # such a run reads only NumPy line state mid-pass.  Its commit
        # loop reads the same retire view as a stint.
        core0 = cores[0]
        kb = None
        if (
            self.batch_kernel
            and not two
            and self.esteem is None
            and self.fault_injector is None
            and not type(engine).mutates_cache_state
            and write_counts is None
            and not wpen
            and core0.addr_offset == 0
        ):
            kb = build_batch(l2, core0.cursor.trace, i_[0], n_[0])
        # --- RPV's phase-class tally, armed under the same rule ---------
        # ``cv[c]`` counts the valid lines stamped in phase class ``c``;
        # every site below that writes a stamp or fills a line keeps it,
        # so each refresh boundary is a lookup, not a scan of the L2.  A
        # fault injector invalidates lines behind the loop's back, so a
        # faulted run keeps the engine's scan.
        cv = None
        cmask = wc = 0
        if self.fault_injector is None and isinstance(engine, RefrintPolyphaseValid):
            cv = engine.arm_tally()
            cmask = len(cv) - 1

        while running:
            # Select the core with the smallest clock; ``oc`` is the other
            # core's.
            ci = 0
            cycles = cycles_[0]
            if two:
                oc = cycles_[1]
                if oc < cycles:
                    ci = 1
                    cycles, oc = oc, cycles
            now = int(cycles)
            while now >= next_interval:
                self._close_interval(next_interval)
                next_interval += interval_cycles
            engine.advance_to(now)
            horizon = next_interval
            nb = engine.next_boundary
            if nb < horizon:
                horizon = nb
            # current_stall only changes inside advance_to, which cannot
            # fire again before the horizon -- hoist the latency base and
            # the queue-empty miss latency (``(mem_latency + 0) / mlp``
            # collapses to a constant; identical float ops either way).
            lat_base = l2_latency + engine.current_stall
            lat_miss0_ = [lat_base + mem_latency / m for m in mlp_]
            # The set mask changes only at interval close (selective-sets).
            asm = l2.active_set_mask
            # The phase window advances every ``phase_cycles`` -- track its
            # end as a cycle threshold so the common record pays one float
            # compare instead of int()+floordiv.  The selected core's clock
            # is monotonic across stints (it is the minimum), and for
            # integral thresholds ``int(cycles) >= t`` is exactly ``cycles
            # >= t``, so the recomputed window matches the reference's
            # per-record ``int(cycles) // phase_cycles``.
            window = now // phase_cycles
            window_end = (window + 1) * phase_cycles
            wc = window & cmask
            # Chunk-local counter mirrors; flushed below before any
            # maintenance code reads them.
            hits = stats.hits
            misses = stats.misses
            wbs = stats.writebacks
            dhits = stats.drowsy_hits
            mm_next_free = memory._next_free
            mm_reads = memory.reads
            mm_writes = memory.writes
            mm_qwait = memory.total_queue_wait
            while True:
                # --- one stint of core ``ci`` --------------------------
                i = i0 = i_[ci]
                n_rec = n_[ci]
                if kb is not None:
                    # --- batch commit loop (one core: lim is horizon) --
                    # Replays the precomputed classification from one
                    # int per record: per-hit work is one sign test, a
                    # dirty/last-window stamp, and the cycle add; a miss
                    # decodes its line and eviction/writeback bits and
                    # keeps the full scalar memory arithmetic (queue
                    # order, int(cycles) capture) so accounting stays
                    # bit-identical.  Tags, tag maps and recency are
                    # deferred -- the touched sets get them back at the
                    # end of the trace.
                    _, writes, costs = cols_[0]
                    kstart = kb.start
                    kend = kb.end
                    codes = kb.codes
                    lat_miss0 = lat_miss0_[0]
                    mlp = mlp_[0]
                    next_chk = window_end if window_end < horizon else horizon
                    for i in range(i, kend):
                        if cycles >= next_chk:
                            if cycles >= horizon:
                                break
                            window = int(cycles) // phase_cycles
                            window_end = (window + 1) * phase_cycles
                            wc = window & cmask
                            next_chk = (
                                window_end if window_end < horizon else horizon
                            )
                        g = codes[i - kstart]
                        if g >= 0:
                            # Classified hit on line ``g``.
                            if writes[i]:
                                dirty_mv[g] = True
                            if cv is None:
                                lw_mv[g] = window
                            else:
                                o = lw_mv[g]
                                if o != window:
                                    lw_mv[g] = window
                                    cv[o & cmask] -= 1
                                    cv[wc] += 1
                            cycles = cycles + (costs[i] + lat_base)
                        else:
                            # Classified miss: ``~g`` is ``line << 2 |
                            # writeback << 1 | eviction``.
                            m = ~g
                            g = m >> 2
                            now = int(cycles)
                            if m & 1:
                                if m & 2:
                                    wbs += 1
                                    if mm_next_free > now:
                                        mm_qwait += mm_next_free - now
                                        mm_next_free += service_cycles
                                    else:
                                        mm_next_free = now + service_cycles
                                    mm_writes += 1
                                if cv is not None:
                                    cv[lw_mv[g] & cmask] -= 1
                            else:
                                valid_mv[g] = True
                            dirty_mv[g] = writes[i]
                            if cv is not None:
                                cv[wc] += 1
                            lw_mv[g] = window
                            if mm_next_free > now:
                                wait = mm_next_free - now
                                if tracer is not None and mm_qwait + wait > mm_qwait:
                                    tracer.emit(
                                        EVENT_MSHR_STALL, now, core=0,
                                        wait_cycles=(mm_qwait + wait) - mm_qwait,
                                    )
                                mm_qwait += wait
                                mm_next_free += service_cycles
                                latency = lat_base + (mem_latency + wait) / mlp
                            else:
                                mm_next_free = now + service_cycles
                                latency = lat_miss0
                            mm_reads += 1
                            cycles = cycles + (costs[i] + latency)
                    else:
                        i = kend
                else:
                    addrs, writes, costs = cols_[ci]
                    if two:
                        # Core 0 keeps the selection on a tie, so it runs
                        # until strictly past core 1's clock; core 1 stops
                        # as soon as it reaches core 0's.
                        lim = oc if ci else nextafter(oc, inf)
                        if horizon < lim:
                            lim = horizon
                    else:
                        lim = horizon
                    # One merged threshold guards the window roll-over, the
                    # horizon and the stint end: the common record pays a
                    # single float compare.  Checking ``lim`` at the *top*
                    # of the next record is equivalent to checking it after
                    # the retire -- the previous record is the last one
                    # processed either way -- and a crossing on the final
                    # record of a pass simply exhausts the for loop, which
                    # counts as a wrap (matching the reference's
                    # wrap-over-horizon priority).
                    next_chk = window_end if window_end < lim else lim
                    for i in range(i, n_rec):
                        if cycles >= next_chk:
                            if cycles >= lim:
                                break
                            window = int(cycles) // phase_cycles
                            window_end = (window + 1) * phase_cycles
                            wc = window & cmask
                            next_chk = window_end if window_end < lim else lim
                        addr = addrs[i]
                        is_write = writes[i]
                        cset = sets[addr & asm]
                        way = cset.tag_map.get(addr, -1)
                        if way >= 0:
                            # Hit: promote to MRU, record recency position.
                            # In off-mode gating a follower's gated ways
                            # never hold a line and leaders never gate, so
                            # the drowsy-way test can only pass in drowsy
                            # mode -- guard on the mode flag first to spare
                            # the common path the probes.
                            if (
                                drowsy_mode
                                and way >= cset.n_active
                                and not cset.is_leader
                            ):
                                dhits += 1
                                latency = lat_base + drowsy_wakeup
                            else:
                                latency = lat_base
                            order = cset.order
                            if order[0] == way:
                                pos = 0
                            else:
                                pos = order.index(way)
                                del order[pos]
                                order.insert(0, way)
                            hits += 1
                            hbp[pos] += 1
                            g = cset.base + way
                            if is_write:
                                dirty_mv[g] = True
                                if write_counts is not None:
                                    write_counts[g] += 1
                                latency += wpen
                            if cv is None:
                                lw_mv[g] = window
                            else:
                                o = lw_mv[g]
                                if o != window:
                                    lw_mv[g] = window
                                    cv[o & cmask] -= 1
                                    cv[wc] += 1
                            if profile_hist is not None and cset.is_leader:
                                profile_hist[module_of_set[cset.index]][pos] += 1
                        else:
                            # Miss: victim selection + fill, then the memory
                            # fetch.
                            misses += 1
                            tags = cset.tags
                            tag_map = cset.tag_map
                            order = cset.order
                            n_act = cset.n_active
                            promote = True
                            if n_act == a:
                                if len(tag_map) == a:
                                    # Full set (steady state): evict the
                                    # recency tail; its position is known,
                                    # so no scan.
                                    victim = order[-1]
                                    del order[-1]
                                    order.insert(0, victim)
                                    promote = False
                                else:
                                    victim = tags.index(None)
                            elif (
                                not drowsy_mode and len(tag_map) == n_act
                            ) or None not in tags[:n_act]:
                                # Shrunken set, every enabled way resident
                                # (``len(tag_map)`` tells unless drowsy
                                # gated ways hold lines too): the victim is
                                # the LRU enabled way; capture its recency
                                # position during the scan so promotion
                                # needs no second pass.
                                pos = a1
                                victim = -1
                                for w in reversed(order):
                                    if w < n_act:
                                        victim = w
                                        break
                                    pos -= 1
                                if victim < 0:
                                    raise RuntimeError(
                                        f"{l2.name}: set {cset.index} has no "
                                        f"enabled way to fill (n_active="
                                        f"{n_act}, associativity={a})"
                                    )
                                if pos:
                                    del order[pos]
                                    order.insert(0, victim)
                                promote = False
                            else:
                                # A free enabled way exists, and it comes
                                # before any free gated way.
                                victim = tags.index(None)
                            g = cset.base + victim
                            old_tag = tags[victim]
                            now = int(cycles)
                            if old_tag is not None:
                                del tag_map[old_tag]
                                if dirty_mv[g]:
                                    # Dirty eviction: post the writeback
                                    # first so the demand fetch queues
                                    # behind it.
                                    wbs += 1
                                    if mm_next_free > now:
                                        mm_qwait += mm_next_free - now
                                        mm_next_free += service_cycles
                                    else:
                                        mm_next_free = now + service_cycles
                                    mm_writes += 1
                            else:
                                valid_mv[g] = True
                            tags[victim] = addr
                            tag_map[addr] = victim
                            dirty_mv[g] = is_write
                            if is_write and write_counts is not None:
                                write_counts[g] += 1
                            if cv is not None:
                                if old_tag is not None:
                                    cv[lw_mv[g] & cmask] -= 1
                                cv[wc] += 1
                            lw_mv[g] = window
                            if promote:
                                pos = order.index(victim)
                                if pos:
                                    del order[pos]
                                    order.insert(0, victim)
                            # The demand fetch (MainMemory.read inlined).
                            if mm_next_free > now:
                                wait = mm_next_free - now
                                if tracer is not None and mm_qwait + wait > mm_qwait:
                                    tracer.emit(
                                        EVENT_MSHR_STALL, now, core=ci,
                                        wait_cycles=(mm_qwait + wait) - mm_qwait,
                                    )
                                mm_qwait += wait
                                mm_next_free += service_cycles
                                latency = lat_base + (mem_latency + wait) / mlp_[ci]
                            else:
                                mm_next_free = now + service_cycles
                                latency = lat_miss0_[ci]
                            mm_reads += 1
                            if is_write:
                                latency += wpen
                        # ``costs[i]`` is ``(gap+1) * base_cpi``; the sum's
                        # parentheses match retire()'s order bit for bit.
                        cycles = cycles + (costs[i] + latency)
                    else:
                        i = n_rec
                # ``i`` is now the first unprocessed record (``n_rec`` if
                # the pass was exhausted).  The selected core is strictly
                # below ``lim`` at the start of every stint, so a stint
                # that serviced nothing means a wrong ``lim``: it would
                # spin forever, or count a pass it never ran as a wrap.
                if i == i0:
                    raise RuntimeError(
                        f"core {ci}: stint at record {i} ended before its "
                        f"first record (clock {cycles}, horizon {horizon})"
                    )
                if kb is not None:
                    # Per-stint batch accounting: counters from the
                    # kernel's cumulative columns; the tags, recency
                    # orders and hit-position histogram, which nothing
                    # reads during a run, once the whole buffer is
                    # committed.
                    c0 = i0 - kstart
                    c1 = i - kstart
                    dh = int(kb.hits_cum[c1] - kb.hits_cum[c0])
                    hits += dh
                    misses += (c1 - c0) - dh
                    self.kernel_batch_records += c1 - c0
                    if i >= kend:
                        # Fully committed at the end of the trace: write
                        # the tags and recency orders back before the wrap.
                        l2.import_batch_state(*kb.batch_state())
                        ps = kb.pos_np
                        for p, cnt in enumerate(
                            np.bincount(ps[ps >= 0], minlength=a).tolist()
                        ):
                            hbp[p] += cnt
                        kb = None
                cycles_[ci] = cycles
                i_[ci] = i
                if i == n_rec or not two:
                    break
                # The stint ended at ``lim``, so the other core now holds
                # the smallest clock -- or both are past the horizon.
                ci ^= 1
                oc = cycles
                cycles = cycles_[ci]
                if cycles >= horizon:
                    break
            if i == n_rec:
                # Core ``ci`` exhausted its pass.  The next chunk top
                # re-selects the core: the wrapping record may have left
                # this one still the smallest clock.
                i_[ci] = 0
                w = wraps_[ci] + 1
                wraps_[ci] = w
                pb = pass_base_[ci] + gi_cum_[ci][n_rec - 1]
                pass_base_[ci] = pb
                if w == 1:
                    # First pass just completed at this exact record
                    # boundary: snapshot the measured window (Section 6.4).
                    fpc_[ci] = cycles
                    fpi_[ci] = pb
                    running -= 1
            _flush_chunk_counters(
                stats, memory, hits, misses, wbs, dhits,
                mm_next_free, mm_reads, mm_writes, mm_qwait,
            )

        self.kernel_scalar_records += (
            sum(w * n + i for w, n, i in zip(wraps_, n_, i_))
            - pos0
            - (self.kernel_batch_records - batch0)
        )
        for core, g, pb, i, w, cyc, fc, fi in zip(
            cores, gi_cum_, pass_base_, i_, wraps_, cycles_, fpc_, fpi_
        ):
            core.cursor.index = i
            core.cursor.wraps = w
            core.cycles = cyc
            core.instructions = pb + (g[i - 1] if i else 0)
            core.first_pass_cycles = fc
            core.first_pass_instructions = fi
        if cv is not None:
            engine.release_tally()
        return max(cycles_)

    def _finalize(self, cores: list[CoreState], end_cycle: float) -> SystemResult:
        """Emit end-of-run observability and assemble the result."""
        l2 = self.l2
        engine = self.engine
        memory = self.memory
        if self.tracer is not None:
            self.tracer.emit(
                EVENT_SIM_END,
                end_cycle,
                workload=self.workload,
                technique=self.technique,
                instructions=sum(c.instructions for c in cores),
                l2_hits=l2.stats.hits,
                l2_misses=l2.stats.misses,
                refreshes=engine.total_refreshes,
                mem_reads=memory.reads,
                mem_writes=memory.writes,
                intervals=self.energy.intervals,
                total_energy_j=self.energy.totals.total_j,
            )
        if self.metrics is not None:
            m = self.metrics
            m.counter("sim.runs").inc()
            m.counter("sim.cycles").inc(end_cycle)
            m.counter("sim.instructions").inc(
                sum(c.instructions for c in cores)
            )
            m.counter("l2.hits").inc(l2.stats.hits)
            m.counter("l2.misses").inc(l2.stats.misses)
            m.counter("l2.writebacks").inc(l2.stats.writebacks)
            m.counter("refresh.lines").inc(engine.total_refreshes)
            m.counter("mem.reads").inc(memory.reads)
            m.counter("mem.writes").inc(memory.writes)
            m.counter("kernel.batch_records").inc(self.kernel_batch_records)
            m.counter("kernel.scalar_records").inc(
                self.kernel_scalar_records
            )

        return SystemResult(
            technique=self.technique,
            workload=self.workload,
            cores=[c.result(t.name) for c, t in zip(cores, self.traces)],
            total_cycles=end_cycle,
            total_instructions=sum(c.instructions for c in cores),
            l2_hits=l2.stats.hits,
            l2_misses=l2.stats.misses,
            l2_writebacks=l2.stats.writebacks,
            refreshes=engine.total_refreshes,
            mem_reads=memory.reads,
            mem_writes=memory.writes,
            energy=self.energy.totals,
            mean_active_fraction=self.tracker.mean_active_fraction,
            intervals=self.energy.intervals,
            timeline=list(self.esteem.timeline) if self.esteem else [],
            transitions=(
                sum(d.transitions for d in self.esteem.timeline)
                if self.esteem
                else 0
            ),
            flush_writebacks=(
                sum(d.flush_writebacks for d in self.esteem.timeline)
                if self.esteem
                else 0
            ),
            faults_injected=(
                self.fault_injector.injected if self.fault_injector else 0
            ),
            fault_corrected=(
                self.fault_injector.corrected if self.fault_injector else 0
            ),
            fault_invalidated_clean=(
                self.fault_injector.invalidated_clean
                if self.fault_injector
                else 0
            ),
            fault_data_loss=(
                self.fault_injector.data_loss if self.fault_injector else 0
            ),
        )

    # ------------------------------------------------------------------

    def _service(
        self,
        core: CoreState,
        addr: int,
        is_write: bool,
        now: int,
        window: int,
    ) -> float:
        """Serve one trace record (an L2 access: traces are LLC-mode);
        returns the exposed access latency."""
        l2 = self.l2
        hit, _pos, wb = l2.access(addr, is_write, window)
        latency = self.config.l2.latency_cycles + self.engine.current_stall
        if l2.drowsy_flag:
            # Waking a drowsy way costs a couple of cycles.
            latency += DROWSY_WAKEUP_CYCLES
            l2.drowsy_flag = False
        if wb >= 0:
            self.memory.write(now)
        if not hit:
            # The exposed miss penalty is divided by the workload's
            # memory-level parallelism (overlapped outstanding misses).
            wait_before = self.memory.total_queue_wait
            latency += self.memory.read(now) / core.mem_mlp
            queue_wait = self.memory.total_queue_wait - wait_before
            if queue_wait > 0 and self.tracer is not None:
                # The MSHR/memory-queue analogue: a demand miss that found
                # the channel busy and had to wait in line.
                self.tracer.emit(
                    EVENT_MSHR_STALL, now, core=core.core_id, wait_cycles=queue_wait
                )
        if is_write:
            latency += self.write_penalty
        return latency

    def _close_interval(self, boundary_cycle: float, final: bool = False) -> None:
        """Account energy for the interval ending at ``boundary_cycle``.

        Order matters: the active fraction that held *during* the closing
        interval is captured first, then (at real boundaries) the interval
        controller decides and reconfigures -- the block transitions its
        record reports are charged to the closing interval.
        """
        esteem = self.esteem
        fa_during = esteem.active_fraction() if esteem else 1.0
        self.engine.advance_to(int(boundary_cycle))
        self.memory.write_many(
            boundary_cycle, self.engine.take_writeback_delta()
        )
        transitions = 0
        if esteem is not None and not final:
            window = int(boundary_cycle) // self.engine.phase_cycles
            record = esteem.on_interval_end(int(boundary_cycle), window)
            transitions = record.transitions
        deltas = self.tracker.take(
            boundary_cycle,
            self.l2.stats.hits,
            self.l2.stats.misses,
            self.engine.take_refresh_delta(),
            self.memory.accesses,
            fa_during,
        )
        if deltas.cycles <= 0 and deltas.l2_hits == 0 and deltas.l2_misses == 0:
            return
        inputs = IntervalEnergyInputs(
            seconds=deltas.cycles / DEFAULT_FREQUENCY_HZ,
            l2_hits=deltas.l2_hits,
            l2_misses=deltas.l2_misses,
            refreshes=deltas.refreshes,
            mem_accesses=deltas.mem_accesses,
            active_fraction=fa_during,
            transitions=transitions,
        )
        breakdown = self.energy.add_interval(inputs)
        if self.tracer is not None:
            self.tracer.emit(
                EVENT_INTERVAL_ENERGY,
                boundary_cycle,
                interval=self.energy.intervals - 1,
                final=final,
                cycles=deltas.cycles,
                l2_hits=deltas.l2_hits,
                l2_misses=deltas.l2_misses,
                refreshes=deltas.refreshes,
                mem_accesses=deltas.mem_accesses,
                active_fraction=fa_during,
                transitions=transitions,
                energy_j=breakdown.total_j,
            )


def _core_cycles(core: CoreState) -> float:
    return core.cycles


def _flush_chunk_counters(
    stats,
    memory,
    hits: int,
    misses: int,
    wbs: int,
    dhits: int,
    mm_next_free: float,
    mm_reads: int,
    mm_writes: int,
    mm_qwait: float,
) -> None:
    """Write a chunk's local counter mirrors back to their owners.

    The fast loop (its scalar stints and the batch-kernel commit loop)
    mirrors the cache stats and memory-channel counters into plain locals
    for the duration of a chunk.  Every chunk exit routes through this one
    helper *before* any maintenance code (interval close, refresh advance,
    interval tracker) can read the counters, so the two paths cannot
    drift on which counters get flushed.
    """
    stats.hits = hits
    stats.misses = misses
    stats.writebacks = wbs
    stats.drowsy_hits = dhits
    memory._next_free = mm_next_free
    memory.reads = mm_reads
    memory.writes = mm_writes
    memory.total_queue_wait = mm_qwait
