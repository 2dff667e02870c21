"""Golden equivalence: batch classification kernel vs the reference loop.

The batch kernel (:mod:`repro.timing.batch_kernel`) precomputes hit/miss
outcomes for a whole controller-free single-core pass and replays them
through a slim commit loop.  Like the fast loop it rides in, it is a pure
performance transformation: every field of the :class:`SystemResult` --
including the fault-injection counters -- must match the straight-line
reference loop *bit for bit* whenever it engages, and it must engage only
when the run is eligible and the build pays (falling back to the scalar
loop otherwise).

The matrix here covers four techniques on single- and dual-core
workloads with fault injection on/off, and every other technique on the
single-core input.  Engagement itself is asserted via the
``kernel.batch_records`` / ``kernel.scalar_records`` counters so a silent
always-fallback regression cannot pass as equivalence.  After every run
the kernel's L2 must equal the reference's set by set and array by
array: the kernel defers tags, tag maps and recency to the end of the
trace, and a wrong write-back would otherwise go unseen.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, SimConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import MetricsRegistry
from repro.timing.batch_kernel import MIN_BATCH_RECORDS, build_batch
from repro.timing.system import System
from repro.workloads.multiprog import get_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace

from tests.timing.test_fast_loop_equivalence import _result_fields

TECHNIQUES = ("baseline", "rpv", "esteem", "esteem-drowsy")
#: Refresh engines that never mutate line state, so the kernel builds;
#: periodic-valid counts ``valid`` at every refresh boundary mid-pass.
MORE_KERNEL_TECHNIQUES = ("periodic-valid", "no-refresh")
#: Engines that mutate line state at boundaries, and a set-gating
#: controller: scalar by design.
MORE_SCALAR_TECHNIQUES = ("rpd", "decay", "ecc", "selective-sets")

#: A single-core input the kernel's density rule accepts: 9,878 sphinx
#: records over the 512 sets of a 512 KB, 16-way L2 (19 per set, against
#: a floor of 16), and two interior interval closes.  The warm image
#: fills 6,144 of the 8,192 lines, so the commit loop replays hits and
#: all three miss kinds: a fill of an invalid way, a clean eviction and
#: a dirty eviction.  At 300k instructions on the default 4 MB L2 the
#: same workload has 1.4 records per touched set, and the build declines.
SINGLE_INSTRUCTIONS = 1_000_000
SINGLE_L2_BYTES = 512 * 1024
SINGLE_WARM_LINES = 6_144
DUAL_INSTRUCTIONS = 250_000

#: Exercises both fault planes the kernel must coexist with: rate-drawn
#: multi-bit flips (uncorrectable -> invalidations that change later
#: hit/miss outcomes) and explicit events.  Faults latch at refresh
#: boundaries and can invalidate lines mid-pass, so a faulted run never
#: builds a batch.
FAULT_PLAN = FaultPlan(
    seed=11,
    flip_rate=2e-4,
    rate_bits=2,
    events=(
        FaultEvent(set_index=9, way=2, cycle=150_000, bits=2),
        FaultEvent(set_index=40, way=0, cycle=400_000, bits=1),
    ),
)


def _fields_with_faults(r):
    fields = _result_fields(r)
    fields["faults_injected"] = r.faults_injected
    fields["fault_corrected"] = r.fault_corrected
    fields["fault_invalidated_clean"] = r.fault_invalidated_clean
    fields["fault_data_loss"] = r.fault_data_loss
    return fields


def _single_core_input():
    config = SimConfig.scaled(
        num_cores=1, instructions_per_core=SINGLE_INSTRUCTIONS
    ).with_l2(size_bytes=SINGLE_L2_BYTES)
    trace = generate_trace(get_profile("sphinx"), SINGLE_INSTRUCTIONS, seed=7)
    return config, [dataclasses.replace(trace, footprint_lines=SINGLE_WARM_LINES)]


def _assert_batch_identical(config, traces, technique, fault_plan):
    batch_system = System(
        config, traces, technique=technique, fault_plan=fault_plan,
        batch_kernel=True,
    )
    batch = batch_system.run()
    ref_system = System(
        config, traces, technique=technique, fault_plan=fault_plan,
        reference_loop=True,
    )
    ref = ref_system.run()
    bf, rf = _fields_with_faults(batch), _fields_with_faults(ref)
    for key in bf:
        assert bf[key] == rf[key], f"{technique}: {key} diverged"
    # The run leaves the same cache behind: a batch's deferred tags, tag
    # maps and recency orders are written back when its commit loop
    # reaches the trace end.
    got_l2, want_l2 = batch_system.l2, ref_system.l2
    if technique != "esteem-drowsy":
        # Drowsy gating keeps lines in gated ways, which the invariant
        # check forbids.
        got_l2.check_invariants()
    for got, want in zip(got_l2.sets, want_l2.sets):
        assert (got.tags, got.tag_map, got.order) == (
            want.tags, want.tag_map, want.order,
        ), f"{technique}: set {got.index} diverged"
    for name in ("valid", "dirty", "last_window"):
        np.testing.assert_array_equal(
            getattr(got_l2.state, name), getattr(want_l2.state, name),
            err_msg=f"{technique}: L2 {name} diverged",
        )
    assert got_l2.stats.hits_by_position == want_l2.stats.hits_by_position
    return batch_system, ref_system


class TestSingleCoreBatchEquivalence:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("faults", [False, True], ids=["nofaults", "faults"])
    def test_identical_results(self, technique, faults):
        config, traces = _single_core_input()
        system, _ = _assert_batch_identical(
            config, traces, technique, FAULT_PLAN if faults else None
        )
        # Every fault-free baseline/RPV run builds one batch that covers
        # the whole pass -- equivalence with zero batch records would be
        # vacuous.  An interval controller (ESTEEM, drowsy ESTEEM) or a
        # fault injector makes the run scalar by design, though this
        # input is dense enough for the build to pay.
        if technique in ("baseline", "rpv") and not faults:
            assert system.kernel_batch_records == len(traces[0])
            assert system.kernel_scalar_records == 0
        else:
            assert system.kernel_batch_records == 0

    @pytest.mark.parametrize(
        "technique", MORE_KERNEL_TECHNIQUES + MORE_SCALAR_TECHNIQUES
    )
    def test_every_other_technique(self, technique):
        config, traces = _single_core_input()
        system, _ = _assert_batch_identical(config, traces, technique, None)
        if technique in MORE_KERNEL_TECHNIQUES:
            assert system.kernel_batch_records == len(traces[0])
        else:
            assert system.kernel_batch_records == 0

    def test_input_replays_every_outcome(self):
        # Decode the one build the kernel runs make: hits, fills of an
        # invalid way (code 0), clean (1) and dirty (3) evictions.
        config, traces = _single_core_input()
        l2 = System(config, traces, technique="baseline").l2
        codes = np.array(build_batch(l2, traces[0], 0, len(traces[0])).codes)
        kinds = np.where(codes >= 0, -1, ~codes & 3)
        assert sorted(np.unique(kinds).tolist()) == [-1, 0, 1, 3]


class TestDensityRule:
    """A build declines a stretch with fewer records than the
    ``associativity x touched sets`` line entries it exports."""

    SETS = 64
    WAYS = 16
    TOUCHED = 40

    def _trace(self, n):
        # Record k touches set k % TOUCHED with one of two tags, so every
        # set sees a miss and then hits: TOUCHED of the SETS sets in use.
        k = np.arange(n)
        tag = k % (2 * self.TOUCHED) // self.TOUCHED
        addrs = tag * self.SETS + k % self.TOUCHED
        return Trace(
            name="dense", addrs=addrs, writes=k % 3 == 0,
            gaps=np.ones(n, dtype=np.int64),
        )

    def test_declines_one_record_below_the_floor_and_builds_at_it(self):
        l2 = SetAssociativeCache(
            CacheGeometry(
                size_bytes=self.SETS * self.WAYS * 64, associativity=self.WAYS
            )
        )
        floor = self.WAYS * self.TOUCHED
        assert floor > MIN_BATCH_RECORDS  # the density rule is what decides
        assert build_batch(l2, self._trace(floor - 1), 0, floor - 1) is None
        kb = build_batch(l2, self._trace(floor), 0, floor)
        assert kb is not None
        assert len(kb.codes) == floor
        assert kb.uniq_sets.tolist() == list(range(self.TOUCHED))

    def test_declined_run_is_scalar_and_identical(self):
        # Sphinx at 300k instructions on the default 4 MB L2: 3,003
        # records over 2,117 touched sets, far below 16 per set.
        config = SimConfig.scaled(num_cores=1, instructions_per_core=300_000)
        traces = [generate_trace(get_profile("sphinx"), 300_000, seed=7)]
        system, _ = _assert_batch_identical(config, traces, "baseline", None)
        assert system.kernel_batch_records == 0
        assert system.kernel_scalar_records == len(traces[0])


class TestDualCoreBatchEquivalence:
    """Multi-core interleaving is cycle-dependent, so the kernel must
    decline (stay fully scalar) yet results must still match."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("faults", [False, True], ids=["nofaults", "faults"])
    def test_identical_results(self, technique, faults):
        config = SimConfig.scaled(
            num_cores=2, instructions_per_core=DUAL_INSTRUCTIONS
        )
        traces = [
            generate_trace(p, DUAL_INSTRUCTIONS, seed=7 + i)
            for i, p in enumerate(get_mix("GkNe").profiles)
        ]
        system, ref_system = _assert_batch_identical(
            config, traces, technique, FAULT_PLAN if faults else None
        )
        assert system.kernel_batch_records == 0
        assert system.kernel_scalar_records > 0
        # The fast loop derives its scalar count from cursor positions;
        # the reference counts every record it services.
        assert (
            system.kernel_batch_records + system.kernel_scalar_records
            == ref_system.kernel_scalar_records
        )


class TestBatchKernelMetricsParity:
    """Metric streams must agree with the reference loop, except for the
    kernel-selection counters which by construction attribute records to
    different kernels (the reference loop counts everything as scalar)."""

    def _metrics(self, batch_kernel, reference_loop):
        registry = MetricsRegistry()
        config, traces = _single_core_input()
        System(
            config,
            traces,
            technique="baseline",
            metrics=registry,
            batch_kernel=batch_kernel,
            reference_loop=reference_loop,
        ).run()
        return registry.snapshot()

    def test_snapshots_identical_modulo_kernel_split(self):
        batch = self._metrics(batch_kernel=True, reference_loop=False)
        ref = self._metrics(batch_kernel=False, reference_loop=True)
        kernel_keys = {"kernel.batch_records", "kernel.scalar_records"}
        batch_rest = {k: v for k, v in batch.items() if k not in kernel_keys}
        ref_rest = {k: v for k, v in ref.items() if k not in kernel_keys}
        assert batch_rest == ref_rest
        # Same total records, differently attributed.
        batch_total = (
            batch["kernel.batch_records"]["value"]
            + batch["kernel.scalar_records"]["value"]
        )
        ref_total = (
            ref["kernel.batch_records"]["value"]
            + ref["kernel.scalar_records"]["value"]
        )
        assert batch_total == ref_total
        assert batch["kernel.batch_records"]["value"] > 0
        assert ref["kernel.batch_records"]["value"] == 0
