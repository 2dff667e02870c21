"""Golden equivalence: batch classification kernel vs the reference loop.

The batch kernel (:mod:`repro.timing.batch_kernel`) precomputes hit/miss
outcomes for quiescent stretches and replays them through a slim commit
loop.  Like the fast loop it rides in, it is a pure performance
transformation: every field of the :class:`SystemResult` -- including the
fault-injection counters -- must match the straight-line reference loop
*bit for bit* whenever it engages, and it must engage only when the
quiescence predicate holds (falling back to the scalar loop otherwise).

The matrix here covers all four techniques, single- and dual-core
workloads, and fault injection on/off.  Engagement itself is asserted via
the ``kernel.batch_records`` / ``kernel.scalar_records`` counters so a
silent always-fallback regression cannot pass as equivalence.
"""

import pytest

from repro.config import SimConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import MetricsRegistry
from repro.timing.system import System
from repro.workloads.multiprog import get_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

from tests.timing.test_fast_loop_equivalence import _result_fields

TECHNIQUES = ("baseline", "rpv", "esteem", "esteem-drowsy")

SINGLE_INSTRUCTIONS = 300_000
DUAL_INSTRUCTIONS = 250_000

#: Exercises both fault planes the kernel must coexist with: rate-drawn
#: multi-bit flips (uncorrectable -> invalidations that change later
#: hit/miss outcomes) and explicit events.  Faults latch at refresh
#: boundaries, which the kernel treats as buffer-retirement limits.
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
    return batch_system, ref_system


class TestSingleCoreBatchEquivalence:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("faults", [False, True], ids=["nofaults", "faults"])
    def test_identical_results(self, technique, faults):
        config = SimConfig.scaled(
            num_cores=1, instructions_per_core=SINGLE_INSTRUCTIONS
        )
        traces = [
            generate_trace(get_profile("sphinx"), SINGLE_INSTRUCTIONS, seed=7)
        ]
        system, _ = _assert_batch_identical(
            config, traces, technique, FAULT_PLAN if faults else None
        )
        # The kernel must actually have engaged on eligible stretches --
        # equivalence with zero batch records would be vacuous.  The one
        # legitimately scalar cell is RPV+faults: RPV's refresh boundary
        # is every phase, so injected runs never see a stretch of
        # MIN_BATCH_RECORDS between retirement limits.
        if technique == "rpv" and faults:
            assert system.kernel_batch_records == 0
        else:
            assert system.kernel_batch_records > 0


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
        config = SimConfig.scaled(
            num_cores=1, instructions_per_core=SINGLE_INSTRUCTIONS
        )
        trace = generate_trace(
            get_profile("sphinx"), SINGLE_INSTRUCTIONS, seed=7
        )
        System(
            config,
            [trace],
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
