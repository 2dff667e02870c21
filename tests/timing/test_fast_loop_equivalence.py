"""Golden equivalence: fast chunked loop vs the straight-line reference.

The event-horizon fast path
(:meth:`repro.timing.system.System._run_fast`) is a pure performance
transformation -- every counter, energy figure, timeline
entry, and per-core statistic must match the retained reference loop
(``reference_loop=True`` -> :meth:`System._run_reference`) *bit for bit*,
including float accumulation order.  These tests run representative
single- and dual-core workloads under every technique in
:data:`~repro.timing.result.TECHNIQUES` on both paths, compare the
complete :class:`~repro.timing.system.SystemResult`, and check the fast
run's L2 invariants.

Any intentional change to service ordering or arithmetic must update both
loops together; a mismatch here means the fast path silently diverged.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import SimConfig
from repro.edram.rpv import RefrintPolyphaseValid
from repro.obs import EVENT_REFRESH_BURST, Tracer
from repro.tech import TECHNOLOGIES, TechSystem
from repro.timing.result import TECHNIQUES
from repro.timing.system import System
from repro.workloads.multiprog import get_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

SINGLE_INSTRUCTIONS = 300_000
DUAL_INSTRUCTIONS = 250_000


def _single_traces(workload):
    return [generate_trace(get_profile(workload), SINGLE_INSTRUCTIONS, seed=7)]


def _dual_traces(mix):
    return [
        generate_trace(p, DUAL_INSTRUCTIONS, seed=7 + i)
        for i, p in enumerate(get_mix(mix).profiles)
    ]


def _result_fields(r):
    """Flatten a SystemResult into plain comparable data (no approx)."""
    return {
        "cores": [
            (
                c.core_id,
                c.workload,
                c.first_pass_instructions,
                c.first_pass_cycles,
                c.total_instructions,
                c.wraps,
                c.ipc,
            )
            for c in r.cores
        ],
        "total_cycles": r.total_cycles,
        "total_instructions": r.total_instructions,
        "l2_hits": r.l2_hits,
        "l2_misses": r.l2_misses,
        "l2_writebacks": r.l2_writebacks,
        "refreshes": r.refreshes,
        "mem_reads": r.mem_reads,
        "mem_writes": r.mem_writes,
        "energy": vars(r.energy).copy(),
        "mean_active_fraction": r.mean_active_fraction,
        "intervals": r.intervals,
        "timeline": [vars(d).copy() for d in r.timeline],
        "transitions": r.transitions,
        "flush_writebacks": r.flush_writebacks,
    }


def _assert_identical(config, traces, technique):
    fast_system = System(config, traces, technique=technique)
    ref_system = System(
        config, traces, technique=technique, reference_loop=True
    )
    ff = _result_fields(fast_system.run())
    rf = _result_fields(ref_system.run())
    for key in ff:
        assert ff[key] == rf[key], f"{technique}: {key} diverged"
    fast_system.l2.check_invariants()
    return fast_system, ref_system


class TestSingleCoreEquivalence:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("workload", ["sphinx", "mcf", "libquantum"])
    def test_identical_results(self, workload, technique):
        config = SimConfig.scaled(
            num_cores=1, instructions_per_core=SINGLE_INSTRUCTIONS
        )
        _assert_identical(config, _single_traces(workload), technique)


class TestDualCoreEquivalence:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("mix", ["GkNe", "LqPo"])
    def test_identical_results(self, mix, technique):
        config = SimConfig.scaled(
            num_cores=2, instructions_per_core=DUAL_INSTRUCTIONS
        )
        _assert_identical(config, _dual_traces(mix), technique)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_equal_clock_ties(self, technique):
        # Identical traces on both cores and a memory channel that never
        # queues keep the two clocks in lockstep: about half of all core
        # selections are then exact ties, which the reference breaks
        # towards the lower core index (first minimum).
        config = SimConfig.scaled(
            num_cores=2, instructions_per_core=DUAL_INSTRUCTIONS
        )
        config = replace(
            config,
            memory=replace(config.memory, bandwidth_bytes_per_sec=1e30),
        )
        trace = generate_trace(
            get_profile("sphinx"), DUAL_INSTRUCTIONS, seed=7
        )
        fast, ref = _assert_identical(config, [trace, trace], technique)
        # The two cores are symmetric, so serving a tie in the wrong order
        # leaves the totals alone; it shows in the recency positions hits
        # land at.
        assert (
            fast.l2.stats.hits_by_position == ref.l2.stats.hits_by_position
        )


class TestTechnologyEquivalence:
    """``TechSystem`` runs on both loops: the write penalty every write
    record pays, and the per-line write counts an NVM run keeps."""

    @pytest.mark.parametrize("technology", ["sttram", "reram"])
    @pytest.mark.parametrize(
        "cores, workload", [(1, "sphinx"), (1, "mcf"), (2, "GkNe")]
    )
    def test_identical_results_and_write_counts(
        self, technology, cores, workload
    ):
        tech = TECHNOLOGIES[technology]
        if cores == 1:
            instructions, traces = SINGLE_INSTRUCTIONS, _single_traces(workload)
        else:
            instructions, traces = DUAL_INSTRUCTIONS, _dual_traces(workload)
        config = SimConfig.scaled(
            num_cores=cores, instructions_per_core=instructions
        )
        fast = TechSystem(config, traces, tech)
        ref = TechSystem(config, traces, tech)
        ref.reference_loop = True
        assert fast.write_penalty > 0
        assert fast.run() == ref.run()
        assert fast.l2.write_counts.sum() > 0
        np.testing.assert_array_equal(fast.l2.write_counts, ref.l2.write_counts)


class TestOneListView:
    """The fast loop reads one list view per trace, the columnar retire
    view: it never builds the reference loop's scalar columns."""

    @pytest.mark.parametrize("batch_kernel", [True, False])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_fast_run_leaves_columns_unbuilt(self, cores, batch_kernel):
        from tests.timing.test_batch_kernel_equivalence import (
            _single_core_input,
        )

        if cores == 1:
            # A smaller L2 on which the kernel takes the whole pass.
            config, traces = _single_core_input()
        else:
            config = SimConfig.scaled(
                num_cores=2, instructions_per_core=DUAL_INSTRUCTIONS
            )
            traces = _dual_traces("GkNe")
        fast = System(config, traces, "baseline", batch_kernel=batch_kernel)
        ff = _result_fields(fast.run())
        assert (fast.kernel_batch_records > 0) == (batch_kernel and cores == 1)
        assert all(t._columns is None for t in traces)
        ref = System(config, traces, "baseline", reference_loop=True)
        assert _result_fields(ref.run()) == ff
        assert all(t._columns is not None for t in traces)


def _rpv_kernel_input():
    from tests.timing.test_batch_kernel_equivalence import _single_core_input

    return (*_single_core_input(), None)


def _rpv_dual_input():
    config = SimConfig.scaled(num_cores=2, instructions_per_core=DUAL_INSTRUCTIONS)
    return config, _dual_traces("SpBw"), None


def _rpv_faulted_input():
    from tests.timing.test_batch_kernel_equivalence import (
        FAULT_PLAN,
        _single_core_input,
    )

    return (*_single_core_input(), FAULT_PLAN)


class TestRpvPhaseClassTally:
    """RPV's refresh boundaries on every path of the fast loop.

    Unfaulted, the fast loop keeps a tally of valid lines per phase class
    and each boundary reads it; the reference loop, and a faulted fast
    run, scan the line state instead.  Traced, every ``refresh.burst``
    event -- one per boundary with a due line -- must match the
    reference's, not only the total.
    """

    @pytest.mark.parametrize(
        "make, armed",
        [
            (_rpv_kernel_input, True),
            (_rpv_dual_input, True),
            (_rpv_faulted_input, False),
        ],
        ids=["kernel", "dual-core", "faulted"],
    )
    def test_bursts_identical_to_reference(self, make, armed, monkeypatch):
        config, traces, plan = make()
        arms = []
        arm_tally = RefrintPolyphaseValid.arm_tally

        def spy(engine):
            arms.append(engine)
            return arm_tally(engine)

        monkeypatch.setattr(RefrintPolyphaseValid, "arm_tally", spy)
        runs = []
        for reference_loop in (False, True):
            tracer = Tracer()
            system = System(
                config, traces, "rpv", tracer=tracer,
                reference_loop=reference_loop, fault_plan=plan,
            )
            result = system.run()
            runs.append((system, result, tracer.events()))
        (fast, fast_result, fast_events), (_, ref_result, ref_events) = runs
        assert arms == ([fast.engine] if armed else [])
        assert fast.engine.tally is None
        if make is _rpv_kernel_input:
            assert fast.kernel_batch_records > 0
        if plan is not None:
            assert fast_result.faults_injected > 0
        bursts = [
            (e.cycle, e.data) for e in fast_events if e.type == EVENT_REFRESH_BURST
        ]
        assert len(bursts) > 10
        assert sum(d["lines"] for _, d in bursts) == fast_result.refreshes
        assert [(e.type, e.cycle, e.data) for e in fast_events] == [
            (e.type, e.cycle, e.data) for e in ref_events
        ]
        assert fast_result == ref_result

    def test_tally_out_of_step_with_the_lines_fails_the_run(self, monkeypatch):
        # A tally one line off -- as if a stamp or fill site had skipped
        # its update -- must not end the run quietly.
        arm_tally = RefrintPolyphaseValid.arm_tally

        def off_by_one(engine):
            tally = arm_tally(engine)
            tally[0] += 1
            return tally

        monkeypatch.setattr(RefrintPolyphaseValid, "arm_tally", off_by_one)
        config, traces, _ = _rpv_kernel_input()
        with pytest.raises(RuntimeError, match="phase-class tally"):
            System(config, traces, "rpv").run()
