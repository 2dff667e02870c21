"""Regression: chunk-local counter mirrors are flushed before readers.

The fast loop (its scalar stints on one or two cores and the batch-kernel
commit loop) mirrors the L2 stats and memory-channel counters into plain
locals for the duration of an event-horizon chunk, and writes them back
through the shared :func:`repro.timing.system._flush_chunk_counters`
helper at every chunk exit.  Maintenance code that runs between chunks --
interval closes, the interval tracker, refresh accounting -- reads the
*owner* objects, so a missing or partial flush shows up as stale counters
at exactly those read points.

These tests pin the contract by snapshotting the counters inside
``_close_interval`` (the first maintenance reader) on every path and
requiring the sequences to match the reference loop exactly.
"""

from repro.config import SimConfig
from repro.timing.system import System
from repro.workloads.profiles import get_profile
from repro.workloads.multiprog import get_mix
from repro.workloads.synthetic import generate_trace

from tests.timing.test_batch_kernel_equivalence import _single_core_input

INSTRUCTIONS = 300_000


class _SnapshottingSystem(System):
    """Records the shared counters at each interval close."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots = []

    def _close_interval(self, boundary_cycle, final=False):
        self.snapshots.append(
            (
                int(boundary_cycle),
                final,
                self.l2.stats.hits,
                self.l2.stats.misses,
                self.l2.stats.writebacks,
                self.l2.stats.drowsy_hits,
                self.memory.reads,
                self.memory.writes,
                self.memory.total_queue_wait,
                self.memory._next_free,
            )
        )
        super()._close_interval(boundary_cycle, final=final)


def _snapshots(num_cores, technique, dense=False, **kwargs):
    config = SimConfig.scaled(
        num_cores=num_cores, instructions_per_core=INSTRUCTIONS
    )
    if dense:
        # A single-core input whose one batch spans interior interval
        # closes (the kernel declines sphinx at 300k on the default L2).
        config, traces = _single_core_input()
    elif num_cores == 1:
        traces = [
            generate_trace(get_profile("sphinx"), INSTRUCTIONS, seed=7)
        ]
    else:
        traces = [
            generate_trace(p, INSTRUCTIONS, seed=7 + i)
            for i, p in enumerate(get_mix("GkNe").profiles)
        ]
    system = _SnapshottingSystem(
        config, traces, technique=technique, **kwargs
    )
    system.run()
    return system.snapshots, system


class TestInteriorCounterVisibility:
    def test_single_core_batch_kernel_matches_reference(self):
        # Baseline: the kernel runs only without an interval controller,
        # and a baseline run still closes energy intervals while its one
        # batch is live.
        ref, _ = _snapshots(1, "baseline", dense=True, reference_loop=True)
        fast, system = _snapshots(1, "baseline", dense=True, batch_kernel=True)
        assert system.kernel_batch_records > 0
        assert fast == ref
        assert len(ref) > 1, "need interior interval closes to be meaningful"

    def test_single_core_scalar_fast_matches_reference(self):
        ref, _ = _snapshots(1, "esteem", reference_loop=True)
        fast, _ = _snapshots(1, "esteem", batch_kernel=False)
        assert fast == ref

    def test_multi_core_fast_matches_reference(self):
        ref, _ = _snapshots(2, "esteem", reference_loop=True)
        fast, _ = _snapshots(2, "esteem")
        assert fast == ref

    def test_baseline_refresh_accounting_sees_flushed_state(self):
        # Baseline has no ESTEEM controller: interval closes come purely
        # from the energy tracker, and refresh advance reads the memory
        # channel -- both must still observe flushed counters.
        ref, _ = _snapshots(1, "baseline", reference_loop=True)
        fast, _ = _snapshots(1, "baseline", batch_kernel=True)
        assert fast == ref
