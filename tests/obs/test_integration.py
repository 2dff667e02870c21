"""Integration: the simulation stack feeding the observability layer."""

from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.faults import FaultPlan
from repro.obs import (
    EVENT_FAULT_INJECT,
    EVENT_INTERVAL_DECISION,
    EVENT_INTERVAL_ENERGY,
    EVENT_MSHR_STALL,
    EVENT_REFRESH_BURST,
    EVENT_SIM_END,
    EVENT_SIM_START,
    MetricsRegistry,
    Tracer,
)
from repro.timing.system import System
from repro.workloads.multiprog import get_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

CFG = SimConfig.scaled(instructions_per_core=600_000)


def _run(technique="esteem", tracer=None, metrics=None):
    trace = generate_trace(get_profile("h264ref"), CFG.instructions_per_core, seed=0)
    system = System(CFG, [trace], technique, tracer=tracer, metrics=metrics)
    return system.run()


class TestTracing:
    def test_one_decision_event_per_timeline_entry(self):
        tracer = Tracer()
        result = _run(tracer=tracer)
        decisions = tracer.events(EVENT_INTERVAL_DECISION)
        assert len(decisions) == len(result.timeline)
        for event, record in zip(decisions, result.timeline):
            assert event.data["interval"] == record.interval_index
            assert event.cycle == record.cycle
            assert tuple(event.data["n_active_way"]) == record.n_active_way
            assert event.data["active_fraction"] == pytest.approx(
                record.active_fraction
            )

    def test_run_is_bracketed_by_start_and_end(self):
        tracer = Tracer()
        result = _run(tracer=tracer)
        (start,) = tracer.events(EVENT_SIM_START)
        (end,) = tracer.events(EVENT_SIM_END)
        assert start.data["technique"] == "esteem"
        assert end.data["instructions"] == result.total_instructions
        assert end.data["refreshes"] == result.refreshes

    def test_refresh_bursts_sum_to_total_refreshes(self):
        tracer = Tracer()
        result = _run(technique="baseline", tracer=tracer)
        bursts = tracer.events(EVENT_REFRESH_BURST)
        assert bursts, "baseline must refresh"
        assert sum(e.data["lines"] for e in bursts) == result.refreshes

    def test_interval_energy_events_match_interval_count(self):
        tracer = Tracer()
        result = _run(tracer=tracer)
        energy = tracer.events(EVENT_INTERVAL_ENERGY)
        assert len(energy) == result.intervals

    @pytest.mark.parametrize("technique", ["esteem", "selective-sets"])
    def test_interval_energy_charges_every_transition(self, technique):
        # Each close charges the N_L its controller's record reports.
        tracer = Tracer()
        result = _run(technique, tracer=tracer)
        energy = tracer.events(EVENT_INTERVAL_ENERGY)
        assert result.transitions > 0
        assert sum(e.data["transitions"] for e in energy) == result.transitions

    def test_tracing_does_not_perturb_results(self):
        plain = _run()
        traced = _run(tracer=Tracer(), metrics=MetricsRegistry())
        assert traced.total_cycles == plain.total_cycles
        assert traced.l2_hits == plain.l2_hits
        assert traced.l2_misses == plain.l2_misses
        assert traced.refreshes == plain.refreshes
        assert traced.energy.total_j == pytest.approx(plain.energy.total_j)

    def test_disabled_tracer_normalised_to_none(self):
        # No tracer is the one way to say "off": nothing below the system
        # holds one either.
        trace = generate_trace(get_profile("gamess"), 300_000, seed=0)
        system = System(CFG, [trace], "esteem")
        assert system.tracer is None
        assert system.engine.tracer is None
        assert system.esteem.tracer is None


def _sphinx_narrow_channel():
    # A 0.5 GB/s channel makes the batch commit loop's misses queue, so
    # its stall emission is exercised too.  A 256 KB L2 gives the batch
    # kernel's density rule enough records per touched set (23 of 16).
    cfg = replace(
        CFG,
        memory=replace(CFG.memory, bandwidth_bytes_per_sec=0.5e9),
        l2=replace(CFG.l2, size_bytes=256 * 1024),
    )
    trace = generate_trace(get_profile("sphinx"), cfg.instructions_per_core, seed=0)
    return cfg, [trace], "baseline", None


def _h264ref_esteem():
    trace = generate_trace(get_profile("h264ref"), CFG.instructions_per_core, seed=0)
    return CFG, [trace], "esteem", None


def _dual_core_mix():
    cfg = SimConfig.scaled(num_cores=2, instructions_per_core=250_000)
    traces = [
        generate_trace(p, cfg.instructions_per_core, seed=7 + i)
        for i, p in enumerate(get_mix("GkNe").profiles)
    ]
    return cfg, traces, "esteem", None


def _faulted():
    cfg = SimConfig.scaled(
        retention_us=12.5, instructions_per_core=200_000, interval_cycles=100_000
    )
    trace = generate_trace(get_profile("gamess"), cfg.instructions_per_core, seed=0)
    return cfg, [trace], "esteem", FaultPlan(seed=5, flip_rate=2e-4)


class TestFastLoopObservability:
    """Observation is loop-independent: traced or not, a run takes the
    fast loop unless ``reference_loop`` is set, and both loops must emit
    the same event stream and metrics."""

    _KERNEL_KEYS = {"kernel.batch_records", "kernel.scalar_records"}

    def _observed(self, tracer, reference_loop=False):
        metrics = MetricsRegistry()
        trace = generate_trace(
            get_profile("h264ref"), CFG.instructions_per_core, seed=0
        )
        result = System(
            CFG,
            [trace],
            "esteem",
            tracer=tracer,
            metrics=metrics,
            reference_loop=reference_loop,
        ).run()
        return result, metrics.snapshot()

    #: (name, run builder, an event type the stream must hold).
    _TRACED_RUNS = [
        ("sphinx-baseline-kernel", _sphinx_narrow_channel, EVENT_MSHR_STALL),
        ("h264ref-esteem", _h264ref_esteem, EVENT_MSHR_STALL),
        ("GkNe-esteem", _dual_core_mix, EVENT_MSHR_STALL),
        ("faulted", _faulted, EVENT_FAULT_INJECT),
    ]

    def test_event_stream_identical_to_reference_loop(self):
        for name, make, must_see in self._TRACED_RUNS:
            config, traces, technique, plan = make()
            streams, results = [], []
            for reference_loop in (False, True):
                tracer = Tracer()
                system = System(
                    config,
                    traces,
                    technique,
                    tracer=tracer,
                    reference_loop=reference_loop,
                    fault_plan=plan,
                )
                results.append(system.run())
                streams.append(
                    [(e.type, e.cycle, e.data) for e in tracer.events()]
                )
                if not reference_loop and make is _sphinx_narrow_channel:
                    # Every record went through the batch commit loop, so
                    # its demand-miss site emitted the stalls.
                    assert system.kernel_scalar_records == 0, name
                    assert tracer.events(EVENT_MSHR_STALL), name
            fast, ref = streams
            assert fast == ref, name
            assert any(event[0] == must_see for event in fast), name
            assert results[0] == results[1], name

    def test_untraced_run_reaches_the_traced_decisions(self):
        tracer = Tracer()
        self._observed(tracer=tracer)
        untraced, _ = self._observed(tracer=None)
        decisions = tracer.events(EVENT_INTERVAL_DECISION)
        assert decisions
        assert [
            (r.interval_index, r.cycle, r.n_active_way) for r in untraced.timeline
        ] == [
            (e.data["interval"], e.cycle, tuple(e.data["n_active_way"]))
            for e in decisions
        ]

    def test_metrics_identical_to_reference_loop(self):
        fast, fast_snap = self._observed(tracer=None)
        ref, ref_snap = self._observed(tracer=Tracer(), reference_loop=True)
        assert fast == ref
        keys = self._KERNEL_KEYS
        assert {k: v for k, v in fast_snap.items() if k not in keys} == {
            k: v for k, v in ref_snap.items() if k not in keys
        }
        # Same total records, differently attributed.
        assert sum(fast_snap[k]["value"] for k in keys) == sum(
            ref_snap[k]["value"] for k in keys
        )


class TestMetrics:
    def test_run_counters_recorded(self):
        reg = MetricsRegistry()
        result = _run(metrics=reg)
        snap = reg.snapshot()
        assert snap["sim.runs"]["value"] == 1
        assert snap["l2.misses"]["value"] == result.l2_misses
        assert snap["refresh.lines"]["value"] == result.refreshes
        assert snap["energy.intervals"]["value"] == result.intervals
        assert snap["energy.total_j"]["value"] == pytest.approx(
            result.energy.total_j
        )
