"""The warm-L2 image path of :class:`~repro.timing.system.System`.

Every construction clones a memoised image of the prefilled L2.  These
tests pin the clone against a cache filled line by line (the executable
spec of the prefill), the image cache's key and LRU bound, its counters,
and the collector pause around construction and runs.
"""

import copy
import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.config import (
    CacheGeometry,
    EsteemConfig,
    MemoryConfig,
    RefreshConfig,
    SimConfig,
)
from repro.obs.metrics import MetricsRegistry
from repro.timing.system import (
    _CORE_OFFSET_SHIFT,
    _L2_IMAGE_CACHE,
    _L2_IMAGE_CACHE_MAX,
    System,
)
from repro.workloads.profiles import ALL_BENCHMARKS
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace


def make_config(sets: int = 16, ways: int = 4, phases: int = 4) -> SimConfig:
    return SimConfig(
        l2=CacheGeometry(
            size_bytes=sets * ways * 64, associativity=ways, latency_cycles=12
        ),
        refresh=RefreshConfig(
            retention_cycles=phases * 1_000,
            num_banks=1,
            lines_per_refresh_burst=16,
            rpv_phases=phases,
        ),
        memory=MemoryConfig(latency_cycles=100),
        esteem=EsteemConfig(a_min=1, num_modules=1, sampling_ratio=1),
        instructions_per_core=1_000,
    )


def footprint(lines: int, name: str = "w") -> Trace:
    """A trace that only carries a prefill footprint (construction only)."""
    return Trace(name, footprint_lines=lines)


def prefill_in_place(config: SimConfig, lines: int) -> tuple:
    """A fresh L2 filled line by line with the warm footprint.

    ``min(lines, capacity)`` junk lines, way-major: every set fills
    ``target // sets`` ways and the first ``target % sets`` sets one
    more; each junk line is valid, clean and stamped with phase window
    ``-(g % phases)``.  Returns ``(cache, prefill_fraction)``.
    """
    l2 = SetAssociativeCache(config.l2, name="L2")
    phases = config.refresh.rpv_phases
    num_lines = l2.state.num_lines
    target = max(0, min(lines, num_lines))
    full_ways, remainder = divmod(target, l2.num_sets)
    for s_idx, cset in enumerate(l2.sets):
        for way in range(full_ways + (s_idx < remainder)):
            tag = ((1 << 45) + way) << l2.set_bits
            g = cset.base + way
            cset.tags[way] = tag
            cset.tag_map[tag] = way
            l2.state.valid[g] = True
            l2.state.last_window[g] = -(g % phases)
    return l2, target / num_lines


def cache_state(l2: SetAssociativeCache) -> tuple:
    """Everything construction decides, in comparable form."""
    state = l2.state
    return (
        [cset.tags for cset in l2.sets],
        [list(cset.tag_map.items()) for cset in l2.sets],
        [cset.order for cset in l2.sets],
        [(cset.index, cset.base, cset.n_active, cset.is_leader) for cset in l2.sets],
        [{type(tag) for tag in cset.tags} - {type(None)} for cset in l2.sets],
        state.valid.tolist(),
        state.dirty.tolist(),
        state.last_window.tolist(),
        state.active.tolist(),
        [a.dtype for a in (state.valid, state.dirty, state.last_window, state.active)],
    )


@pytest.fixture(autouse=True)
def fresh_images():
    """Images are process-global: start and end every test without any."""
    _L2_IMAGE_CACHE.clear()
    yield
    _L2_IMAGE_CACHE.clear()


@st.composite
def geometries_and_targets(draw):
    sets = 2 ** draw(st.integers(0, 6))
    ways = draw(st.integers(1, 16))
    phases = 2 ** draw(st.integers(0, 3))  # RefreshConfig takes powers of two
    capacity = sets * ways
    target = draw(
        st.sampled_from(["zero", "below-sets", "remainder", "capacity", "above"])
        .flatmap(
            lambda kind: {
                "zero": st.just(0),
                "below-sets": st.integers(0, sets - 1),
                "remainder": st.integers(0, capacity - 1),
                "capacity": st.just(capacity),
                "above": st.integers(capacity + 1, 4 * capacity + 1),
            }[kind]
        )
    )
    return sets, ways, phases, target


class TestCloneEqualsInPlacePrefill:
    @given(case=geometries_and_targets())
    @settings(max_examples=80, deadline=None)
    def test_first_and_cached_clone_equal_the_spec(self, case):
        sets, ways, phases, target = case
        _L2_IMAGE_CACHE.clear()
        config = make_config(sets, ways, phases)
        spec, fraction = prefill_in_place(config, target)
        for _ in range(2):  # the build, then a hit
            sysm = System(config, [footprint(target)], "baseline")
            sysm.l2.check_invariants()
            assert cache_state(sysm.l2) == cache_state(spec)
            assert sysm.prefill_fraction == fraction

    @pytest.mark.parametrize(
        "lines", [0, 4095, 4096, 4097, 65535, 65536, 100000]
    )
    def test_paper_geometry(self, lines):
        config = SimConfig.scaled()
        spec, fraction = prefill_in_place(config, lines)
        sysm = System(config, [footprint(lines)], "baseline")
        assert cache_state(sysm.l2) == cache_state(spec)
        assert sysm.prefill_fraction == fraction

    def test_dual_core_footprints_add(self):
        config = replace(make_config(), num_cores=2)
        spec, fraction = prefill_in_place(config, 30)
        sysm = System(config, [footprint(10, "a"), footprint(20, "b")], "baseline")
        assert cache_state(sysm.l2) == cache_state(spec)
        assert sysm.prefill_fraction == fraction


class TestSharedPrototypes:
    @given(case=geometries_and_targets())
    @settings(max_examples=40, deadline=None)
    def test_image_holds_at_most_two_rows_and_two_maps(self, case):
        sets, ways, phases, target = case
        _L2_IMAGE_CACHE.clear()
        System(make_config(sets, ways, phases), [footprint(target)], "baseline")
        ((rows, maps, *_),) = _L2_IMAGE_CACHE.values()
        assert len(rows) == len(maps) == sets
        assert len({id(row) for row in rows}) <= 2
        assert len({id(tag_map) for tag_map in maps}) <= 2

    @pytest.mark.parametrize("cores", [1, 2])
    def test_no_junk_tag_is_an_issued_address(self, cores):
        """Junk fills every way here; cores issue ``addr | core << 40``."""
        config = SimConfig.scaled(num_cores=cores)
        full = [footprint(config.l2.num_lines)] * cores
        junk = set(System(config, full, "baseline").l2.resident_lines())
        assert len(junk) == config.l2.associativity
        issued = set()
        for profile in ALL_BENCHMARKS:
            addrs = generate_trace(profile, 50_000).addrs
            assert int(addrs.max()) < 1 << _CORE_OFFSET_SHIFT
            for core in range(cores):
                issued.update((addrs | core << _CORE_OFFSET_SHIFT).tolist())
        assert not junk & issued
        assert min(junk) >= 1 << (_CORE_OFFSET_SHIFT + 1) > max(issued)


class TestEsteemLeaderLayout:
    @pytest.mark.parametrize("cores", [1, 2], ids=["4MB-single", "8MB-dual"])
    def test_construction_matches_the_module_definitions(self, cores):
        """Leaders are the sets ``s % R_s == 0``, modules contiguous ranges."""
        config = SimConfig.scaled(num_cores=cores)
        traces = [footprint(1_000, f"w{i}") for i in range(cores)]
        for _ in range(2):  # the image build, then a clone of the cached one
            sysm = System(config, traces, "esteem")
            mm = sysm.esteem.module_map
            rs, spm = mm.sampling_ratio, mm.sets_per_module
            sets = range(config.l2.num_sets)
            l2 = sysm.l2
            assert [c.is_leader for c in l2.sets] == [s % rs == 0 for s in sets]
            assert l2.module_of_set == [s // spm for s in sets]
            for m in range(mm.num_modules):
                module = range(m * spm, (m + 1) * spm)
                followers = [s for s in module if s % rs]
                assert sysm.esteem.reconfig._followers[m] == followers
                assert mm.followers_in(m) == followers
                assert mm.leaders_in(m) == [s for s in module if s % rs == 0]


class TestCloneIsolation:
    def test_mutating_a_clone_leaves_the_image_unchanged(self):
        config = make_config(sets=8, ways=4)
        first = System(config, [footprint(20)], "baseline")
        (image,) = _L2_IMAGE_CACHE.values()
        before = copy.deepcopy(image)
        l2 = first.l2
        for addr in range(64):
            l2.access(addr, is_write=addr % 3 == 0, window=5)
        l2.invalidate_line(1)
        l2.sets[2].order.reverse()
        l2.sets[3].n_active = 1
        l2.state.active[:] = False
        (after,) = _L2_IMAGE_CACHE.values()
        assert after is image
        for old, new in zip(before, image):
            if isinstance(old, np.ndarray):
                assert np.array_equal(old, new)
            else:
                assert old == new
        spec, _ = prefill_in_place(config, 20)
        second = System(config, [footprint(20)], "baseline")
        assert cache_state(second.l2) == cache_state(spec)


class TestImageCache:
    def test_clamped_key_shares_one_image(self):
        config = make_config()
        registry = MetricsRegistry()
        capacity = config.l2.num_lines
        for lines in (capacity, 10 * capacity):
            System(config, [footprint(lines)], "baseline", metrics=registry)
        assert len(_L2_IMAGE_CACHE) == 1
        assert registry.counter("l2_image.builds").value == 1
        assert registry.counter("l2_image.hits").value == 1

    def test_bound_and_lru_order(self):
        assert _L2_IMAGE_CACHE_MAX == 8
        config = make_config()
        registry = MetricsRegistry()

        def build(lines):
            System(config, [footprint(lines)], "baseline", metrics=registry)
            return next(reversed(_L2_IMAGE_CACHE))

        keys = [build(lines) for lines in range(8)]
        assert list(_L2_IMAGE_CACHE) == keys
        assert build(0) == keys[0]  # a hit refreshes its entry...
        assert list(_L2_IMAGE_CACHE) == keys[1:] + keys[:1]
        ninth = build(8)  # ...so the ninth key evicts keys[1], not keys[0]
        assert list(_L2_IMAGE_CACHE) == keys[2:] + [keys[0], ninth]
        assert registry.counter("l2_image.builds").value == 9
        assert registry.counter("l2_image.hits").value == 1
        build(0)
        assert registry.counter("l2_image.hits").value == 2
        build(1)
        assert registry.counter("l2_image.builds").value == 10


class GcProbe(System):
    """Records whether the collector is enabled mid-construction and mid-run."""

    def _build_engine(self):
        self.gc_in_init = gc.isenabled()
        return super()._build_engine()

    def _finalize(self, cores, end_cycle):
        self.gc_in_run = gc.isenabled()
        return super()._finalize(cores, end_cycle)


class TestGcPause:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def gc_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_construction_and_run_restore_the_collector(self, gc_state):
        config = make_config()
        trace = Trace(
            "w", addrs=np.arange(50), writes=np.zeros(50, bool),
            gaps=np.full(50, 20), footprint_lines=10,
        )
        sysm = GcProbe(config, [trace], "baseline")
        assert sysm.gc_in_init is False
        assert gc.isenabled() is gc_state
        sysm.run()
        assert sysm.gc_in_run is False
        assert gc.isenabled() is gc_state

    def test_failed_construction_restores_the_collector(self, gc_state):
        config = make_config()
        with pytest.raises(ValueError):
            System(config, [footprint(3)], "magic")
        assert gc.isenabled() is gc_state
        with pytest.raises(ValueError):
            System(config, [footprint(3), footprint(3)], "baseline")
        assert gc.isenabled() is gc_state
