"""Unit tests for the module map."""

import pytest

from repro.core.modules import ModuleMap


@pytest.fixture
def mm() -> ModuleMap:
    # 128 sets, 4 modules (32 sets each), one leader per 8 sets.
    return ModuleMap(num_sets=128, num_modules=4, sampling_ratio=8)


class TestGeometry:
    def test_sets_per_module(self, mm):
        assert mm.sets_per_module == 32

    def test_module_of(self, mm):
        assert mm.module_of(0) == 0
        assert mm.module_of(31) == 0
        assert mm.module_of(32) == 1
        assert mm.module_of(127) == 3

    def test_set_range(self, mm):
        assert mm.set_range(0) == (0, 32)
        assert mm.set_range(3) == (96, 128)

    def test_module_of_set_list(self, mm):
        table = mm.module_of_set_list()
        assert len(table) == 128
        assert all(table[s] == mm.module_of(s) for s in range(128))

    def test_uneven_modules_rejected(self):
        with pytest.raises(ValueError):
            ModuleMap(num_sets=100, num_modules=3, sampling_ratio=8)

    def test_module_without_leader_rejected(self):
        with pytest.raises(ValueError):
            ModuleMap(num_sets=64, num_modules=16, sampling_ratio=8)


class TestLeaders:
    def test_leader_pattern(self, mm):
        assert mm.is_leader(0)
        assert mm.is_leader(8)
        assert not mm.is_leader(1)

    def test_leader_count(self, mm):
        assert mm.num_leaders == 16
        assert len(mm.leaders()) == 16

    def test_every_module_has_leaders(self, mm):
        for m in range(4):
            leaders = mm.leaders_in(m)
            assert len(leaders) == 4
            first, last = mm.set_range(m)
            assert all(first <= s < last for s in leaders)

    def test_followers_disjoint_from_leaders(self, mm):
        for m in range(4):
            leaders = set(mm.leaders_in(m))
            followers = set(mm.followers_in(m))
            assert not (leaders & followers)
            assert len(leaders) + len(followers) == mm.sets_per_module

    def test_followers_per_module(self, mm):
        assert [len(mm.followers_in(m)) for m in range(4)] == [28] * 4


class TestPaperGeometries:
    @pytest.mark.parametrize(
        "sets,modules,rs",
        [
            (4096, 8, 64),    # single-core default
            (8192, 16, 64),   # dual-core default
            (4096, 32, 64),   # Table 3 extreme
            (8192, 64, 64),   # Table 3 dual extreme
            (4096, 8, 128),   # Table 3 Rs=128
        ],
    )
    def test_paper_configurations_valid(self, sets, modules, rs):
        mm = ModuleMap(sets, modules, rs)
        assert mm.num_leaders == sets // rs
        for m in range(modules):
            assert mm.leaders_in(m)
