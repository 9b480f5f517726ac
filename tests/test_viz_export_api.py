"""Tests for structure rendering and the order probes."""

from repro.analysis import layout_summary, render_structure
from repro.core.probes import ABOVE_ALL, BELOW_ALL, AboveAll, BelowAll
from tests.conftest import make_skiplist


class TestProbes:
    def test_below_all_total_order(self):
        assert BELOW_ALL < 0 and BELOW_ALL < "z" and BELOW_ALL <= 0
        assert not (BELOW_ALL > 0) and not (BELOW_ALL >= 0)
        assert 0 > BELOW_ALL and 0 >= BELOW_ALL
        assert BELOW_ALL == BelowAll() and BELOW_ALL >= BelowAll()

    def test_above_all_total_order(self):
        assert ABOVE_ALL > 10**18 and ABOVE_ALL >= "z"
        assert not (ABOVE_ALL < 0) and 0 < ABOVE_ALL and 0 <= ABOVE_ALL
        assert ABOVE_ALL == AboveAll() and ABOVE_ALL <= AboveAll()

    def test_probes_sort_to_the_ends(self):
        xs = [5, ABOVE_ALL, 1, BELOW_ALL, 3]
        s = sorted(xs)
        assert s[0] is BELOW_ALL and s[-1] is ABOVE_ALL


class TestStructureViz:
    def test_render_contains_every_key_and_owner(self):
        machine, sl, ref = make_skiplist(num_modules=4, n=10, seed=40)
        out = render_structure(sl.struct)
        for k in ref.data:
            assert str(k) in out
        assert "h_low" in out
        assert "local leaf list" in out
        assert "/R" in out or "level" in out

    def test_render_elides_wide_structures(self):
        machine, sl, _ = make_skiplist(num_modules=4, n=200, seed=41)
        out = render_structure(sl.struct, max_keys=10)
        assert "elided" in out

    def test_layout_summary_consistent(self):
        machine, sl, ref = make_skiplist(num_modules=8, n=120, seed=42)
        s = layout_summary(sl.struct)
        assert s["per_level"][0] == 120
        assert sum(s["leaves_per_module"]) == 120
        assert s["upper_nodes"] + s["lower_nodes"] == sum(
            s["per_level"].values())
        assert s["h_low"] == sl.struct.h_low
