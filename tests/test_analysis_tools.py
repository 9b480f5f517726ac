"""Tests for the sweep runner and trace reporting tools."""

import os

import pytest

from repro import PIMMachine
from repro.analysis import (
    Sweep,
    hotspot_rounds,
    render_timeline,
    summarize,
)
from repro.sim.tracing import RoundLog


def _echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.reply(mid, x, tag)


class TestSweep:
    def make_sweep(self, repeats=3):
        sweep = Sweep("msgs", params=[2, 4], repeats=repeats, base_seed=7)

        @sweep.point
        def run(p, seed):
            m = PIMMachine(num_modules=p, seed=seed)
            m.register("echo", _echo)
            for i in range(p * 2):
                m.send(i % p, "echo", (i,))
            before = m.snapshot()
            m.drain()
            return m.delta_since(before)

        return sweep

    def test_runs_params_times_repeats(self):
        table = self.make_sweep(repeats=3).run()
        assert len(table.rows) == 6
        assert table.params == [2, 4]
        # seeds are distinct and deterministic
        seeds = [s for _, s, _ in table.rows]
        assert len(set(seeds)) == 6
        again = self.make_sweep(repeats=3).run()
        assert [m for _, _, m in again.rows] == [m for _, _, m in table.rows]

    def test_median_and_envelope(self):
        table = self.make_sweep().run()
        med = table.median("io_time")
        assert set(med) == {2, 4}
        env = table.envelope("io_time")
        lo, mid, hi = env[2]
        assert lo <= mid <= hi

    def test_to_csv(self, tmp_path):
        table = self.make_sweep(repeats=1).run()
        path = os.path.join(tmp_path, "out.csv")
        table.to_csv(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0].startswith("param,seed,")
        assert len(lines) == 3

    def test_column_rows(self):
        table = self.make_sweep().run()
        rows = table.column_rows(["io_time", "rounds"])
        assert len(rows) == 2 and len(rows[0]) == 3

    def test_requires_runner_and_valid_repeats(self):
        with pytest.raises(RuntimeError):
            Sweep("x", params=[1]).run()
        with pytest.raises(ValueError):
            Sweep("x", params=[1], repeats=0)


def make_rounds(hs):
    return [RoundLog(index=i, h=h, messages=h, pim_work_max=h / 2,
                     tasks_executed=h) for i, h in enumerate(hs)]


class TestTraceReport:
    def test_summarize(self):
        s = summarize(make_rounds([1, 5, 2]))
        assert s.rounds == 3
        assert s.io_time == 8
        assert s.max_h == 5
        assert s.busiest_round == 1
        assert s.tasks == 8

    def test_summarize_empty(self):
        s = summarize([])
        assert s.rounds == 0 and s.busiest_round == -1

    def test_timeline_renders_all_rounds_when_short(self):
        out = render_timeline(make_rounds([1, 4, 2]), width=10)
        lines = out.splitlines()
        assert len(lines) == 3
        assert "h=4" in lines[1]
        # bar proportional to h
        assert lines[1].count("#") > lines[0].count("#")

    def test_timeline_buckets_long_runs(self):
        out = render_timeline(make_rounds(range(1, 200)), max_rows=20)
        assert len(out.splitlines()) <= 21
        assert "r0-" in out  # bucketed labels

    def test_timeline_empty(self):
        assert render_timeline([]) == "(no rounds)"

    def test_hotspots(self):
        hot = hotspot_rounds(make_rounds([3, 9, 9, 1]), top=2)
        assert [r.index for r in hot] == [1, 2]

    def test_end_to_end_with_machine(self):
        m = PIMMachine(num_modules=4, seed=0)
        m.register("echo", _echo)
        for i in range(40):
            m.send(0, "echo", (i,))
        m.drain()
        s = summarize(m.tracer.rounds)
        assert s.io_time == m.metrics.io_time
        assert "h=" in render_timeline(m.tracer.rounds)
