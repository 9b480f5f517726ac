"""Tests for the analysis toolkit (fits and table rendering)."""

import math

import pytest

from repro.analysis import fit_polylog, fit_power, render_table


class TestFitPower:
    def test_recovers_exact_exponent(self):
        xs = [1, 2, 4, 8, 16]
        ys = [3 * x**2 for x in xs]
        k, c = fit_power(xs, ys)
        assert k == pytest.approx(2.0, abs=1e-9)
        assert c == pytest.approx(3.0, rel=1e-9)

    def test_noisy_exponent_close(self):
        xs = [2, 4, 8, 16, 32]
        ys = [5 * x**1.5 * (1 + 0.05 * (-1) ** i) for i, x in enumerate(xs)]
        k, _ = fit_power(xs, ys)
        assert abs(k - 1.5) < 0.15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_power([0, 2], [1, 1])


class TestFitPolylog:
    def test_recovers_log_cubed(self):
        ps = [4, 8, 16, 32, 64]
        ys = [2 * math.log2(p) ** 3 for p in ps]
        k, c = fit_polylog(ps, ys)
        assert k == pytest.approx(3.0, abs=1e-9)
        assert c == pytest.approx(2.0, rel=1e-9)

    def test_rejects_p1(self):
        with pytest.raises(ValueError):
            fit_polylog([1, 2], [1, 1])


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(["P", "io"], [[8, 12.5], [16, 2000.123]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "P" in lines[1] and "io" in lines[1]
        assert "2e+03" in out or "2000" in out

    def test_empty_rows(self):
        out = render_table(["a"], [])
        assert "a" in out
