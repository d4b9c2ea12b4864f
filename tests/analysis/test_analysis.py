"""Tests for the analysis utilities (flops model, errors, metrics,
Kruskal-Weiss, tables)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.error import fractional_error, fractional_percent_error
from repro.analysis.flops import (
    FLOPS_PER_MAC,
    interaction_flops,
    serial_time_estimate,
    traversal_flops,
)
from repro.analysis.kruskal_weiss import (
    expected_completion_time,
    min_clusters,
)
from repro.analysis.metrics import efficiency, phase_table, speedup
from repro.analysis.tables import format_table
from repro.machine.profiles import NCUBE2


class TestFlopsModel:
    def test_paper_instruction_counts(self):
        """Section 5.2.1: 13 + 16 k^2 per interaction, 14 per MAC."""
        assert FLOPS_PER_MAC == 14.0
        assert interaction_flops(4) == 13 + 16 * 16
        assert interaction_flops(6) == 13 + 16 * 36

    def test_degree_zero_charged_as_k1(self):
        assert interaction_flops(0) == interaction_flops(1) == 29

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            interaction_flops(-1)

    def test_traversal_flops(self):
        assert traversal_flops(10, 5, 2, degree=3) == pytest.approx(
            14 * 10 + (13 + 144) * 5 + 29 * 2
        )

    def test_serial_time(self):
        t = serial_time_estimate(NCUBE2.flops_per_second, NCUBE2)
        assert t == pytest.approx(1.0)
        with pytest.raises(ValueError):
            serial_time_estimate(-1, NCUBE2)


class TestFractionalError:
    def test_definition(self):
        exact = np.array([3.0, 4.0])
        approx = np.array([3.0, 5.0])
        assert fractional_error(approx, exact) == pytest.approx(1.0 / 5.0)

    def test_percent(self):
        assert fractional_percent_error(np.array([1.1]), np.array([1.0])) \
            == pytest.approx(10.0)

    def test_identical_is_zero(self):
        v = np.random.default_rng(0).normal(size=20)
        assert fractional_error(v, v) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fractional_error(np.zeros(3), np.zeros(4))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            fractional_error(np.ones(3), np.zeros(3))

    def test_matrix_inputs_flattened(self):
        exact = np.ones((4, 3))
        approx = np.ones((4, 3)) * 1.01
        assert fractional_error(approx, exact) == pytest.approx(0.01)


class TestMetrics:
    def test_speedup_and_efficiency(self):
        assert speedup(100.0, 25.0) == 4.0
        assert efficiency(100.0, 25.0, 8) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(-1.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
        with pytest.raises(ValueError):
            efficiency(1.0, 1.0, 0)

    def test_phase_table_zero_fills_paper_phases(self):
        from repro.machine.engine import Engine
        rep = Engine(2).run(lambda comm: comm.compute(5.0))
        table = phase_table(rep)
        assert table["load balancing"] == 0.0
        assert "force computation" in table


def imbalance_overhead(r, p, mean, std):
    """The bound's imbalance term over its essential-work term."""
    work = r * mean / p
    return (expected_completion_time(r, p, mean, std) - work) / work


class TestKruskalWeiss:
    def test_zero_variance_is_perfect(self):
        t = expected_completion_time(64, 8, mean=2.0, std=0.0)
        assert t == pytest.approx(16.0)

    def test_overhead_shrinks_with_more_clusters(self):
        """The Section 4.1 argument: increasing r grows work linearly but
        overhead only as sqrt(r), so the ratio falls."""
        ratios = [imbalance_overhead(r, 16, 1.0, 1.0)
                  for r in (16, 64, 256, 1024)]
        assert ratios == sorted(ratios, reverse=True)

    def test_overhead_grows_with_p(self):
        assert imbalance_overhead(256, 64, 1.0, 1.0) > \
            imbalance_overhead(256, 4, 1.0, 1.0)

    def test_min_clusters_rule(self):
        assert min_clusters(1) == 1
        assert min_clusters(16) == math.ceil(16 * math.log(16))
        # at r = p log p the overhead ratio is O(1)
        p = 64
        r = min_clusters(p)
        assert imbalance_overhead(r, p, 1.0, 1.0) < 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_completion_time(0, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            expected_completion_time(4, 4, -1.0, 1.0)
        with pytest.raises(ValueError):
            min_clusters(0)

    @given(st.integers(2, 512), st.integers(2, 64))
    def test_time_at_least_essential_work(self, r, p):
        t = expected_completion_time(r, p, 1.0, 0.5)
        assert t >= r / p


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["p", "time"], [[16, 1.5], [64, 0.25]],
                           title="Table 1")
        lines = out.splitlines()
        assert lines[0] == "Table 1"
        assert "p" in lines[2] and "time" in lines[2]
        assert "1.50" in out and "0.25" in out

    def test_precision(self):
        out = format_table(["x"], [[1.23456]], precision=4)
        assert "1.2346" in out

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out
