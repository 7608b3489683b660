"""Latency/throughput edge cases (repro.obs.latency)."""

import pytest

from repro.obs import latency_summary, percentile, throughput


class TestPercentile:
    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 37.5, 50.0, 99.0, 100.0):
            assert percentile([4.2], q) == 4.2

    def test_endpoints_are_min_and_max(self):
        xs = [3.0, 1.0, 2.0, 5.0, 4.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 100.0) == 5.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0], 50.0) == pytest.approx(1.5)
        assert percentile([1.0, 2.0, 4.0], 50.0) == pytest.approx(2.0)

    def test_input_order_is_irrelevant(self):
        xs = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert percentile(xs, 90.0) == percentile(sorted(xs), 90.0)

    def test_accepts_any_iterable(self):
        assert percentile(iter((2.0, 1.0)), 100.0) == 2.0

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    @pytest.mark.parametrize("q", [-0.1, 100.1, 1e9])
    def test_q_out_of_range_raises(self, q):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0, 2.0], q)


class TestLatencySummary:
    def test_summary_fields(self):
        s = latency_summary([3.0, 1.0, 2.0])
        assert s["count"] == 3.0
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["p50"] == pytest.approx(2.0)

    def test_custom_percentiles(self):
        s = latency_summary([1.0, 2.0, 3.0, 4.0], percentiles=(25.0,))
        assert "p25" in s and "p99" not in s

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            latency_summary([])


class TestThroughput:
    def test_rate(self):
        assert throughput(10, 2.0) == pytest.approx(5.0)

    @pytest.mark.parametrize("wall", [0.0, -1.0])
    def test_nonpositive_window_raises(self, wall):
        with pytest.raises(ValueError, match="wall_seconds"):
            throughput(10, wall)

