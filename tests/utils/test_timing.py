"""Tests for repro.utils.timing."""

import time

import pytest

from repro.utils.timing import PhaseTimer, Timer, TimingBreakdown


class TestTimer:
    def test_context_manager_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_accumulates_across_start_stop_cycles(self):
        timer = Timer()
        timer.start()
        time.sleep(0.005)
        first = timer.stop()
        timer.start()
        time.sleep(0.005)
        second = timer.stop()
        assert second > first

    def test_elapsed_while_running(self):
        timer = Timer().start()
        time.sleep(0.005)
        assert timer.elapsed > 0.0
        timer.stop()


class TestTimingBreakdown:
    def test_total_and_fraction(self):
        breakdown = TimingBreakdown({"a": 3.0, "b": 1.0})
        assert breakdown.total == pytest.approx(4.0)
        assert breakdown.fraction("a") == pytest.approx(0.75)
        assert breakdown.fraction("missing") == 0.0

    def test_percentages_sum_to_100(self):
        breakdown = TimingBreakdown({"a": 2.0, "b": 6.0})
        assert sum(breakdown.percentages().values()) == pytest.approx(100.0)

    def test_empty_breakdown_fraction_zero(self):
        assert TimingBreakdown({}).fraction("a") == 0.0

    def test_merged_with(self):
        merged = TimingBreakdown({"a": 1.0}).merged_with(TimingBreakdown({"a": 2.0, "b": 3.0}))
        assert merged.seconds["a"] == pytest.approx(3.0)
        assert merged.seconds["b"] == pytest.approx(3.0)

    def test_format_table_contains_phases(self):
        text = TimingBreakdown({"lookup": 1.0}).format_table()
        assert "lookup" in text
        assert "total" in text


class TestPhaseTimer:
    def test_phase_accumulates(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("work"):
                time.sleep(0.002)
        assert timer.seconds("work") >= 0.004
        assert timer.count("work") == 3

    def test_disabled_timer_records_nothing(self):
        timer = PhaseTimer(enabled=False)
        with timer.phase("work"):
            pass
        assert timer.breakdown().seconds == {}

    def test_manual_add(self):
        timer = PhaseTimer()
        timer.add("lookup", 1.5, count=2)
        assert timer.seconds("lookup") == pytest.approx(1.5)
        assert timer.count("lookup") == 2

    def test_manual_add_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("x", -1.0)

    def test_merge(self):
        a, b = PhaseTimer(), PhaseTimer()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.seconds("x") == pytest.approx(3.0)
        assert a.seconds("y") == pytest.approx(3.0)

    def test_exception_inside_phase_still_recorded(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("failing"):
                raise RuntimeError("boom")
        assert timer.count("failing") == 1
