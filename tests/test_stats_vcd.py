"""Tests for the statistics helpers and the VCD trace writer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import failure_interval, sample_size_for, wilson
from repro.core.classify import OutcomeCounts
from repro.errors import SimulationError
from repro.hdl import NetlistSim
from repro.hdl.vcd import VcdWriter, dump_run

from helpers import build_counter


class TestWilson:
    def test_known_value(self):
        # 8/10 at 95%: the Wilson interval is approximately [0.49, 0.94].
        interval = wilson(8, 10)
        assert interval.low == pytest.approx(0.49, abs=0.02)
        assert interval.high == pytest.approx(0.94, abs=0.02)

    def test_zero_successes_interval_starts_at_zero(self):
        interval = wilson(0, 20)
        assert interval.low == 0.0
        assert interval.high > 0.0

    def test_all_successes_interval_ends_at_one(self):
        interval = wilson(20, 20)
        assert interval.high == 1.0
        assert interval.low < 1.0

    def test_empty_trials(self):
        interval = wilson(0, 0)
        assert (interval.low, interval.high) == (0.0, 1.0)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            wilson(5, 3)

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=50)
    def test_interval_always_contains_point(self, successes, trials):
        if successes > trials:
            successes = trials
        interval = wilson(successes, trials)
        assert interval.low <= interval.point <= interval.high
        assert 0.0 <= interval.low <= interval.high <= 1.0

    @given(st.integers(min_value=1, max_value=19))
    @settings(max_examples=30)
    def test_interval_narrows_with_more_trials(self, successes):
        narrow = wilson(successes * 10, 20 * 10)
        wide = wilson(successes, 20)
        assert (narrow.high - narrow.low) < (wide.high - wide.low)

    def test_custom_confidence_via_quantile(self):
        tight = wilson(10, 40, confidence=0.80)
        loose = wilson(10, 40, confidence=0.99)
        assert (tight.high - tight.low) < (loose.high - loose.low)

    def test_render_and_overlap(self):
        a = wilson(5, 10)
        b = wilson(6, 10)
        assert a.overlaps(b)
        assert "%" in a.render()

    def test_failure_interval_from_counts(self):
        counts = OutcomeCounts(failure=3, latent=2, silent=5)
        interval = failure_interval(counts)
        assert interval.point == pytest.approx(0.3)

    def test_sample_size_paper_scale(self):
        # ~1.8-point margin needs ~3000 faults — the paper's choice.
        assert 2800 < sample_size_for(0.018) < 3100
        with pytest.raises(ValueError):
            sample_size_for(0.0)


class TestVcd:
    def _record(self, cycles=10):
        sim = NetlistSim(build_counter(4))
        sim.reset()
        return dump_run(sim, ["count", "tc"], cycles,
                        inputs={"en": 1})

    def test_header_and_vars(self):
        text = self._record().dumps()
        assert "$timescale 1 ns $end" in text
        assert "$var wire 4" in text
        assert "$var wire 1" in text
        assert "$enddefinitions $end" in text

    def test_values_change_over_time(self):
        text = self._record(6).dumps()
        # The 4-bit counter emits vector changes like "b0011 !".
        assert "#0" in text
        assert text.count("b") >= 5

    def test_only_changes_are_dumped(self):
        sim = NetlistSim(build_counter(4))
        sim.reset()
        writer = VcdWriter(["count"])
        for _ in range(5):
            sim.step({"en": 0})  # held: no change after first sample
            writer.sample(sim)
        text = writer.dumps()
        assert text.count("#") == 1  # single timestamp: the initial dump

    def test_unknown_signal_rejected(self):
        sim = NetlistSim(build_counter(4))
        sim.reset()
        writer = VcdWriter(["nonexistent"])
        sim.step()
        with pytest.raises(Exception):
            writer.sample(sim)

    def test_empty_signal_list_rejected(self):
        with pytest.raises(SimulationError):
            VcdWriter([])

    def test_file_roundtrip(self, tmp_path):
        writer = self._record(8)
        path = tmp_path / "trace.vcd"
        writer.write(str(path))
        assert path.read_text() == writer.dumps()
        assert len(writer) == 8

    def test_device_signals_supported(self):
        from repro.fpga import Device, implement
        from repro.synth import synthesize
        device = Device(implement(synthesize(build_counter(4)).mapped))
        device.reset_system()
        writer = VcdWriter(["count"])
        for _ in range(5):
            device.step({"en": 1})
            writer.sample(device)
        assert "b" in writer.dumps()

    def test_x_values_render(self):
        from repro.hdl import FourValuedSim
        sim = FourValuedSim(build_counter(4))
        sim.reset()
        sim.force("count", [2, 2, 0, 0])  # two X bits
        sim.step({"en": 0})
        writer = VcdWriter(["count"])
        writer.sample(sim)
        assert "x" in writer.dumps()
