"""Tests for the RTR injection mechanisms (FADES core, paper section 4).

Each mechanism is checked for three things on a small predictable design:
its behavioural effect, its transaction footprint on the board, and exact
configuration restoration afterwards.
"""

import pytest

from repro.core import (Fault, FaultModel, Target, TargetKind,
                        invert_lut_line, stuck_lut_line)
from repro.core.campaign import FadesCampaign
from repro.errors import LocationError
from repro.fpga import Board, implement
from repro.synth import synthesize

from helpers import build_accumulator, build_counter


def make_campaign(netlist, inputs=None, arch=None, **kwargs):
    result = synthesize(netlist)
    impl = implement(result.mapped, arch=arch)
    return FadesCampaign(impl, result.locmap, board=Board(),
                         inputs=inputs or {}, **kwargs)


@pytest.fixture()
def counter_campaign():
    return make_campaign(build_counter(4), inputs={"en": 1})


@pytest.fixture(scope="module")
def paper_counter_campaign():
    # Full-download cost assertions need the paper-class device, whose
    # configuration file is ~750 KiB (a demo device's is a few KiB).
    from repro.fpga import virtex1000_like
    return make_campaign(build_counter(4), inputs={"en": 1},
                         arch=virtex1000_like())


@pytest.fixture()
def accum_campaign():
    return make_campaign(build_accumulator(),
                         inputs={"addr": 2, "load": 1})


class TestLutRewriteHelpers:
    def test_output_inversion(self):
        assert invert_lut_line(0x00FF, -1) == 0xFF00

    def test_input_inversion_swaps_cofactors(self):
        # f = input0: inverting input 0 complements the function.
        tt_i0 = 0b1010101010101010
        assert invert_lut_line(tt_i0, 0) == 0b0101010101010101

    def test_input_inversion_is_involution(self):
        tt = 0xBEEF
        for line in range(4):
            assert invert_lut_line(invert_lut_line(tt, line), line) == tt

    def test_stuck_line_output(self):
        assert stuck_lut_line(0x1234, -1, 0) == 0x0000
        assert stuck_lut_line(0x1234, -1, 1) == 0xFFFF

    def test_stuck_input_removes_dependence(self):
        tt = 0xBEEF
        stuck = stuck_lut_line(tt, 2, 1)
        # The stuck table must not depend on input 2 any more.
        for index in range(16):
            assert (stuck >> index) & 1 == (stuck >> (index ^ 4)) & 1


class TestBitflipFf:
    def test_lsr_flips_exactly_one_ff(self, counter_campaign):
        campaign = counter_campaign
        cycles = 12
        golden = campaign.golden_run(cycles)
        bit = campaign.locmap.signal("count").bits[2]  # weight-4 bit
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, bit.index),
                      start_cycle=5)
        result = campaign.run_experiment(fault, cycles)
        divergence = result.first_divergence
        assert divergence is not None
        golden_value = golden.samples[divergence][0]
        faulty_value = golden_value ^ 4
        # The counter continues from the flipped value.
        assert result.outcome.value in ("failure", "latent")

    def test_lsr_uses_three_transactions(self, counter_campaign):
        campaign = counter_campaign
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0),
                      start_cycle=3)
        result = campaign.run_experiment(fault, 10)
        assert result.cost.transactions == 3

    def test_gsr_flips_target_and_preserves_others(self, counter_campaign):
        campaign = counter_campaign
        cycles = 12
        golden = campaign.golden_run(cycles)
        bit = campaign.locmap.signal("count").bits[1]
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, bit.index),
                      start_cycle=6, mechanism="gsr")
        result = campaign.run_experiment(fault, cycles)
        assert result.first_divergence is not None
        # Only bit 1 flips: value differs by exactly +-2 at the divergence.
        index = result.first_divergence

    def test_gsr_transfers_far_more_than_lsr(self, paper_counter_campaign):
        campaign = paper_counter_campaign
        lsr = campaign.run_experiment(
            Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 3), 10)
        gsr = campaign.run_experiment(
            Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 3,
                  mechanism="gsr"), 10)
        assert gsr.cost.transfer_s > 5 * lsr.cost.transfer_s

    def test_config_restored_after_experiment(self, counter_campaign):
        campaign = counter_campaign
        campaign.run_experiment(
            Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 1), 4), 10)
        assert campaign.device.config.diff_frames(
            campaign.impl.golden_bitstream) == []

    def test_unplaced_ff_raises(self, counter_campaign):
        campaign = counter_campaign
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 999), 3)
        with pytest.raises(LocationError):
            campaign.injector.prepare(fault)


class TestBitflipMemory:
    def test_flip_changes_accumulation(self, accum_campaign):
        campaign = accum_campaign
        cycles = 16
        # mem[2] = 7; flipping bit 3 early changes the running sum.
        fault = Fault(FaultModel.BITFLIP,
                      Target(TargetKind.MEMORY_BIT, 0, addr=2, bit=3),
                      start_cycle=2)
        result = campaign.run_experiment(fault, cycles)
        assert result.outcome.value == "failure"

    def test_two_transactions(self, accum_campaign):
        fault = Fault(FaultModel.BITFLIP,
                      Target(TargetKind.MEMORY_BIT, 0, addr=9, bit=0),
                      start_cycle=2)
        result = accum_campaign.run_experiment(fault, 10)
        assert result.cost.transactions == 2

    def test_unused_location_is_latent(self, accum_campaign):
        # A flip in a never-read word only shows in the final state.
        fault = Fault(FaultModel.BITFLIP,
                      Target(TargetKind.MEMORY_BIT, 0, addr=15, bit=7),
                      start_cycle=2)
        result = accum_campaign.run_experiment(fault, 10)
        assert result.outcome.value == "latent"


class TestPulse:
    def test_lut_pulse_transient(self, counter_campaign):
        campaign = counter_campaign
        cycles = 16
        location = campaign.locmap.signal("tc")
        lut_bit = location.bits[0]
        assert lut_bit.kind == "lut"
        fault = Fault(FaultModel.PULSE,
                      Target(TargetKind.LUT, lut_bit.index),
                      start_cycle=4, duration_cycles=2.0)
        result = campaign.run_experiment(fault, cycles)
        # tc is purely combinational: inverted during the window only.
        golden = campaign.golden_run(cycles)
        assert result.outcome.value == "failure"
        assert result.first_divergence == 4

    def test_long_pulse_costs_double(self, counter_campaign):
        campaign = counter_campaign
        location = campaign.locmap.signal("tc")
        target = Target(TargetKind.LUT, location.bits[0].index)
        short = campaign.run_experiment(
            Fault(FaultModel.PULSE, target, 4, duration_cycles=0.5,
                  phase=0.1), 12)
        long = campaign.run_experiment(
            Fault(FaultModel.PULSE, target, 4, duration_cycles=3.0), 12)
        assert short.cost.transactions == 3
        assert long.cost.transactions == 6

    def test_non_straddling_subcycle_pulse_is_silent(self, counter_campaign):
        campaign = counter_campaign
        location = campaign.locmap.signal("tc")
        target = Target(TargetKind.LUT, location.bits[0].index)
        fault = Fault(FaultModel.PULSE, target, 4, duration_cycles=0.3,
                      phase=0.1)  # 0.1 + 0.3 < 1: no edge covered
        result = campaign.run_experiment(fault, 12)
        assert result.outcome.value == "silent"
        assert result.cost.transactions == 3  # cost paid regardless

    def test_lut_input_line_pulse(self, counter_campaign):
        campaign = counter_campaign
        location = campaign.locmap.signal("tc")
        index = location.bits[0].index
        lut = campaign.locmap.mapped.luts[index]
        fault = Fault(FaultModel.PULSE,
                      Target(TargetKind.LUT, index, line=0),
                      start_cycle=4, duration_cycles=1.0)
        result = campaign.run_experiment(fault, 12)
        assert campaign.device.config.diff_frames(
            campaign.impl.golden_bitstream) == []

    def test_cb_input_pulse_on_routed_ff(self):
        # Build a design with an unpacked FF: a register fed by another
        # register (no LUT between them).
        from repro.hdl import Rtl
        rtl = Rtl("pipe")
        a = rtl.input("a", 1)
        r1 = rtl.register("r1", 1)
        r2 = rtl.register("r2", 1)
        r1.drive(a)
        r2.drive(r1.q)
        rtl.output("o", r2.q)
        campaign = make_campaign(rtl.build(), inputs={"a": 1})
        # Find the unpacked FF.
        placement = campaign.impl.placement
        routed = [i for i, site in placement.site_of_ff.items()
                  if not placement.sites[site].packed]
        assert routed
        fault = Fault(FaultModel.PULSE,
                      Target(TargetKind.CB_INPUT, routed[0]),
                      start_cycle=3, duration_cycles=2.0)
        result = campaign.run_experiment(fault, 10)
        assert result.outcome.value in ("failure", "latent")
        assert result.cost.transactions == 2

    def test_cb_input_pulse_rejected_on_packed_ff(self, counter_campaign):
        campaign = counter_campaign
        placement = campaign.impl.placement
        packed = [i for i, site in placement.site_of_ff.items()
                  if placement.sites[site].packed]
        assert packed
        fault = Fault(FaultModel.PULSE,
                      Target(TargetKind.CB_INPUT, packed[0]),
                      start_cycle=3, duration_cycles=1.0)
        with pytest.raises(LocationError):
            campaign.injector.prepare(fault)


class TestDelay:
    def test_fanout_mechanism_small_magnitude(self, counter_campaign):
        campaign = counter_campaign
        net = campaign.locmap.mapped.ffs[0].q
        fault = Fault(FaultModel.DELAY, Target(TargetKind.NET, net),
                      start_cycle=4, duration_cycles=2.0, magnitude_ns=0.1)
        injection = campaign.injector.prepare(fault)
        assert type(injection).__name__ == "_FanoutDelay"
        result = campaign.run_experiment(fault, 12)
        # 0.1 ns cannot break a multi-ns slack.
        assert result.outcome.value == "silent"

    def test_reroute_mechanism_large_magnitude(self, counter_campaign):
        campaign = counter_campaign
        period = campaign.impl.timing.period
        net = campaign.locmap.mapped.ffs[0].q
        fault = Fault(FaultModel.DELAY, Target(TargetKind.NET, net),
                      start_cycle=4, duration_cycles=3.0,
                      magnitude_ns=period + 10)
        injection = campaign.injector.prepare(fault)
        assert type(injection).__name__ == "_RerouteDelay"
        result = campaign.run_experiment(fault, 16)
        assert result.outcome.value in ("failure", "latent")

    def test_delay_removed_after_window(self, counter_campaign):
        campaign = counter_campaign
        net = campaign.locmap.mapped.ffs[0].q
        period = campaign.impl.timing.period
        fault = Fault(FaultModel.DELAY, Target(TargetKind.NET, net),
                      start_cycle=4, duration_cycles=2.0,
                      magnitude_ns=period + 10)
        campaign.run_experiment(fault, 16)
        assert campaign.impl.timing.violating_ffs() == set()
        assert campaign.impl.routing.route_of(net).detour_hops == 0
        assert campaign.device.config.diff_frames(
            campaign.impl.golden_bitstream) == []

    def test_full_download_dominates_cost(self, paper_counter_campaign):
        campaign = paper_counter_campaign
        net = campaign.locmap.mapped.ffs[0].q
        fault = Fault(FaultModel.DELAY, Target(TargetKind.NET, net),
                      start_cycle=4, duration_cycles=2.0, magnitude_ns=50.0)
        result = campaign.run_experiment(fault, 12)
        bitflip = campaign.run_experiment(
            Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 4), 12)
        assert result.cost.transfer_s > 2 * bitflip.cost.transfer_s


class TestIndetermination:
    def test_ff_forced_to_random_value_during_window(self, counter_campaign):
        campaign = counter_campaign
        fault = Fault(FaultModel.INDETERMINATION, Target(TargetKind.FF, 0),
                      start_cycle=4, duration_cycles=4.0, value=1)
        result = campaign.run_experiment(fault, 14)
        assert campaign.device.config.diff_frames(
            campaign.impl.golden_bitstream) == []

    def test_oscillating_costs_scale_with_duration(self, counter_campaign):
        campaign = counter_campaign
        fixed = campaign.run_experiment(
            Fault(FaultModel.INDETERMINATION, Target(TargetKind.FF, 0),
                  2, duration_cycles=8.0, value=1), 14)
        oscillating = campaign.run_experiment(
            Fault(FaultModel.INDETERMINATION, Target(TargetKind.FF, 0),
                  2, duration_cycles=8.0, oscillate=True), 14)
        assert oscillating.cost.transactions > fixed.cost.transactions + 4

    def test_lut_indetermination_forces_constant(self, counter_campaign):
        campaign = counter_campaign
        location = campaign.locmap.signal("tc")
        fault = Fault(FaultModel.INDETERMINATION,
                      Target(TargetKind.LUT, location.bits[0].index),
                      start_cycle=3, duration_cycles=3.0, value=1)
        result = campaign.run_experiment(fault, 12)
        # tc forced to 1 during the window while golden has 0 -> failure.
        assert result.outcome.value == "failure"
        assert result.first_divergence == 3
