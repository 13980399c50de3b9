"""Tests for the multiple-bit-flip (MBU) extension."""

import pytest

from repro.core import (Fault, FaultModel, Outcome, Target, TargetKind,
                        adjacent_memory_mbu, multi_ff_bitflip,
                        pulse_equivalent_mbu)
from repro.errors import InjectionError

from helpers import build_accumulator, build_counter
from test_core_injector import make_campaign


@pytest.fixture()
def campaign():
    return make_campaign(build_counter(4), inputs={"en": 1})


@pytest.fixture()
def accum():
    return make_campaign(build_accumulator(), inputs={"addr": 2, "load": 1})


class TestFaultBuilders:
    def test_multi_ff_builder(self):
        fault = multi_ff_bitflip([3, 1, 7], 10)
        assert fault.target.index == 3
        assert [t.index for t in fault.extra_targets] == [1, 7]
        assert len(fault.all_targets) == 3
        assert "+2 more" in fault.describe()

    def test_empty_mbu_rejected(self):
        with pytest.raises(InjectionError):
            multi_ff_bitflip([], 5)

    def test_adjacent_memory_builder(self):
        fault = adjacent_memory_mbu(0, addr=7, first_bit=2, width=3,
                                    start_cycle=4)
        bits = [t.bit for t in fault.all_targets]
        assert bits == [2, 3, 4]
        assert all(t.addr == 7 for t in fault.all_targets)

    def test_mixed_kinds_rejected(self, campaign):
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 3,
                      extra_targets=(Target(TargetKind.MEMORY_BIT, 0),))
        with pytest.raises(InjectionError):
            campaign.injector.prepare(fault)


class TestMultiFfInjection:
    def test_double_flip_flips_both(self, campaign):
        # Flipping bits 0 and 1 of the counter together adds/removes 3.
        golden = campaign.golden_run(20)
        fault = multi_ff_bitflip([0, 1], 6)
        result = campaign.run_experiment(fault, 20)
        divergence = result.first_divergence
        assert divergence is not None
        golden_value = golden.samples[divergence][0]
        # run_experiment samples outputs the cycle after the flip lands.
        assert result.outcome in (Outcome.FAILURE, Outcome.LATENT)

    def test_duplicate_targets_collapse_to_one_flip(self, campaign):
        # The MBU captures the pre-upset state once, so listing the same
        # cell twice still inverts it exactly once (an SEU cannot hit the
        # same cell twice); the outcome equals the single-flip outcome.
        double = campaign.run_experiment(multi_ff_bitflip([2, 2], 6), 20)
        single = campaign.run_experiment(multi_ff_bitflip([2], 6), 20)
        assert double.outcome == single.outcome
        assert double.first_divergence == single.first_divergence

    def test_state_reads_shared_per_column(self, campaign):
        placement = campaign.impl.placement
        # Find two FFs in the same column.
        by_col = {}
        for index, (_row, col) in placement.site_of_ff.items():
            by_col.setdefault(col, []).append(index)
        same_col = next((v for v in by_col.values() if len(v) >= 2), None)
        if same_col is None:
            pytest.skip("no column hosts two FFs in this placement")
        fault = multi_ff_bitflip(same_col[:2], 5)
        result = campaign.run_experiment(fault, 15)
        # 1 shared state read + 2 writes per FF = 5 transactions.
        assert result.cost.transactions == 5

    def test_mbu_cost_scales_with_multiplicity(self, campaign):
        single = campaign.run_experiment(multi_ff_bitflip([0], 5), 15)
        triple = campaign.run_experiment(multi_ff_bitflip([0, 1, 2], 5), 15)
        assert triple.cost.transactions > single.cost.transactions


class TestMemoryMbu:
    def test_adjacent_bits_single_rmw(self, accum):
        fault = adjacent_memory_mbu(0, addr=2, first_bit=0, width=3,
                                    start_cycle=1)
        result = accum.run_experiment(fault, 16)
        # One frame read + one frame write regardless of multiplicity.
        assert result.cost.transactions == 2
        assert result.outcome is Outcome.FAILURE

    def test_memory_mbu_flips_all_bits(self, accum):
        device = accum.device
        device.reset_system()
        before = device.mem_words(0)[2]
        fault = adjacent_memory_mbu(0, addr=2, first_bit=0, width=2,
                                    start_cycle=0)
        injection = accum.injector.prepare(fault)
        injection.inject()
        assert device.mem_words(0)[2] == before ^ 0b11
        accum._restore_configuration()

    def test_cross_block_mbu_rejected(self, accum):
        fault = Fault(
            FaultModel.BITFLIP,
            Target(TargetKind.MEMORY_BIT, 0, addr=0, bit=0), 1,
            extra_targets=(Target(TargetKind.MEMORY_BIT, 1, addr=0,
                                  bit=0),))
        with pytest.raises(InjectionError):
            accum.injector.prepare(fault)


class TestPulseEquivalence:
    def test_equivalent_mbu_reproduces_pulse_outcome(self, campaign):
        # Paper 7.2: a combinational pulse whose footprint is known can be
        # emulated by the corresponding multiple bit-flip.
        cycles = 24
        probe_cycle = 7
        matched = 0
        checked = 0
        luts = range(len(campaign.locmap.mapped.luts))
        for equivalent in pulse_equivalent_mbu(campaign, luts, probe_cycle):
            if equivalent.mbu is None:
                continue
            pulse = Fault(FaultModel.PULSE,
                          Target(TargetKind.LUT, equivalent.lut_index),
                          probe_cycle, duration_cycles=1.0)
            pulse_result = campaign.run_experiment(pulse, cycles)
            mbu_result = campaign.run_experiment(equivalent.mbu, cycles)
            checked += 1
            if pulse_result.outcome == mbu_result.outcome:
                matched += 1
        assert checked > 0
        assert matched == checked, (
            f"MBU equivalent diverged for {checked - matched}/{checked}")

    def test_footprint_can_be_multiple(self, campaign):
        luts = range(len(campaign.locmap.mapped.luts))
        widths = {len(equivalent.flipped_ffs)
                  for equivalent in pulse_equivalent_mbu(campaign, luts, 9)}
        assert max(widths) >= 1
