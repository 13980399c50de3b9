"""Tests for the VFIT baseline: commands, campaigns, cost model."""

import pytest

from repro.core import FaultLoadSpec, FaultModel
from repro.core.faults import Fault, Target, TargetKind
from repro.errors import InjectionError, UnsupportedFaultError
from repro.hdl import FourValuedSim
from repro.vfit import (VfitCampaign, VfitCommands, VfitTimeModel,
                        vfit_faultload, vfit_pool_targets)

from helpers import build_accumulator, build_counter


@pytest.fixture()
def counter_sim():
    return FourValuedSim(build_counter(4))


@pytest.fixture()
def counter_campaign():
    return VfitCampaign(build_counter(4), inputs={"en": 1})


class TestCommands:
    def test_bitflip_ff(self, counter_sim):
        sim = counter_sim
        sim.reset()
        sim.run(5, {"en": 1})
        commands = VfitCommands(sim)
        before = sim.ff_state()[0]
        commands.inject(Fault(FaultModel.BITFLIP,
                              Target(TargetKind.FF, 0), 0))
        assert sim.ff_state()[0] == before ^ 1
        assert commands.commands_issued == 1

    def test_bitflip_memory(self):
        netlist = build_accumulator()
        sim = FourValuedSim(netlist)
        sim.reset()
        commands = VfitCommands(sim)
        commands.inject(Fault(
            FaultModel.BITFLIP,
            Target(TargetKind.MEMORY_BIT, 0, addr=3, bit=1), 0))
        # scratch[3] = 3*3+1 = 10; flipping bit 1 gives 8.
        assert sim.mem_state("scratch")[3] == 8

    def test_pulse_inverts_net_until_removed(self, counter_sim):
        sim = counter_sim
        sim.reset()
        tc_net = sim.netlist.names["tc"][0]
        commands = VfitCommands(sim)
        fault = Fault(FaultModel.PULSE, Target(TargetKind.NET, tc_net), 0,
                      duration_cycles=2)
        commands.inject(fault)
        assert sim.step({"en": 0})["tc"] == 1  # golden tc is 0 at count 0
        commands.remove(fault)
        assert sim.step()["tc"] == 0

    def test_indetermination_forces_x(self, counter_sim):
        sim = counter_sim
        sim.reset()
        commands = VfitCommands(sim)
        fault = Fault(FaultModel.INDETERMINATION,
                      Target(TargetKind.FF, 0), 0, duration_cycles=3)
        commands.inject(fault)
        sim.step({"en": 1})
        assert sim.peek("value") is None  # X visible on the output
        commands.remove(fault)

    def test_delay_unsupported(self, counter_sim):
        commands = VfitCommands(counter_sim)
        with pytest.raises(UnsupportedFaultError):
            commands.inject(Fault(FaultModel.DELAY,
                                  Target(TargetKind.NET, 5), 0))

    def test_ff_index_of_resolves_registers(self, counter_sim):
        commands = VfitCommands(counter_sim)
        index = commands.ff_index_of("count", 2)
        dff = counter_sim.netlist.dffs[index]
        assert dff.q == counter_sim.netlist.names["count"][2]

    def test_ff_index_of_rejects_comb_signal(self, counter_sim):
        commands = VfitCommands(counter_sim)
        with pytest.raises(InjectionError):
            commands.ff_index_of("tc", 0)


class TestPools:
    def test_ff_pool(self):
        netlist = build_counter(4)
        targets = vfit_pool_targets(netlist, "ffs")
        assert len(targets) == 4

    def test_memory_pool_with_range(self):
        netlist = build_accumulator()
        targets = vfit_pool_targets(netlist, "memory:scratch",
                                    mem_addr_range=(0, 2))
        assert len(targets) == 2 * 8

    def test_comb_pool_by_unit(self):
        from helpers import build_alu4
        netlist = build_alu4()
        targets = vfit_pool_targets(netlist, "comb:ALU")
        assert targets
        assert len(targets) == len(netlist.gates)

    def test_unknown_pool(self):
        with pytest.raises(InjectionError):
            vfit_pool_targets(build_counter(), "wires")

    def test_faultload_translates_lut_pools(self):
        from helpers import build_alu4
        netlist = build_alu4()
        spec = FaultLoadSpec(FaultModel.PULSE, "luts:ALU", count=5,
                             workload_cycles=10)
        faults = vfit_faultload(spec, netlist, seed=1)
        assert len(faults) == 5
        assert all(f.target.kind is TargetKind.NET for f in faults)


class TestCampaign:
    def test_bitflip_campaign_runs(self, counter_campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=8,
                             workload_cycles=30)
        result = counter_campaign.run(spec, seed=2)
        assert result.counts().total == 8
        assert result.failure_percent() > 0

    def test_seedless_runs_draw_the_same_faults(self, counter_campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=6,
                             workload_cycles=25)
        first = counter_campaign.run(spec)
        second = counter_campaign.run(spec)
        faults = [e.fault for e in first.experiments]
        assert faults == [e.fault for e in second.experiments]
        assert faults == vfit_faultload(spec, counter_campaign.netlist,
                                        seed=counter_campaign.seed)

    def test_experiment_leaves_no_residual_forces(self, counter_campaign):
        spec = FaultLoadSpec(FaultModel.INDETERMINATION, "ffs", count=5,
                             workload_cycles=25, duration_range=(1, 5))
        counter_campaign.run(spec, seed=3)
        assert counter_campaign.sim._forced == {}
        assert counter_campaign.sim._inverted == set()

    def test_golden_run_unaffected_by_experiments(self, counter_campaign):
        golden = counter_campaign.golden_run(25)
        spec = FaultLoadSpec(FaultModel.PULSE, "luts", count=5,
                             workload_cycles=25)
        counter_campaign.run(spec, seed=4)
        counter_campaign._golden.clear()
        assert counter_campaign.golden_run(25).samples == golden.samples

    def test_delay_campaign_raises(self, counter_campaign, monkeypatch):
        import repro.vfit.tool
        drawn = []

        def draw(*_args, **_kwargs):
            drawn.append(True)
            return []

        def simulate(*_args):
            raise AssertionError("a delay campaign simulated a cycle")

        monkeypatch.setattr(counter_campaign.sim, "step", simulate)
        monkeypatch.setattr(repro.vfit.tool, "vfit_faultload", draw)
        spec = FaultLoadSpec(FaultModel.DELAY, "nets:seq", count=2,
                             workload_cycles=20)
        with pytest.raises(UnsupportedFaultError,
                           match="no generic delay clauses"):
            counter_campaign.run(spec, seed=1)
        # Decided from the fault model: nothing drawn or simulated.
        assert drawn == []
        assert counter_campaign._golden == {}


class TestTimeModel:
    def test_cost_scales_with_cycles_and_elements(self):
        small = VfitTimeModel(elements=100)
        big = VfitTimeModel(elements=10_000)
        assert big.cost(500).simulate_s > small.cost(500).simulate_s
        assert small.cost(5000).simulate_s > small.cost(500).simulate_s

    def test_paper_scale_calibration(self):
        # 1303 cycles on a ~6000-element model must land near the paper's
        # 7.2 s per experiment.
        model = VfitTimeModel(elements=6000)
        cost = model.cost(1303)
        assert cost.total_s == pytest.approx(7.2, rel=0.1)

    def test_projection(self):
        # Paper scale: 3000 faults of 1303 cycles took 21600 s.
        model = VfitTimeModel(elements=6000)
        assert model.cost(1303).total_s * 3000 == \
            pytest.approx(21600, rel=0.12)

    def test_times_insensitive_to_fault_model(self, counter_campaign):
        # Paper: VFIT has "very similar execution times for any type and
        # length of the studied fault models".
        means = []
        for model, pool in [(FaultModel.BITFLIP, "ffs"),
                            (FaultModel.PULSE, "luts"),
                            (FaultModel.INDETERMINATION, "ffs")]:
            spec = FaultLoadSpec(model, pool, count=4, workload_cycles=30)
            means.append(counter_campaign.run(spec, seed=5)
                         .mean_emulation_s)
        assert max(means) == pytest.approx(min(means), rel=1e-6)
