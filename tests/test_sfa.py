"""Tests for repro.sfa — static fault analysis.

Covers the structural graph, observability reasoning, the netlist lint
gate, equivalent faults, and — the part with teeth — the
campaign-pruning guarantee: a ``prune_silent`` campaign must produce a
report table identical to the unpruned run, with every statically
resolved fault provably Silent under the reference simulator.
"""

import json
from collections import Counter

import pytest

from repro.analysis import Evaluation
from repro.core import (Fault, FaultLoadSpec, FaultModel, Outcome, Target,
                        TargetKind, generate_faultload)
from repro.core.injector import delay_mechanism, stuck_lut_line
from repro.core.timing_model import ExperimentCost
from repro.errors import InjectionError, ReproError
from repro.hdl import Rtl
from repro.obs.metrics import REGISTRY
from repro.runtime import (CampaignJobSpec, JournalWriter, read_journal,
                           record_from_result, resume_campaign,
                           run_campaign)
from repro.sfa import (LintReport, ObservabilityAnalysis, StructuralGraph,
                       lint_bundled, lint_design)
from repro.synth import synthesize
from repro import designs

from test_core_injector import make_campaign


# ---------------------------------------------------------------------------
# structural graph
# ---------------------------------------------------------------------------
class TestStructuralGraph:
    def _counter_graph(self):
        mapped = synthesize(designs.counter(4)).mapped
        return mapped, StructuralGraph.from_design(mapped)

    def test_state_nets_are_level_zero(self):
        mapped, graph = self._counter_graph()
        levels = graph.levels()
        for ff in mapped.ffs:
            assert levels[ff.q] == 0
        for lut in mapped.luts:
            assert levels[lut.out] >= 1

    def test_counter_is_loop_free_and_clean(self):
        _mapped, graph = self._counter_graph()
        assert graph.combinational_loops() == []
        assert graph.dead_cells() == []
        assert graph.floating_inputs() == []

    def test_every_counter_ff_is_observable(self):
        # The count register drives the `value` output directly.
        mapped, graph = self._counter_graph()
        observable = graph.observable_nets()
        for ff in mapped.ffs:
            assert ff.q in observable

    def test_comb_loop_detected(self):
        graph = StructuralGraph(
            n_nets=4, cells=[(2, (3,)), (3, (2,))], ff_pairs=[],
            bram_port_nets=[], bram_rdata_nets=[],
            input_nets=set(), output_nets={2})
        loops = graph.combinational_loops()
        assert len(loops) == 1
        assert sorted(loops[0]) == [2, 3]


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
class TestObservability:
    def _analysis(self, inputs=None):
        mapped = synthesize(designs.counter(4)).mapped
        return mapped, ObservabilityAnalysis(mapped, assume_inputs=inputs)

    def test_tied_input_kills_entries(self):
        # With `en` assumed constant 1, the entries where the enable
        # line reads 0 become unreachable on the LUTs that sample it.
        mapped, free = self._analysis()
        _mapped, tied = self._analysis(inputs={"en": 1})
        assert any(tied.dead_entry_lines(i) != free.dead_entry_lines(i)
                   for i in range(len(mapped.luts)))


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------
class TestLint:
    def test_bundled_designs_have_no_errors(self):
        for report in lint_bundled(["counter", "fir", "uart"]):
            assert not report.fails("error"), report.render()

    def test_unknown_design_rejected(self):
        with pytest.raises(ReproError, match="unknown design"):
            lint_bundled(["no_such_design"])

    def test_invariant_violation_is_an_error(self):
        mapped = synthesize(designs.counter(4)).mapped
        mapped.ffs.append(mapped.ffs[0])  # duplicate driver
        report = lint_design(mapped, "broken")
        assert report.worst() == "error"
        assert report.findings[0].check == "invariants"

    def test_structural_warnings_and_infos(self):
        rtl = Rtl("linty")
        a = rtl.input("a", 1)
        b = rtl.input("b", 1)
        rtl.input("unused", 1)
        rtl.xor_(a, b)                    # dangling gate: dead logic
        rtl.output("o", rtl.and_(a, b))   # comb input-to-output path
        report = lint_design(rtl.build())
        checks = {finding.check for finding in report.findings}
        assert {"floating-input", "dead-logic",
                "unregistered-output"} <= checks
        assert report.worst() == "warning"
        assert report.fails("warning")
        assert not report.fails("error")

    def test_report_json_round_trip(self):
        report = lint_design(designs.counter(4), "counter")
        data = json.loads(report.to_json())
        assert data["design"] == "counter"
        assert set(data["counts"]) == {"info", "warning", "error"}

    def test_empty_report_never_fails(self):
        assert not LintReport(design="x").fails("info")


# ---------------------------------------------------------------------------
# prune plan on a small design
# ---------------------------------------------------------------------------
class TestPrunePlan:
    @pytest.fixture()
    def campaign(self):
        return make_campaign(designs.counter(4), inputs={"en": 1})

    def test_activation_window_rules(self):
        base = dict(model=FaultModel.PULSE,
                    target=Target(TargetKind.LUT, 0, line=-1),
                    start_cycle=4)
        assert Fault(duration_cycles=0.5, phase=0.1,
                     **base).activation_window == 0
        assert Fault(duration_cycles=0.5, phase=0.7,
                     **base).activation_window == 1
        assert Fault(duration_cycles=2.5, phase=0.2,
                     **base).activation_window == 2

    def test_window0_pulse_pruned(self, campaign):
        fault = Fault(FaultModel.PULSE, Target(TargetKind.LUT, 0, line=-1),
                      5, duration_cycles=0.3, phase=0.1)
        assert campaign.static_plan([fault], cycles=20) == {
            0: "window0-noop"}

    def test_sub_cycle_ff_indetermination_not_pruned_as_noop(self, campaign):
        # Asserting LSR forces the state even in a window-0 transient.
        fault = Fault(FaultModel.INDETERMINATION, Target(TargetKind.FF, 0),
                      5, duration_cycles=0.3, phase=0.1, value=1)
        plan = campaign.static_plan([fault], cycles=20)
        assert plan.get(0) != "window0-noop"

    def test_tiny_fanout_delay_absorbed_by_slack(self, campaign):
        net = campaign.locmap.mapped.ffs[0].q
        fault = Fault(FaultModel.DELAY, Target(TargetKind.NET, net), 5,
                      magnitude_ns=0.01, mechanism="fanout")
        plan = campaign.static_plan([fault], cycles=20)
        assert plan == {0: "delay-slack"}

    def test_planner_decides_delays_as_the_injector(self, campaign,
                                                    monkeypatch):
        # delay-slack prunes a fan-out delay by the loads the injector
        # would enable, so the planner must pick the injector's
        # mechanism and load count on both sides of the threshold.
        from repro.sfa import prune
        decided = []

        def spy(fault, params):
            decided.append(delay_mechanism(fault, params))
            return decided[-1]

        monkeypatch.setattr(prune, "delay_mechanism", spy)
        net = campaign.locmap.mapped.ffs[0].q
        t_load = campaign.impl.timing.params.t_load
        injected = []
        for loads in (1, 59.4, 60, 60.6, 300):
            fault = Fault(FaultModel.DELAY, Target(TargetKind.NET, net), 5,
                          duration_cycles=2.0, magnitude_ns=loads * t_load)
            plan = campaign.static_plan([fault], cycles=20)
            injection = campaign.injector.prepare(fault)
            if type(injection).__name__ == "_FanoutDelay":
                injected.append(("fanout", injection.loads))
            else:
                injected.append(("reroute", 0))
                assert plan.get(0) != "delay-slack"
        assert decided == injected
        assert injected == [("fanout", 1), ("fanout", 59), ("fanout", 60),
                            ("reroute", 0), ("reroute", 0)]

    def test_zero_cycle_runs_are_rejected(self, campaign):
        # A run of no cycles observes nothing (and the device and the
        # lane engine would disagree on a flip in it): the spec, the
        # planner and the golden run on either backend refuse it.
        with pytest.raises(InjectionError):
            FaultLoadSpec(model=FaultModel.BITFLIP, pool="ffs", count=4,
                          workload_cycles=0)
        spec = FaultLoadSpec(model=FaultModel.BITFLIP, pool="ffs",
                             count=4, workload_cycles=1)
        faults = generate_faultload(spec, campaign.locmap, seed=1)
        with pytest.raises(InjectionError):
            campaign.static_plan(faults, cycles=0)
        for backend in ("reference", "compiled"):
            built = make_campaign(designs.counter(4), inputs={"en": 1},
                                  backend=backend)
            with pytest.raises(InjectionError):
                built.run_faults(faults, 0)

    def test_plan_partitions_the_faultload(self, campaign):
        # The plan names each pruned fault's rule; the rest are
        # emulated.  The rule counter moves by the plan's verdicts.
        spec = FaultLoadSpec(model=FaultModel.INDETERMINATION, pool="luts",
                             count=16, duration_range=(0.1, 3.0),
                             workload_cycles=20)
        faults = generate_faultload(spec, campaign.locmap, seed=7)
        counter = REGISTRY.get("faults_pruned_total")
        before = counter.series()
        plan = campaign.static_plan(faults, cycles=20)
        assert set(plan) < set(range(len(faults)))
        rules = Counter(plan.values())
        assert set(rules) == {"window0-noop", "workload-silent"}
        moved = {dict(key)["rule"]: value - before.get(key, 0)
                 for key, value in counter.series().items()
                 if value != before.get(key, 0)}
        assert moved == rules

    def test_randomness_guard(self, campaign, monkeypatch):
        # Only an indetermination that draws its level (unvalued) or
        # re-draws it every cycle (oscillating) needs the injector's
        # randomiser; a bit-flip or a pulse drawn with --oscillate is
        # still lane-judged.
        from repro import emu
        passes = []
        run_lanes = emu.run_lanes

        def spy(design, lanes, *args, **kwargs):
            passes.append(lanes)
            return run_lanes(design, lanes, *args, **kwargs)

        monkeypatch.setattr(emu, "run_lanes", spy)
        lut = Target(TargetKind.LUT, 0, line=-1)
        ff = Target(TargetKind.FF, 0)
        judged = [
            Fault(FaultModel.BITFLIP, ff, 5, oscillate=True),
            Fault(FaultModel.PULSE, lut, 5, duration_cycles=3.0,
                  oscillate=True),
            Fault(FaultModel.PULSE, Target(TargetKind.CB_INPUT, 0), 5,
                  duration_cycles=3.0, oscillate=True),
            Fault(FaultModel.INDETERMINATION, ff, 5, value=1,
                  duration_cycles=3.0),
            Fault(FaultModel.INDETERMINATION, lut, 5, value=0,
                  duration_cycles=3.0),
        ]
        drawing = [
            Fault(FaultModel.INDETERMINATION, ff, 5, duration_cycles=3.0),
            Fault(FaultModel.INDETERMINATION, lut, 5, duration_cycles=3.0),
            Fault(FaultModel.INDETERMINATION, ff, 5, value=1,
                  duration_cycles=3.0, oscillate=True),
            Fault(FaultModel.INDETERMINATION, lut, 5, value=1,
                  duration_cycles=3.0, oscillate=True),
        ]
        for fault in judged + drawing:
            passes.clear()
            campaign.static_plan([fault], cycles=20)
            assert passes == ([2] if fault in judged else []), fault

    def test_dead_entry_rewrite_is_workload_silent(self):
        # A LUT rewrite that only changes truth-table entries the tied
        # inputs make unreachable can never change the LUT's output.
        inputs = {"sample": 5, "valid": 1}
        campaign = make_campaign(designs.fir_filter(), inputs=inputs)
        mapped = campaign.locmap.mapped
        analysis = ObservabilityAnalysis(mapped, assume_inputs=inputs)
        faults = []
        for index, lut in enumerate(mapped.luts):
            golden = lut.padded_tt()
            dead = sum(1 << entry
                       for entry in analysis.dead_entry_lines(index))
            for line in range(len(lut.ins)):
                for value in (0, 1):
                    changed = stuck_lut_line(golden, line, value) ^ golden
                    # Unused inputs are tied to 0, so an entry past the
                    # LUT's arity is never read.
                    read = changed & ((1 << (1 << len(lut.ins))) - 1)
                    if changed and not read & ~dead:
                        faults.append(Fault(
                            FaultModel.INDETERMINATION,
                            Target(TargetKind.LUT, index, line=line), 7,
                            duration_cycles=6.0, value=value))
        assert faults
        plan = campaign.static_plan(faults, cycles=40)
        assert plan == dict.fromkeys(range(len(faults)), "workload-silent")
        emulated = make_campaign(designs.fir_filter(), inputs=inputs)
        assert all(result.outcome is Outcome.SILENT
                   for result in emulated.run_batch(faults, 40))


# ---------------------------------------------------------------------------
# the pruning guarantee: identical report tables on bundled designs
# ---------------------------------------------------------------------------
class TestPruneSilentIdenticalTables:
    DESIGNS = [
        ("counter", lambda: designs.counter(4), {"en": 1}),
        ("fir", lambda: designs.fir_filter(), {"sample": 5, "valid": 1}),
        ("uart", lambda: designs.uart_tx(), {"data": 0x5A, "send": 1}),
    ]
    SPECS = [
        FaultLoadSpec(model=FaultModel.BITFLIP, pool="ffs", count=10,
                      workload_cycles=40),
        FaultLoadSpec(model=FaultModel.PULSE, pool="luts", count=10,
                      duration_range=(0.1, 0.9), workload_cycles=40),
        # Draws injector randomness every cycle: pruning must skip such
        # faults without shifting any other experiment's draws.
        FaultLoadSpec(model=FaultModel.INDETERMINATION, pool="ffs",
                      count=10, duration_range=(2.0, 8.0),
                      workload_cycles=40, oscillate=True),
    ]

    @pytest.mark.parametrize("name,builder,inputs", DESIGNS,
                             ids=[d[0] for d in DESIGNS])
    def test_tables_identical(self, name, builder, inputs):
        netlist = builder()
        baseline = make_campaign(netlist, inputs=inputs)
        pruned = make_campaign(netlist, inputs=inputs)
        resolved = 0
        for spec in self.SPECS:
            ref = baseline.run(spec, seed=2006)
            opt = run_campaign(
                CampaignJobSpec(spec=spec, faultload_seed=2006,
                                prune_silent=True),
                campaign=pruned)
            assert [e.outcome for e in opt.experiments] \
                == [e.outcome for e in ref.experiments]
            resolved += opt.pruned_count()
            for experiment in opt.experiments:
                if experiment.pruned:
                    assert experiment.outcome is Outcome.SILENT
                    assert experiment.cost.transactions == 0
        assert resolved > 0, f"{name}: nothing statically resolved"


# ---------------------------------------------------------------------------
# acceptance: mc8051 bit-flip campaign, >= 10% statically resolved
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def evaluation():
    return Evaluation()


@pytest.fixture(scope="module")
def bitflip_spec(evaluation):
    return evaluation.spec(FaultModel.BITFLIP, "ffs", 1, count=12)


@pytest.fixture(scope="module")
def bitflip_runs(evaluation, bitflip_spec):
    baseline = evaluation.run(bitflip_spec)
    pruned = Evaluation(prune_silent=True).run(bitflip_spec)
    return baseline, pruned


@pytest.fixture(scope="module")
def memory_runs(evaluation):
    spec = evaluation.spec(FaultModel.BITFLIP, "memory:iram", 1, count=24)
    baseline = evaluation.run(spec)
    pruned = Evaluation(prune_silent=True).run(spec)
    return baseline, pruned


@pytest.fixture(scope="module")
def pruning_evaluation():
    return Evaluation(prune_silent=True)


LANE_JUDGED_CLASSES = [
    (FaultModel.PULSE, "luts"),
    (FaultModel.INDETERMINATION, "ffs"),
    (FaultModel.INDETERMINATION, "luts"),
]


class TestMc8051Acceptance:
    def test_prunes_at_least_ten_percent(self, bitflip_runs):
        _baseline, pruned = bitflip_runs
        total = len(pruned.experiments)
        assert pruned.pruned_count() >= max(1, total // 10)

    def test_zero_classification_differences(self, bitflip_runs):
        baseline, pruned = bitflip_runs
        assert [e.outcome for e in pruned.experiments] \
            == [e.outcome for e in baseline.experiments]

    def test_every_pruned_fault_is_silent_under_reference(self, bitflip_runs):
        baseline, pruned = bitflip_runs
        flagged = [index for index, e in enumerate(pruned.experiments)
                   if e.pruned]
        assert flagged
        for index in flagged:
            assert baseline.experiments[index].outcome is Outcome.SILENT
            assert pruned.experiments[index].outcome is Outcome.SILENT

    def test_memory_flips_pruned_only_when_silent(self, memory_runs):
        # Memory bit-flips reach no cheap rule: every prune here is the
        # lane engine's workload-silent verdict.
        baseline, pruned = memory_runs
        flagged = [index for index, e in enumerate(pruned.experiments)
                   if e.pruned]
        assert flagged
        for index in flagged:
            assert baseline.experiments[index].outcome is Outcome.SILENT
        assert [e.outcome for e in pruned.experiments] \
            == [e.outcome for e in baseline.experiments]

    @pytest.mark.parametrize("model,pool", LANE_JUDGED_CLASSES,
                             ids=["pulse-luts", "indet-ffs", "indet-luts"])
    def test_lane_judged_classes_pruned_only_when_silent(
            self, evaluation, pruning_evaluation, model, pool):
        # LUT pulses and valued FF/LUT indeterminations reach the lane
        # engine's workload-silent verdict like bit-flips do.
        spec = evaluation.spec(model, pool, 1, count=24)
        baseline = evaluation.run(spec)
        pruned = pruning_evaluation.run(spec)
        flagged = [index for index, e in enumerate(pruned.experiments)
                   if e.pruned]
        assert flagged
        for index in flagged:
            assert baseline.experiments[index].outcome is Outcome.SILENT
        assert [e.outcome for e in pruned.experiments] \
            == [e.outcome for e in baseline.experiments]

    def test_emulation_time_counts_emulated_faults_only(self, bitflip_runs):
        _baseline, pruned = bitflip_runs
        for experiment in pruned.experiments:
            if experiment.pruned:
                assert experiment.cost.transactions == 0
        emulated = [e for e in pruned.experiments if not e.pruned]
        total = sum(e.cost.total_s for e in emulated)
        assert pruned.total_emulation_s == pytest.approx(total)


class TestWorkloadSilentFallback:
    def test_plan_without_a_compiled_design(self, evaluation, bitflip_spec,
                                            monkeypatch):
        # The workload-silent rule needs the lane engine; when the design
        # does not compile, planning still returns, those faults are
        # emulated, and every other rule's verdict stands.
        from repro import emu
        campaign = evaluation.fades
        cycles = bitflip_spec.workload_cycles
        faults = generate_faultload(
            evaluation.spec(FaultModel.BITFLIP, "ffs", 1, count=48),
            campaign.locmap, seed=2006,
            routed_nets=campaign.impl.routing.is_routed)
        faults.append(Fault(FaultModel.PULSE,
                            Target(TargetKind.LUT, 0, line=-1), 5,
                            duration_cycles=0.3, phase=0.1))
        full = campaign.static_plan(faults, cycles)
        assert "workload-silent" in full.values()
        assert full[len(faults) - 1] == "window0-noop"

        def broken(mapped):
            raise RuntimeError("compiler defect")

        monkeypatch.setattr(emu, "compile_design", broken)
        degraded = campaign.static_plan(faults, cycles)
        assert degraded == {index: rule for index, rule in full.items()
                            if rule != "workload-silent"}


# ---------------------------------------------------------------------------
# equivalent faults: each planned and emulated on its own
# ---------------------------------------------------------------------------
class TestEquivalentFaults:
    @staticmethod
    def _duplicates(campaign):
        """Pairs of equivalent 8051 faults, flattened: an FF flipped at
        one cycle through LSR and through GSR, with different durations,
        and one ``memory:iram`` bit flipped twice at one cycle."""
        pairs = []
        for ff, cycle in ((0, 60), (9, 60), (13, 60), (13, 300)):
            target = Target(TargetKind.FF, ff)
            pairs.append((Fault(FaultModel.BITFLIP, target, cycle,
                                duration_cycles=1.0, mechanism="lsr"),
                          Fault(FaultModel.BITFLIP, target, cycle,
                                duration_cycles=7.5, mechanism="gsr")))
        iram = campaign.locmap.memory("iram")
        for addr, bit in ((4, 0), (0x30, 0), (0x10, 3)):
            flip = Fault(FaultModel.BITFLIP,
                         Target(TargetKind.MEMORY_BIT, iram, addr=addr,
                                bit=bit), 60)
            pairs.append((flip, flip))
        return [fault for pair in pairs for fault in pair]

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_duplicates_share_verdict_outcome_and_divergence(self, backend):
        evaluation = Evaluation(backend=backend)
        campaign, cycles = evaluation.fades, evaluation.cycles
        faults = self._duplicates(campaign)
        pruned = campaign.static_plan(faults, cycles)
        results = campaign.run_faults(faults, cycles).experiments
        verdicts = [(index in pruned, result.outcome,
                     result.first_divergence)
                    for index, result in enumerate(results)]
        assert verdicts[0::2] == verdicts[1::2]
        # The pairs cover a pruned fault and every emulated outcome.
        assert {verdict[:2] for verdict in verdicts} == {
            (True, Outcome.SILENT), (False, Outcome.FAILURE),
            (False, Outcome.LATENT)}


# ---------------------------------------------------------------------------
# engine + journal integration
# ---------------------------------------------------------------------------
class TestEngineJournalMarkers:
    def test_markers_survive_journal_and_resume(self, tmp_path, evaluation,
                                                bitflip_spec):
        jobspec = CampaignJobSpec.from_evaluation(
            Evaluation(prune_silent=True), bitflip_spec)
        journal = str(tmp_path / "sfa.jsonl")
        result = run_campaign(jobspec, journal=journal)
        assert result.pruned_count() >= 1

        with open(journal, "r", encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle]
        records = [e for e in entries if e.get("type") == "record"]
        flagged = [r for r in records if r.get("pruned")]
        assert len(flagged) == result.pruned_count()
        for record in flagged:
            assert record["outcome"] == "silent"
            assert record["cost"]["transactions"] == 0

        resumed = resume_campaign(journal)
        assert [e.outcome for e in resumed.experiments] \
            == [e.outcome for e in result.experiments]
        assert resumed.pruned_count() == result.pruned_count()

    def test_collapsed_records_are_emulated_on_resume(self, tmp_path,
                                                      bitflip_runs,
                                                      bitflip_spec):
        # Older versions journaled an equivalent fault's outcome at zero
        # cost under ``collapsed_from``.  Reading leaves such a record
        # out, so a resume emulates its index.
        _baseline, uninterrupted = bitflip_runs
        normal, copied = [index for index, experiment
                          in enumerate(uninterrupted.experiments)
                          if not experiment.pruned][:2]
        source = uninterrupted.experiments[normal]
        journal = str(tmp_path / "older.jsonl")
        with JournalWriter(journal, CampaignJobSpec.from_evaluation(
                Evaluation(prune_silent=True), bitflip_spec)) as writer:
            writer.append_record(record_from_result(normal, source))
            writer.append_record({
                "index": copied, "outcome": source.outcome.value,
                "first_divergence": source.first_divergence,
                "cost": ExperimentCost().to_record(),
                "collapsed_from": normal})
        assert set(read_journal(journal).records) == {normal}

        resumed = resume_campaign(journal)
        assert resumed.experiments[copied].cost.total_s > 0
        assert resumed.counts().as_dict() == \
            uninterrupted.counts().as_dict()
        assert [e.outcome for e in resumed.experiments] \
            == [e.outcome for e in uninterrupted.experiments]
        assert resumed.emulated_count() == uninterrupted.emulated_count()

    def test_engine_agrees_with_serial_path(self, bitflip_runs, evaluation,
                                            bitflip_spec):
        _baseline, serial = bitflip_runs
        jobspec = CampaignJobSpec.from_evaluation(
            Evaluation(prune_silent=True), bitflip_spec)
        engine = run_campaign(jobspec)
        assert [e.outcome for e in engine.experiments] \
            == [e.outcome for e in serial.experiments]

    def test_jobspec_serialisation_compatibility(self, evaluation,
                                                 bitflip_spec):
        plain = CampaignJobSpec.from_evaluation(evaluation, bitflip_spec)
        assert not CampaignJobSpec.from_dict(plain.to_dict()).prune_silent
        pruning = CampaignJobSpec.from_evaluation(
            Evaluation(prune_silent=True), bitflip_spec)
        assert pruning.to_dict()["prune_silent"] is True
        assert CampaignJobSpec.from_dict(pruning.to_dict()).prune_silent

    def test_journal_reader_accepts_marker_records(self, tmp_path, evaluation,
                                                   bitflip_spec):
        jobspec = CampaignJobSpec.from_evaluation(
            Evaluation(prune_silent=True), bitflip_spec)
        journal = str(tmp_path / "sfa2.jsonl")
        run_campaign(jobspec, journal=journal)
        state = read_journal(journal)
        assert len(state.records) == bitflip_spec.count
