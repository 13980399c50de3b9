"""Tests for the statistical campaign planner (:mod:`repro.faultload`).

Covers the three planner pillars — the stratified sampler, the
sequential stopping controller, and the engine's incremental dispatch —
plus the fixed-budget contract: a campaign with none of the planner
knobs set must behave exactly like a plain fixed-count campaign.
"""

import json
import multiprocessing
from dataclasses import fields, replace

import pytest

from repro.analysis import Evaluation
from repro.analysis.stats import wilson, z_value
from repro.core import FaultModel, generate_faultload
from repro.core.classify import OutcomeCounts
from repro.core.config import FaultLoadSpec, candidate_targets
from repro.errors import JournalError
from repro.faultload import (FaultStream, SequentialController, Stratum,
                             StratifiedSampler, partition_strata,
                             plan_checkpoints, summarize_strata,
                             tally_prefix)
from repro.runtime import (CampaignJobSpec, CampaignMetrics, read_journal,
                           resume_campaign, run_campaign)

from helpers import build_counter
from test_core_injector import make_campaign

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def campaign():
    return make_campaign(build_counter(4), inputs={"en": 1})


@pytest.fixture(scope="module")
def spec():
    return FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=24,
                         workload_cycles=50)


# ---------------------------------------------------------------------------
# Check schedule
# ---------------------------------------------------------------------------
class TestCheckpoints:
    def test_schedule_ends_exactly_at_budget(self):
        points = plan_checkpoints(3000)
        assert points[-1] == 3000
        assert points[0] == 100
        assert points == sorted(set(points))

    def test_growth_is_geometric(self):
        points = plan_checkpoints(1000, initial=100, growth=1.5)
        assert points == [100, 150, 225, 337, 506, 759, 1000]

    def test_small_budget_is_a_single_look(self):
        assert plan_checkpoints(12) == [12]
        assert plan_checkpoints(100) == [100]
        assert plan_checkpoints(1) == [1]

    def test_budget_between_marks_is_appended(self):
        assert plan_checkpoints(120) == [100, 120]

    def test_slow_growth_still_terminates(self):
        points = plan_checkpoints(40, initial=1, growth=1.0)
        assert points[-1] == 40
        assert len(points) == 40  # falls back to +1 steps

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            plan_checkpoints(0)


class TestController:
    def test_validates_epsilon_and_confidence(self):
        with pytest.raises(ValueError):
            SequentialController(epsilon=0.0, budget=100)
        with pytest.raises(ValueError):
            SequentialController(epsilon=1.0, budget=100)
        with pytest.raises(ValueError):
            SequentialController(epsilon=0.1, budget=100, confidence=1.0)

    def test_bonferroni_decision_confidence(self):
        controller = SequentialController(epsilon=0.05, budget=1000,
                                          confidence=0.95)
        k = len(controller.checkpoints())
        assert controller.decision_confidence == \
            pytest.approx(1.0 - 0.05 / k)
        assert controller.decision_confidence > 0.95

    def test_converged_when_intervals_are_narrow(self):
        controller = SequentialController(epsilon=0.2, budget=1000)
        decision = controller.check(
            OutcomeCounts(failure=30, latent=35, silent=35), 100)
        assert decision.stop and decision.reason == "converged"
        assert decision.n == 100
        assert decision.half_width <= 0.2

    def test_budget_exhaustion_stops_with_wide_intervals(self):
        controller = SequentialController(epsilon=0.01, budget=100)
        decision = controller.check(
            OutcomeCounts(failure=30, latent=35, silent=35), 100)
        assert decision.stop and decision.reason == "budget"

    def test_keeps_sampling_otherwise(self):
        controller = SequentialController(epsilon=0.01, budget=1000)
        decision = controller.check(
            OutcomeCounts(failure=30, latent=35, silent=35), 100)
        assert not decision.stop and decision.reason == ""
        assert controller.checks == 1

    def test_reported_intervals_use_plain_confidence(self):
        controller = SequentialController(epsilon=0.2, budget=1000,
                                          confidence=0.95)
        decision = controller.check(
            OutcomeCounts(failure=30, latent=35, silent=35), 100)
        interval = wilson(30, 100, 0.95)
        assert decision.intervals["failure"][:2] == [30, 100]
        assert decision.intervals["failure"][2] == \
            pytest.approx(interval.low, abs=1e-6)
        assert decision.intervals["failure"][3] == \
            pytest.approx(interval.high, abs=1e-6)

    def test_to_dict_is_json_ready(self):
        controller = SequentialController(epsilon=0.2, budget=1000)
        decision = controller.check(
            OutcomeCounts(failure=30, latent=35, silent=35), 100)
        data = json.loads(json.dumps(decision.to_dict()))
        assert data["reason"] == "converged"
        assert set(data["intervals"]) == {"failure", "latent", "silent"}

    def test_tally_prefix_requires_a_complete_prefix(self):
        records = {0: {"outcome": "failure"}, 1: {"outcome": "silent"},
                   3: {"outcome": "latent"}}
        counts = tally_prefix(records, 2)
        assert (counts.failure, counts.latent, counts.silent) == (1, 0, 1)
        assert tally_prefix(records, 4) is None  # index 2 missing


class TestStoppingCoverage:
    """The stopping rule's coverage on seeded synthetic outcome streams:
    2,000 multinomial streams per (failure, latent, silent) profile, each
    checked at the controller's own checkpoints until it stops."""

    PROFILES = [(0.30, 0.20, 0.50), (0.05, 0.10, 0.85),
                (1 / 3, 1 / 3, 1 / 3)]
    STREAMS = 2000

    @pytest.fixture(scope="class")
    def stops(self):
        numpy = pytest.importorskip("numpy")
        rng = numpy.random.default_rng(2006)
        checkpoints = SequentialController(
            epsilon=0.05, budget=3000).checkpoints()
        stretches = numpy.diff([0] + checkpoints)
        stops = []
        for rates in self.PROFILES:
            # A stream's tally at each checkpoint: the sum of one
            # multinomial draw per stretch between checkpoints.
            tallies = rng.multinomial(
                stretches, rates,
                size=(self.STREAMS, len(stretches))).cumsum(axis=1)
            for stream in tallies:
                controller = SequentialController(epsilon=0.05, budget=3000)
                for n, (failure, latent, silent) in zip(checkpoints,
                                                        stream.tolist()):
                    counts = OutcomeCounts(failure=failure, latent=latent,
                                           silent=silent)
                    decision = controller.check(counts, n)
                    if decision.stop:
                        break
                stops.append((rates, controller, counts, decision))
        return stops

    def _share(self, stops, rates, covered):
        hits = [covered(*stop) for stop in stops if stop[0] == rates]
        assert len(hits) == self.STREAMS
        return sum(hits) / len(hits)

    @pytest.mark.parametrize("rates", PROFILES)
    def test_decision_intervals_cover_every_rate_together(self, stops,
                                                          rates):
        # The union bound's promise: at the stop, the decision-confidence
        # intervals hold all three true rates at once in 95% of streams.
        def covered(rates, controller, counts, _decision):
            tally = (counts.failure, counts.latent, counts.silent)
            return all(
                interval.low <= rate <= interval.high
                for rate, interval in zip(rates, (
                    wilson(hits, counts.total,
                           controller.decision_confidence)
                    for hits in tally)))

        assert self._share(stops, rates, covered) >= 0.95

    @pytest.mark.parametrize("rates", PROFILES)
    @pytest.mark.parametrize("outcome", ["failure", "latent", "silent"])
    def test_reported_intervals_cover_their_own_rate(self, stops, rates,
                                                      outcome):
        position = ("failure", "latent", "silent").index(outcome)

        def covered(rates, _controller, _counts, decision):
            _hits, _trials, low, high = decision.intervals[outcome]
            return low <= rates[position] <= high

        assert self._share(stops, rates, covered) >= 0.92


# ---------------------------------------------------------------------------
# Strata and samplers
# ---------------------------------------------------------------------------
class TestStrata:
    def test_partition_covers_the_pool_exactly(self, campaign, spec):
        strata = partition_strata(spec, campaign.locmap)
        members = [t for s in strata for t in s.targets]
        assert set(members) == set(candidate_targets(spec, campaign.locmap))
        assert len(set(members)) == len(members)
        for stratum in strata:
            model, kind, _group = stratum.key.split("/")
            assert model == "bitflip" and kind == "ff"
            assert stratum.weight == len(stratum.targets)

    def test_uniform_stream_matches_generate_faultload(self, campaign,
                                                       spec):
        stream = FaultStream(spec, campaign.locmap, seed=5)
        stream.ensure(24)
        assert stream.faults == generate_faultload(spec, campaign.locmap,
                                                   seed=5)
        # Extending the stream never rewrites what was already issued.
        prefix = list(stream.faults[:10])
        stream.ensure(40)
        assert stream.faults[:10] == prefix

    def test_stratified_stream_is_seed_deterministic(self, campaign,
                                                     spec):
        first = FaultStream(spec, campaign.locmap, seed=5,
                            strategy="stratified")
        second = FaultStream(spec, campaign.locmap, seed=5,
                             strategy="stratified")
        assert first.ensure(30) == second.ensure(30)
        assert first.tags == second.tags
        other = FaultStream(spec, campaign.locmap, seed=6,
                            strategy="stratified")
        assert other.ensure(30) != first.faults

    def test_allocation_tracks_weights_within_one_draw(self, spec):
        targets = candidate_targets(
            spec, make_campaign(build_counter(4), inputs={"en": 1}).locmap)
        strata = [Stratum("a", tuple(targets), 3.0),
                  Stratum("b", tuple(targets), 1.0)]
        sampler = StratifiedSampler(spec, strata, seed=0)
        tags = [next(sampler)[1] for _ in range(40)]
        for n in range(1, 41):
            drawn = tags[:n].count("a")
            assert abs(drawn - 0.75 * n) <= 1.0

    def test_importance_strategy_samples_heavy_cones_more(self, campaign,
                                                          spec):
        stream = FaultStream(spec, campaign.locmap, seed=5,
                             strategy="importance")
        stream.ensure(30)
        assert len(stream.faults) == 30
        assert all(tag in {s.key for s in stream.strata}
                   for tag in stream.tags)

    def test_unknown_strategy_is_rejected(self, campaign, spec):
        with pytest.raises(ValueError):
            FaultStream(spec, campaign.locmap, strategy="sorcery")
        with pytest.raises(ValueError):
            StratifiedSampler(spec, [], seed=0)

    def test_summarize_strata_skips_unexecuted_indices(self):
        tags = ["a", "b", "a", "b"]
        outcomes = {0: "failure", 1: "silent", 2: "silent"}
        table = summarize_strata(tags, outcomes)
        assert [row["stratum"] for row in table] == ["a", "b"]
        a, b = table
        assert a["n"] == 2 and b["n"] == 1
        assert a["rates"]["failure"][0] == pytest.approx(50.0)
        assert b["rates"]["silent"][0] == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Job spec serialisation
# ---------------------------------------------------------------------------
class TestJobSpecCompat:
    def base(self, spec, **kwargs):
        return CampaignJobSpec(spec=spec, **kwargs)

    def test_every_field_is_written_and_required(self, spec):
        data = self.base(spec).to_dict()
        assert set(data) == {field.name for field in fields(CampaignJobSpec)}
        assert set(data["spec"]) == {field.name
                                     for field in fields(FaultLoadSpec)}
        for key in data:
            partial = {k: v for k, v in data.items() if k != key}
            if key == "tool":
                # Headers written before job specs named their tool.
                assert CampaignJobSpec.from_dict(partial).tool == "fades"
                continue
            with pytest.raises(JournalError, match="malformed job spec"):
                CampaignJobSpec.from_dict(partial)

    def test_adaptive_fields_round_trip(self, spec):
        jobspec = self.base(spec, strategy="stratified", confidence=0.99,
                            epsilon=0.05, budget=500)
        clone = CampaignJobSpec.from_dict(
            json.loads(json.dumps(jobspec.to_dict())))
        assert clone == jobspec
        assert clone.adaptive
        assert clone.effective_budget() == 500

    def test_budget_only_spec_is_adaptive(self, spec):
        jobspec = self.base(spec, budget=10)
        assert jobspec.adaptive
        assert jobspec.effective_budget() == 10
        clone = CampaignJobSpec.from_dict(jobspec.to_dict())
        assert clone.budget == 10 and clone.strategy == "uniform"


# ---------------------------------------------------------------------------
# Progress rendering for dynamic budgets (satellite of the planner)
# ---------------------------------------------------------------------------
class TestDynamicBudgetMetrics:
    def test_upper_bound_total_renders_as_bound_without_eta(self):
        clock = iter([0.0, 10.0, 10.0]).__next__
        metrics = CampaignMetrics(clock=clock)
        metrics.set_total(400, exact=False)
        metrics.record({"cost": {}})
        snapshot = metrics.snapshot()
        assert snapshot.eta_s is None
        assert "[1/<=400]" in snapshot.render()
        assert "eta --:--" in snapshot.render()

    def test_resolving_the_total_restores_exact_rendering(self):
        clock = iter([0.0] + [10.0] * 8).__next__
        metrics = CampaignMetrics(clock=clock)
        metrics.set_total(400, exact=False)
        metrics.record({"cost": {}})
        metrics.resolve_total(150)
        snapshot = metrics.snapshot()
        assert snapshot.total == 150 and snapshot.total_exact
        assert "[1/150]" in snapshot.render()
        assert snapshot.eta_s is not None

    def test_exact_totals_are_unchanged(self):
        clock = iter([0.0] + [10.0] * 8).__next__
        metrics = CampaignMetrics(clock=clock)
        metrics.set_total(40)
        metrics.record({"cost": {}})
        snapshot = metrics.snapshot()
        assert "[1/40]" in snapshot.render()
        assert snapshot.eta_s == pytest.approx(390.0)


# ---------------------------------------------------------------------------
# z-values (satellite: stats now uses the exact normal quantile)
# ---------------------------------------------------------------------------
class TestZValue:
    def test_documented_levels_are_bit_identical(self):
        assert z_value(0.90) == 1.6449
        assert z_value(0.95) == 1.9600
        assert z_value(0.99) == 2.5758

    def test_other_levels_use_the_exact_quantile(self):
        from statistics import NormalDist
        assert z_value(0.951) == NormalDist().inv_cdf(0.5 + 0.951 / 2)
        assert 1.9600 < z_value(0.951) < 2.5758

    def test_monotone_in_confidence(self):
        levels = [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999]
        values = [z_value(level) for level in levels]
        assert values == sorted(values)

    def test_rejects_degenerate_levels(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                z_value(bad)


# ---------------------------------------------------------------------------
# End-to-end determinism of adaptive campaigns
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def evaluation():
    return Evaluation(backend="compiled")


@pytest.fixture(scope="module")
def adaptive_jobspec(evaluation):
    spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, 24)
    base = CampaignJobSpec.from_evaluation(evaluation, spec,
                                           faultload_seed=evaluation.seed)
    return replace(base, epsilon=0.1, budget=400)


@pytest.fixture(scope="module")
def adaptive_serial(adaptive_jobspec):
    return run_campaign(adaptive_jobspec)


def outcomes(result):
    return [experiment.outcome for experiment in result.experiments]


class TestAdaptiveEngine:
    def test_stops_before_the_budget(self, adaptive_serial):
        assert adaptive_serial.stop is not None
        assert adaptive_serial.stop["reason"] == "converged"
        assert adaptive_serial.stop["n"] < 400
        assert len(adaptive_serial.experiments) == \
            adaptive_serial.stop["n"]
        assert adaptive_serial.strata  # per-stratum table present
        assert sum(row["n"] for row in adaptive_serial.strata) == \
            adaptive_serial.stop["n"]

    def test_half_width_met_at_stop(self, adaptive_serial):
        assert adaptive_serial.stop["half_width"] <= 0.1

    def test_budget_cap_reports_budget_reason(self, evaluation):
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, 24)
        base = CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed)
        jobspec = replace(base, epsilon=0.005, budget=120)
        result = run_campaign(jobspec)
        assert result.stop["reason"] == "budget"
        assert result.stop["n"] == 120
        assert result.stop["checks"] == 2  # looks at 100 and 120

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_parallel_pool_stops_identically(self, adaptive_jobspec,
                                             adaptive_serial):
        parallel = run_campaign(adaptive_jobspec, workers=2)
        assert outcomes(parallel) == outcomes(adaptive_serial)
        assert parallel.stop == adaptive_serial.stop
        assert parallel.strata == adaptive_serial.strata

    def test_resume_replays_the_same_stop(self, adaptive_jobspec,
                                          adaptive_serial, tmp_path):
        journal = tmp_path / "adaptive.jsonl"
        run_campaign(adaptive_jobspec, journal=str(journal))
        lines = journal.read_text().splitlines()
        # Simulate a crash mid-campaign: header plus 40 records.
        truncated = tmp_path / "crash.jsonl"
        truncated.write_text("\n".join(lines[:41]) + "\n")
        resumed = resume_campaign(str(truncated))
        assert outcomes(resumed) == outcomes(adaptive_serial)
        assert resumed.stop == adaptive_serial.stop

    def test_journal_records_the_stop_line(self, adaptive_jobspec,
                                           adaptive_serial, tmp_path):
        journal = tmp_path / "stopline.jsonl"
        run_campaign(adaptive_jobspec, journal=str(journal))
        state = read_journal(str(journal))
        assert state.stop is not None
        assert state.stop["reason"] == "converged"
        assert state.stop["n"] == adaptive_serial.stop["n"]

    def test_fixed_budget_campaign_records_no_stop(self, evaluation,
                                                   tmp_path):
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, 12)
        jobspec = CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed)
        journal = tmp_path / "fixed.jsonl"
        result = run_campaign(jobspec, journal=str(journal))
        assert result.stop is None
        assert len(result.experiments) == 12
        assert read_journal(str(journal)).stop is None
