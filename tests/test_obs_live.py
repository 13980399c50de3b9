"""Tests for the live-observability layer: the ``.tsdb`` time-series
sampler, the alert rule engine, the ``--serve-obs`` HTTP exporter, and
the ``repro top`` dashboard.

The contract under test is the barrier-clock design from ``DESIGN.md``:
samples and alert evaluations happen only at the engine's batch
barriers, land durably in CRC-sealed sidecar lines next to the journal,
and everything a live scraper sees over HTTP can be reconstructed after
the fact from the journal + sidecar alone.
"""

import dataclasses
import json
import multiprocessing
import os
import urllib.error
import urllib.request

import pytest

from repro import chaos
from repro.analysis import Evaluation
from repro.chaos import ChaosPlan
from repro.cli import main as cli_main
from repro.core import FaultModel
from repro.errors import ObservabilityError
from repro.obs import server as obs_server
from repro.obs.alerts import (AlertEngine, AlertRule, built_in_rules,
                              parse_rule_spec)
from repro.obs.live import (outcome_bar, render_dashboard, run_top,
                            sparkline, status_from_journal)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.server import ObsServer, parse_serve_spec
from repro.obs.timeseries import (TimeseriesSampler, TsdbWriter,
                                  line_crc, read_tsdb, seal_line,
                                  tsdb_path_for)
from repro.runtime import (CampaignJobSpec, JobRunner, read_journal,
                           resume_campaign, run_campaign)
from repro.runtime.metrics import MetricsSnapshot

COUNT = 8

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker pool requires the fork start method")


@pytest.fixture(scope="module")
def evaluation():
    return Evaluation()


@pytest.fixture(autouse=True)
def clean_chaos():
    chaos.clear()
    yield
    chaos.clear()


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def snap(completed=0, skipped=0, total=COUNT, **kwargs):
    return MetricsSnapshot(total=total, completed=completed,
                           skipped=skipped, **kwargs)


# ---------------------------------------------------------------------------
# .tsdb sidecar: sealed lines, torn tails, advisory reads
# ---------------------------------------------------------------------------
class TestTsdb:
    def test_roundtrip_preserves_samples(self, tmp_path):
        path = str(tmp_path / "run.tsdb")
        with TsdbWriter(path) as writer:
            writer.append({"t": 0.5, "n": 1, "outcomes": {"latent": 1}})
            writer.append({"t": 1.5, "n": 2, "outcomes": {"latent": 2}})
        samples, dropped = read_tsdb(path)
        assert dropped == 0
        assert [sample["n"] for sample in samples] == [1, 2]
        assert samples[0]["outcomes"] == {"latent": 1}
        assert all(sample["crc"] == line_crc(sample)
                   for sample in samples)

    def test_torn_tail_is_dropped_then_truncated(self, tmp_path):
        path = str(tmp_path / "run.tsdb")
        with TsdbWriter(path) as writer:
            writer.append({"t": 0.0, "n": 1})
            writer.append({"t": 1.0, "n": 2})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"t": 2.0, "n"')  # crash mid-append
        samples, dropped = read_tsdb(path)
        assert [sample["n"] for sample in samples] == [1, 2]
        assert dropped == 1
        # Reopening for append truncates the torn tail in place, so the
        # next sample never glues onto the crash signature.
        with TsdbWriter(path) as writer:
            writer.append({"t": 2.0, "n": 3})
        samples, dropped = read_tsdb(path)
        assert [sample["n"] for sample in samples] == [1, 2, 3]
        assert dropped == 0

    def test_interior_corruption_costs_one_sample_not_the_file(
            self, tmp_path):
        path = str(tmp_path / "run.tsdb")
        lines = [seal_line({"t": float(i), "n": i}) for i in range(4)]
        lines[1] = lines[1].replace('"n": 1', '"n": 9')  # CRC now wrong
        lines[2] = json.dumps({"t": 2.0, "n": 2})  # no CRC at all
        (tmp_path / "run.tsdb").write_text("\n".join(lines) + "\n")
        samples, dropped = read_tsdb(path)
        assert [sample["n"] for sample in samples] == [0, 3]
        assert dropped == 2

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_tsdb(str(tmp_path / "nope.tsdb"))

    def test_sidecar_path_derivation(self):
        assert tsdb_path_for("out.jsonl") == "out.jsonl.tsdb"


class TestSampler:
    def test_interval_throttles_between_samples(self):
        sampler = TimeseriesSampler(interval=1.0,
                                    clock=FakeClock(step=0.4))
        taken = [sampler.sample(snap(completed=i)) is not None
                 for i in range(1, 7)]
        # t = 0.4, 0.8, 1.2, 1.6, 2.0, 2.4 against a 1.0 s spacing.
        assert taken == [True, False, False, True, False, False]
        assert sampler.sample(snap(completed=7), force=True) is not None

    def test_sample_shape_and_ewma_smoothing(self):
        sampler = TimeseriesSampler(interval=0.0, clock=FakeClock())
        first = sampler.sample(snap(completed=2,
                                    outcomes={"failure": 2}))
        second = sampler.sample(snap(completed=6,
                                     outcomes={"failure": 6}))
        assert first["n"] == 2 and second["n"] == 6
        assert first["throughput"] == pytest.approx(2.0)
        assert second["throughput"] == pytest.approx(4.0)
        # EWMA: 0.3 * 4.0 + 0.7 * 2.0
        assert second["ewma"] == pytest.approx(2.6)
        assert second["outcomes"] == {"failure": 6}
        assert second["pending"] == 2
        for field in ("hangs", "retries", "quarantined", "fallbacks",
                      "chaos", "alerts"):
            assert field in second

    def test_ring_buffer_is_bounded(self):
        sampler = TimeseriesSampler(interval=0.0, capacity=4,
                                    clock=FakeClock(step=0.1))
        for i in range(10):
            sampler.sample(snap(completed=i), force=True)
        assert len(sampler.samples) == 4
        assert sampler.last["n"] == 9


# ---------------------------------------------------------------------------
# alert rules
# ---------------------------------------------------------------------------
class TestAlertRules:
    def test_parse_named_spec_with_options(self):
        rule = parse_rule_spec(
            "slow:ewma<0.5:for=10:severity=critical")
        assert rule == AlertRule("slow", field="ewma", op="<",
                                 value=0.5, for_s=10.0,
                                 severity="critical")

    def test_parse_anonymous_condition_and_mode(self):
        rule = parse_rule_spec("failure > 3:mode=delta")
        assert rule.name == "failure___3"
        assert (rule.field, rule.op, rule.value) == ("failure", ">", 3.0)
        assert rule.mode == "delta"

    def test_bad_specs_are_refused(self):
        for spec in ("", "noname", "x:ewma~0.5", "x:ewma<0.5:blah=1",
                     "x:ewma<0.5:mode=sideways"):
            with pytest.raises(ObservabilityError):
                parse_rule_spec(spec)

    def test_built_in_rule_names(self):
        names = {rule.name for rule in built_in_rules()}
        assert names == {"worker_hang_spike", "compile_fallback",
                         "quarantine_burst", "throughput_stall"}

    def test_duplicate_rule_names_refused(self):
        rule = AlertRule("twin", field="n", op=">", value=1.0)
        with pytest.raises(ObservabilityError):
            AlertEngine(rules=[rule, rule])

    def test_level_rule_fires_on_transition_and_resolves(self):
        engine = AlertEngine(
            rules=[AlertRule("slow", field="ewma", op="<", value=0.5)])
        fired = engine.evaluate({"t": 0.0, "ewma": 0.4})
        assert [event.rule for event in fired] == ["slow"]
        assert engine.active[0]["rule"] == "slow"
        # Still breached: active but no re-fire.
        assert engine.evaluate({"t": 1.0, "ewma": 0.3}) == []
        # Recovered: resolves; a later breach fires again.
        assert engine.evaluate({"t": 2.0, "ewma": 0.9}) == []
        assert engine.active == []
        assert len(engine.evaluate({"t": 3.0, "ewma": 0.1})) == 1

    def test_delta_rule_watches_cumulative_counters(self):
        engine = AlertEngine(rules=[AlertRule(
            "hangs", field="hangs", op=">", value=0.0, mode="delta")])
        first = {"t": 0.0, "hangs": 0.0}
        assert engine.evaluate(first) == []
        second = {"t": 1.0, "hangs": 2.0}
        assert len(engine.evaluate(second, first)) == 1
        third = {"t": 2.0, "hangs": 2.0}  # no new hangs: resolves
        assert engine.evaluate(third, second) == []
        assert engine.active == []

    def test_sustain_window_delays_firing(self):
        engine = AlertEngine(rules=[AlertRule(
            "slow", field="ewma", op="<", value=0.5, for_s=5.0)])
        assert engine.evaluate({"t": 0.0, "ewma": 0.1}) == []
        assert engine.evaluate({"t": 3.0, "ewma": 0.1}) == []
        assert len(engine.evaluate({"t": 6.0, "ewma": 0.1})) == 1

    def test_stall_rule_needs_pending_work(self):
        engine = AlertEngine(rules=[AlertRule(
            "stuck", field="n", op="==", value=0.0, mode="stall",
            for_s=10.0)])
        assert engine.evaluate({"t": 0.0, "n": 5, "pending": 3}) == []
        assert engine.evaluate({"t": 5.0, "n": 5, "pending": 3}) == []
        fired = engine.evaluate({"t": 12.0, "n": 5, "pending": 3})
        assert [event.rule for event in fired] == ["stuck"]
        # Progress resolves it; a drained campaign never stalls.
        assert engine.evaluate({"t": 13.0, "n": 6, "pending": 2}) == []
        assert engine.active == []
        assert engine.evaluate({"t": 30.0, "n": 6, "pending": 0}) == []

    def test_firing_increments_labelled_counter_and_history(self):
        counter = REGISTRY.counter("alerts_fired_total")
        before = counter.total()
        events = []
        engine = AlertEngine(
            rules=[AlertRule("burst", field="failure", op=">",
                             value=1.0, severity="critical")],
            on_event=events.append)
        engine.evaluate({"t": 1.0, "outcomes": {"failure": 3}})
        assert counter.total() == before + 1
        assert [event.rule for event in events] == ["burst"]
        assert engine.history[-1]["severity"] == "critical"

    def test_replayed_journal_lines_are_marked(self):
        engine = AlertEngine()
        engine.replay([{"type": "alert", "rule": "old", "t": 4.0,
                        "crc": "xx"}])
        entry = engine.history[0]
        assert entry["rule"] == "old" and entry["replayed"] is True
        assert "crc" not in entry and "type" not in entry


# ---------------------------------------------------------------------------
# HTTP exporter
# ---------------------------------------------------------------------------
class TestServer:
    def test_parse_serve_spec(self):
        assert parse_serve_spec("9100") == ("127.0.0.1", 9100)
        assert parse_serve_spec("0.0.0.0:9100") == ("0.0.0.0", 9100)
        assert parse_serve_spec(":0") == ("127.0.0.1", 0)
        for bad in ("abc", "host:port", "70000"):
            with pytest.raises(ObservabilityError):
                parse_serve_spec(bad)

    def test_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("campaign_records_total", "test").inc(
            outcome="latent")
        server = ObsServer("127.0.0.1:0",
                           lambda: {"campaign": "unit", "n": 3},
                           registry=registry)
        with server.start():
            assert obs_server.current() is server

            def get(path):
                with urllib.request.urlopen(server.url + path,
                                            timeout=5) as reply:
                    return reply.status, reply.read().decode("utf-8")

            assert get("/healthz") == (200, "ok\n")
            code, metrics_text = get("/metrics")
            assert code == 200
            assert 'campaign_records_total{outcome="latent"} 1' \
                in metrics_text
            code, status_text = get("/status")
            assert code == 200
            assert json.loads(status_text) == {"campaign": "unit",
                                               "n": 3}
            with pytest.raises(urllib.error.HTTPError) as caught:
                get("/nope")
            assert caught.value.code == 404
        assert obs_server.current() is None

    def test_bound_port_is_discoverable(self):
        server = ObsServer("127.0.0.1:0", dict)
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        server.close()


# ---------------------------------------------------------------------------
# engine integration: one serial campaign with the full stack attached
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_run(evaluation, tmp_path_factory):
    """A journaled serial campaign serving live observability, with
    every endpoint scraped from inside the progress callback."""
    spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
    jobspec = CampaignJobSpec.from_evaluation(
        evaluation, spec, faultload_seed=evaluation.seed)
    journal = str(tmp_path_factory.mktemp("live") / "campaign.jsonl")
    captured = {}

    def scrape(_snapshot):
        server = obs_server.current()
        if server is None:
            return
        for path in ("/healthz", "/metrics", "/status"):
            with urllib.request.urlopen(server.url + path,
                                        timeout=5) as reply:
                captured[path] = reply.read().decode("utf-8")

    rules = built_in_rules() + [
        AlertRule("progress", field="n", op=">", value=2.0)]
    result = run_campaign(jobspec, journal=journal, progress=scrape,
                          serve_obs="127.0.0.1:0", alert_rules=rules,
                          sample_interval=0.0)
    return {"result": result, "journal": journal, "captured": captured}


class TestEngineIntegration:
    def test_endpoints_served_while_running(self, live_run):
        captured = live_run["captured"]
        assert captured["/healthz"] == "ok\n"
        assert "campaign_records_total" in captured["/metrics"]
        status = json.loads(captured["/status"])
        assert status["campaign"] == live_run["result"].spec_label
        assert 0 < status["n"] <= COUNT
        assert status["total"] == COUNT
        assert status["finished"] is False
        assert isinstance(status["series"], list)

    def test_server_is_torn_down_with_the_campaign(self, live_run):
        assert obs_server.current() is None

    def test_tsdb_sidecar_lands_next_to_the_journal(self, live_run):
        samples, dropped = read_tsdb(
            tsdb_path_for(live_run["journal"]))
        assert dropped == 0
        assert samples  # close() force-takes a final sample
        assert samples[-1]["n"] == COUNT
        ns = [sample["n"] for sample in samples]
        assert ns == sorted(ns)
        assert sum(samples[-1]["outcomes"].values()) == COUNT

    def test_custom_rule_fired_journalled_and_exported(self, live_run):
        state = read_journal(live_run["journal"])
        assert any(entry.get("rule") == "progress"
                   for entry in state.alerts)
        assert 'alerts_fired_total{rule="progress"}' \
            in live_run["captured"]["/metrics"]

    def test_status_rebuilds_from_durable_state(self, live_run):
        status, samples = status_from_journal(live_run["journal"])
        assert status["finished"] is True
        assert status["n"] == COUNT
        assert sum(status["outcomes"].values()) == COUNT
        assert samples  # the sidecar feeds the offline sparkline
        assert any(entry.get("rule") == "progress"
                   for entry in status["alert_history"])

    def test_top_once_renders_the_finished_campaign(self, live_run,
                                                    capsys):
        assert cli_main(["top", live_run["journal"], "--once"]) == 0
        out = capsys.readouterr().out
        assert "[done]" in out
        assert f"n {COUNT}/{COUNT}" in out
        assert "progress" in out  # the fired alert is listed


# ---------------------------------------------------------------------------
# a crashed campaign, resumed: every surface reports the whole campaign
# ---------------------------------------------------------------------------
#: Records the simulated crash leaves in the journal.
CUT = 4


@pytest.fixture(scope="module")
def resumed_run(evaluation, tmp_path_factory):
    """A journaled serial campaign that quarantines fault 1, cut back to
    its header and first ``CUT`` records with the ``.tsdb`` gone (as a
    crash would leave them), then resumed with the live stack attached
    and ``/status`` scraped from the progress callback."""
    spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
    jobspec = CampaignJobSpec.from_evaluation(
        evaluation, spec, faultload_seed=evaluation.seed)
    journal = tmp_path_factory.mktemp("resumed") / "campaign.jsonl"
    original = JobRunner.run_index

    def sabotage(self, index):
        if index == 1:
            raise ValueError("poison fault")
        return original(self, index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JobRunner, "run_index", sabotage)
        run_campaign(jobspec, journal=str(journal), max_retries=0)
    lines = journal.read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    fired_before_cut = any(entry.get("rule") == "quarantine_burst"
                           for entry in entries)
    journal.write_text("".join(
        line + "\n" for line, entry in zip(lines, entries)
        if entry["type"] == "header"
        or (entry["type"] == "record" and entry["index"] < CUT)))
    os.remove(tsdb_path_for(str(journal)))

    statuses = []

    def scrape(_snapshot):
        server = obs_server.current()
        if server is None:  # metrics.finish() runs after teardown
            return
        with urllib.request.urlopen(server.url + "/status",
                                    timeout=5) as reply:
            statuses.append(json.loads(reply.read().decode("utf-8")))

    result = resume_campaign(str(journal), progress=scrape,
                             serve_obs="127.0.0.1:0",
                             sample_interval=0.0)
    return {"result": result, "journal": str(journal),
            "statuses": statuses, "fired_before_cut": fired_before_cut}


class TestResumedCampaign:
    def test_every_surface_reports_the_whole_campaign(self, resumed_run):
        expected = {name: count for name, count in dataclasses.asdict(
            resumed_run["result"].counts()).items() if count}
        assert expected["quarantined"] == 1
        samples, _dropped = read_tsdb(
            tsdb_path_for(resumed_run["journal"]))
        offline, _samples = status_from_journal(resumed_run["journal"])
        for surface in (resumed_run["statuses"][-1], samples[-1],
                        offline):
            assert surface["n"] == COUNT
            assert surface["outcomes"] == expected
            assert surface["quarantined"] == 1

    def test_replayed_records_are_not_throughput(self, resumed_run):
        samples, _dropped = read_tsdb(
            tsdb_path_for(resumed_run["journal"]))
        first = samples[0]
        assert first["skipped"] == CUT
        assert first["completed"] == 0
        assert first["throughput"] == 0.0

    def test_replayed_quarantine_fires_no_alert(self, resumed_run):
        # The uninterrupted run fired the rule for the fresh quarantine;
        # the resume replays that record and must not fire it again.
        assert resumed_run["fired_before_cut"]
        state = read_journal(resumed_run["journal"])
        assert not any(entry.get("rule") == "quarantine_burst"
                       for entry in state.alerts)


# ---------------------------------------------------------------------------
# repro top rendering + run diffing, offline
# ---------------------------------------------------------------------------
class TestDashboard:
    def test_sparkline_scales_to_peak(self):
        line = sparkline([0.0, 1.0, 2.0, 4.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""

    def test_outcome_bar_shares(self):
        bar = outcome_bar({"failure": 3, "latent": 1})
        assert bar.index("failure") < bar.index("latent")
        assert "3 (75%)" in bar and "1 (25%)" in bar
        assert outcome_bar({}) == "(no experiments yet)"

    def test_render_dashboard_active_alerts_and_workers(self):
        text = render_dashboard({
            "campaign": "bitflip/ffs", "n": 4, "total": 8,
            "total_exact": False, "elapsed_s": 2.0,
            "throughput": 1.5, "eta_s": 61.0,
            "workers": {"configured": 2, "alive": 1},
            "retries": 1, "hangs": 1, "quarantined": 0,
            "outcomes": {"failure": 4},
            "series": [0.5, 1.0, 1.5],
            "alerts": [{"rule": "worker_hang_spike",
                        "severity": "warning",
                        "condition": "hangs>0 [delta]"}],
            "alert_history": [{"rule": "worker_hang_spike",
                               "severity": "warning", "t": 1.2,
                               "message": "m"}],
            "finished": False})
        assert "n 4/<=8" in text  # adaptive budget renders as a bound
        assert "workers 1/2" in text
        assert "eta 01:01" in text
        assert "ALERTS" in text and "worker_hang_spike" in text
        assert "fired      1 alert" in text

    def test_render_dashboard_quiet_campaign(self):
        text = render_dashboard({"campaign": "x", "n": 8, "total": 8,
                                 "outcomes": {"latent": 8},
                                 "finished": True})
        assert "[done]" in text
        assert "alerts     none" in text

    def test_run_top_reports_missing_journal(self, tmp_path):
        assert run_top(str(tmp_path / "nope.jsonl"), once=True) == 1


# ---------------------------------------------------------------------------
# chaos end-to-end: an injected hang must reach every surface
# ---------------------------------------------------------------------------
@needs_fork
class TestChaosHangAlert:
    def test_worker_hang_fires_alert_on_every_surface(
            self, evaluation, tmp_path, capsys):
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, 12)
        jobspec = CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed)
        chaos.install(ChaosPlan.from_spec("seed=7;worker_hang:index=1"))
        journal = str(tmp_path / "chaos.jsonl")
        scrapes = {}

        def scrape(_snapshot):
            server = obs_server.current()
            if server is None:
                return
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=5) as reply:
                scrapes["metrics"] = reply.read().decode("utf-8")
            with urllib.request.urlopen(server.url + "/status",
                                        timeout=5) as reply:
                scrapes["status"] = json.loads(reply.read().decode())

        result = run_campaign(jobspec, workers=2, shard_timeout=1.0,
                              journal=journal, progress=scrape,
                              serve_obs="127.0.0.1:0",
                              sample_interval=0.0)
        assert len(result.experiments) == 12

        # 1. the Prometheus scrape taken *while running* carries the
        #    labelled firing counter;
        assert 'alerts_fired_total{rule="worker_hang_spike"}' \
            in scrapes["metrics"]
        assert scrapes["status"]["workers"]["configured"] == 2
        # 2. the journal holds a durable alert line;
        state = read_journal(journal)
        assert any(entry.get("rule") == "worker_hang_spike"
                   for entry in state.alerts)
        # 3. repro top renders it after the fact.
        assert cli_main(["top", journal, "--once"]) == 0
        out = capsys.readouterr().out
        assert "worker_hang_spike" in out
