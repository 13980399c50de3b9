"""Tests for the observability layer (:mod:`repro.obs`)."""

import json
import logging
import multiprocessing

import pytest

from repro.errors import ObservabilityError
from repro.obs import logsetup, metrics as obs_metrics, tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import render_summary, summarize_trace
from repro.obs.tracing import PARENT_TID, Tracer, read_trace

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_disabled_span_records_nothing_and_yields_none(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("experiment") as span_id:
            assert span_id is None
        assert tracer.events == []

    def test_span_nesting_links_parents(self):
        tracer = Tracer(clock=FakeClock())
        tracer.enable()
        with tracer.span("experiment") as outer:
            with tracer.span("reconfigure") as inner:
                assert inner != outer
            with tracer.span("run"):
                pass
        events = {event["name"]: event for event in tracer.events}
        assert events["reconfigure"]["args"]["parent"] == outer
        assert events["run"]["args"]["parent"] == outer
        assert events["experiment"]["args"]["parent"] is None
        # Children finish before the parent: event order is child-first,
        # but ids still reconstruct the hierarchy.
        assert [event["name"] for event in tracer.events] == \
            ["reconfigure", "run", "experiment"]

    def test_span_timing_uses_monotonic_microseconds(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        tracer.enable()
        with tracer.span("run"):
            pass
        event = tracer.events[0]
        assert event["ph"] == "X"
        assert event["dur"] == pytest.approx(0.5e6)

    def test_attrs_carried_on_event(self):
        tracer = Tracer(clock=FakeClock())
        tracer.enable()
        with tracer.span("experiment", index=7, model="bitflip"):
            pass
        args = tracer.events[0]["args"]
        assert args["index"] == 7
        assert args["model"] == "bitflip"

    def test_reset_drops_events_and_renumbers(self):
        tracer = Tracer(clock=FakeClock())
        tracer.enable()
        with tracer.span("a"):
            pass
        tracer.reset(enabled=True, tid=3)
        assert tracer.events == []
        assert tracer.tid == 3
        with tracer.span("b") as span_id:
            assert span_id == 1  # ids restart per process/stream

    def test_drain_and_adopt_merge_worker_streams(self):
        worker = Tracer(clock=FakeClock(), tid=2)
        worker.enable()
        with worker.span("experiment", index=4):
            pass
        shipped = worker.drain()
        assert worker.events == []
        assert shipped[0]["tid"] == 2
        assert shipped[0]["args"]["index"] == 4

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=FakeClock())
        tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("experiment"):
                raise RuntimeError("boom")
        assert tracer.events[0]["name"] == "experiment"


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        events = [{"name": "a", "ph": "X", "pid": 1, "tid": 0,
                   "ts": 1.0, "dur": 2.0, "args": {"id": 1,
                                                   "parent": None}}]
        tracing.write_trace(path, events)
        assert read_trace(path) == events
        # The file is a Chrome-format JSON array (the trailing bracket
        # is optional in the Trace Event spec).
        text = open(path).read()
        assert text.startswith("[\n")
        json.loads(text.rstrip().rstrip(",") + "]")

    def test_torn_tail_is_dropped_like_the_journal(self, tmp_path):
        path = str(tmp_path / "trace.json")
        events = [{"name": "kept", "ph": "X"}]
        tracing.write_trace(path, events)
        with open(path, "a") as handle:
            handle.write('{"name": "torn", "ph"')  # crash mid-write
        assert [event["name"] for event in read_trace(path)] == ["kept"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_trace(str(tmp_path / "absent.json"))


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("injections_total")
        counter.inc(model="bitflip", target="ff")
        counter.inc(model="bitflip", target="ff")
        counter.inc(model="pulse", target="lut")
        assert counter.value(model="bitflip", target="ff") == 2
        assert counter.total() == 3

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x")
        assert registry.counter("x") is first
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_histogram_bucket_boundaries_are_le(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        # A value exactly on a bound lands in that bound's bucket
        # (Prometheus le semantics), above the last bound -> +Inf.
        histogram.observe(1.0)
        histogram.observe(1.5)
        histogram.observe(2.0)
        histogram.observe(2.5)
        assert histogram.bucket_counts() == [1, 2, 1]
        assert histogram.cumulative_counts() == [1, 3, 4]
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(7.0)

    def test_state_round_trip_merges_additively(self):
        source = MetricsRegistry()
        source.counter("c").inc(3, kind="a")
        source.gauge("g").set(7.5)
        source.histogram("h", buckets=(1.0,)).observe(0.5)
        sink = MetricsRegistry()
        sink.counter("c").inc(1, kind="a")
        sink.histogram("h", buckets=(1.0,)).observe(2.0)
        sink.merge_state(source.to_state())
        assert sink.counter("c").value(kind="a") == 4
        assert sink.gauge("g").value() == 7.5
        assert sink.histogram("h").bucket_counts() == [1, 1]
        assert sink.histogram("h").sum() == pytest.approx(2.5)

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value() == 0
        assert registry.counter("c") is counter  # handle stays valid

    def test_text_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("c", "help text").inc(2, op="write")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        text = registry.render_text()
        assert "# HELP c help text" in text
        assert "# TYPE c counter" in text
        assert 'c{op="write"} 2' in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text

    def test_json_export_is_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(model="bitflip")
        data = json.loads(registry.render_json())
        assert data["c"]["series"][0]["labels"] == {"model": "bitflip"}


class TestLogSetup:
    def test_json_formatter_emits_parsable_lines(self, capsys):
        logsetup.setup_logging(level="info", json_mode=True)
        logsetup.get_logger("cli").info("hello %s", "world")
        entry = json.loads(capsys.readouterr().err.strip())
        assert entry["msg"] == "hello world"
        assert entry["level"] == "info"
        assert entry["logger"] == "repro.cli"

    def test_human_formatter_contains_level_and_logger(self, capsys):
        logsetup.setup_logging(level="debug", json_mode=False)
        logsetup.get_logger("repro.engine").error("broke")
        err = capsys.readouterr().err
        assert "error" in err
        assert "repro.engine: broke" in err

    def test_level_threshold(self, capsys):
        logsetup.setup_logging(level="warning")
        logsetup.get_logger("x").info("quiet")
        logsetup.get_logger("x").warning("loud")
        err = capsys.readouterr().err
        assert "quiet" not in err
        assert "loud" in err

    def test_handlers_are_replaced_not_stacked(self, capsys):
        logsetup.setup_logging()
        logsetup.setup_logging()
        logsetup.get_logger("x").warning("once")
        assert capsys.readouterr().err.count("once") == 1

    def teardown_method(self):
        logging.getLogger(logsetup.ROOT_LOGGER).handlers.clear()


class TestSummarize:
    def _span(self, name, tid, span_id, parent, dur_us, **attrs):
        return {"name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": 0.0, "dur": dur_us,
                "args": dict(attrs, id=span_id, parent=parent)}

    def test_engine_phases_partition_the_wall_clock(self):
        events = [
            self._span("campaign", PARENT_TID, 1, None, 100.0e6),
            self._span("setup", PARENT_TID, 2, 1, 10.0e6),
            self._span("golden", PARENT_TID, 3, 1, 20.0e6),
            self._span("experiments", PARENT_TID, 4, 1, 65.0e6),
            self._span("aggregate", PARENT_TID, 5, 1, 5.0e6),
        ]
        summary = summarize_trace(events)
        assert summary["wall_s"] == pytest.approx(100.0)
        assert summary["engine_phases"]["experiments"]["total_s"] == \
            pytest.approx(65.0)
        assert summary["phase_coverage"] == pytest.approx(1.0)

    def test_self_time_excludes_children_across_streams(self):
        # Two workers, same span ids: keys must be (tid, id)-scoped.
        events = [
            self._span("experiment", 1, 1, None, 10.0e6),
            self._span("run", 1, 2, 1, 8.0e6),
            self._span("reconfigure", 1, 3, 2, 3.0e6,
                       mechanism="ff-lsr"),
            self._span("experiment", 2, 1, None, 6.0e6),
            self._span("run", 2, 2, 1, 6.0e6),
        ]
        summary = summarize_trace(events)
        run = summary["experiment_phases"]["run"]
        # Worker 1's run self-time is 8-3=5; worker 2's is 6.
        assert run["self_s"] == pytest.approx(11.0)
        assert run["total_s"] == pytest.approx(14.0)
        assert summary["mechanisms"]["ff-lsr"]["count"] == 1
        assert summary["workers"] == 2

    def test_render_mentions_mechanisms_and_phases(self):
        events = [
            self._span("campaign", PARENT_TID, 1, None, 2.0e6),
            self._span("experiments", PARENT_TID, 2, 1, 2.0e6),
            self._span("experiment", 1, 1, None, 1.0e6),
            self._span("reconfigure", 1, 2, 1, 0.5e6,
                       mechanism="lut-rewrite"),
        ]
        text = render_summary(summarize_trace(events))
        assert "lut-rewrite" in text
        assert "experiments" in text
        assert "wall-clock" in text


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestEngineTracing:
    @pytest.fixture()
    def jobspec(self):
        from repro.core import FaultModel
        from repro.runtime import CampaignJobSpec

        from repro.analysis import Evaluation
        evaluation = Evaluation(values=(7, 2, 5))
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", count=4)
        return CampaignJobSpec.from_evaluation(evaluation, spec)

    def test_parallel_trace_merges_worker_spans(self, tmp_path, jobspec):
        from repro.runtime import run_campaign
        trace_path = str(tmp_path / "trace.json")
        result = run_campaign(jobspec, workers=2, trace=trace_path)
        assert len(result.experiments) == 4
        events = read_trace(trace_path)
        names = {event["name"] for event in events}
        assert {"campaign", "setup", "golden", "experiments",
                "aggregate", "experiment", "run"} <= names
        experiment_tids = {event["tid"] for event in events
                           if event["name"] == "experiment"}
        assert experiment_tids  # worker streams, tid >= 1
        assert PARENT_TID not in experiment_tids
        indices = {event["args"]["index"] for event in events
                   if event["name"] == "experiment"}
        assert indices == {0, 1, 2, 3}
        # Engine phases tile the campaign wall-clock: pool shutdown and
        # closing down run inside them, so only statement-sized gaps
        # remain.
        summary = summarize_trace(events)
        assert summary["phase_coverage"] == pytest.approx(1.0, abs=0.02)
        assert tracing.TRACER.enabled is False  # cleaned up

    def test_serial_trace_and_metrics(self, tmp_path, jobspec):
        from repro.runtime import run_campaign
        trace_path = str(tmp_path / "trace.json")
        before = obs_metrics.REGISTRY.counter(
            "injections_total").total()
        run_campaign(jobspec, workers=0, trace=trace_path)
        events = read_trace(trace_path)
        mechanisms = {event["args"].get("mechanism")
                      for event in events
                      if event["name"] == "reconfigure"}
        assert "ff-lsr" in mechanisms or "ff-gsr" in mechanisms
        after = obs_metrics.REGISTRY.counter("injections_total").total()
        assert after - before >= 4

    def test_trace_disabled_between_runs(self, tmp_path, jobspec):
        from repro.runtime import run_campaign
        run_campaign(jobspec, workers=0,
                     trace=str(tmp_path / "t.json"))
        run_campaign(jobspec, workers=0)  # no trace requested
        assert tracing.TRACER.enabled is False


class TestCliObs:
    def test_obs_summarize_prints_table(self, tmp_path, capsys):
        from repro.cli import main
        path = str(tmp_path / "trace.json")
        tracing.write_trace(path, [
            {"name": "campaign", "ph": "X", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 3.0e6, "args": {"id": 1, "parent": None}},
            {"name": "experiments", "ph": "X", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 3.0e6, "args": {"id": 2, "parent": 1}},
        ])
        assert main(["obs", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "campaign wall-clock" in out
        assert "experiments" in out

    def test_obs_summarize_json(self, tmp_path, capsys):
        from repro.cli import main
        path = str(tmp_path / "trace.json")
        tracing.write_trace(path, [
            {"name": "campaign", "ph": "X", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0e6, "args": {"id": 1, "parent": None}},
        ])
        assert main(["obs", "summarize", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["wall_s"] == pytest.approx(1.0)

    def test_obs_summarize_missing_trace_fails_cleanly(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        code = main(["obs", "summarize", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_campaign_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = str(tmp_path / "t.json")
        metrics_path = str(tmp_path / "m.prom")
        code = main(["--values", "7,2,5", "campaign", "--model",
                     "bitflip", "--count", "3", "--trace", trace_path,
                     "--metrics", metrics_path])
        assert code == 0
        assert "FADES | bitflip" in capsys.readouterr().out
        assert read_trace(trace_path)
        exposition = open(metrics_path).read()
        assert "injections_total" in exposition
        assert "reconfig_seconds_bucket" in exposition

    def test_log_json_keeps_stderr_machine_parsable(self, tmp_path,
                                                    capsys):
        from repro.cli import main
        code = main(["--log-json", "resume",
                     str(tmp_path / "missing.jsonl")])
        assert code == 1
        err_lines = [line for line in
                     capsys.readouterr().err.splitlines() if line]
        for line in err_lines:
            entry = json.loads(line)
            assert entry["level"] == "error"
