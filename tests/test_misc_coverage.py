"""Coverage for the smaller utility modules: traces and the board."""

import pytest

from repro.fpga.board import Board, BoardParams
from repro.hdl import NetlistSim, Trace, capture_run

from helpers import build_counter


class TestTraceModule:
    def test_capture_run_records_every_cycle(self):
        sim = NetlistSim(build_counter(4))
        sim.reset()
        trace = capture_run(sim, 10, ["value", "tc"], inputs={"en": 1})
        assert len(trace.samples) == 10
        assert trace.cycles == 10
        assert trace.output_names == ("value", "tc")
        assert trace.samples[3][0] == 3

    def test_capture_run_decimated_sampling(self):
        sim = NetlistSim(build_counter(4))
        sim.reset()
        trace = capture_run(sim, 12, ["value"], inputs={"en": 1},
                            sample_every=4)
        assert len(trace.samples) == 3
        assert trace.cycles == 12

    def test_first_divergence_prefix_semantics(self):
        a = Trace(("o",))
        a.samples = [(1,), (2,)]
        b = Trace(("o",))
        b.samples = [(1,), (2,), (3,)]
        assert a.first_divergence(b) == 2
        assert b.first_divergence(a) == 2

    def test_same_state_compares_final_snapshots(self):
        a = Trace(("o",))
        b = Trace(("o",))
        a.final_state = ("x",)
        b.final_state = ("y",)
        assert not a.same_state(b)
        b.final_state = ("x",)
        assert a.same_state(b)


class TestBoardModule:
    def test_transaction_cost_formula(self):
        board = Board(BoardParams(latency_s=0.1,
                                  bandwidth_bytes_per_s=1000.0))
        seconds = board.transaction(500)
        assert seconds == pytest.approx(0.1 + 0.5)
        assert board.total_seconds == pytest.approx(0.6)
        assert board.snapshot() == (1, seconds)

    def test_snapshot_since(self):
        board = Board()
        marker = board.snapshot()
        board.transaction(100)
        board.transaction(100)
        count, seconds = board.since(marker)
        assert count == 2
        assert seconds == pytest.approx(board.total_seconds)

    def test_running_markers_equal_a_left_to_right_sum(self):
        # The running total must equal the left-to-right sum of the cost
        # formula bit for bit, not roughly: costs are its differences.
        board = Board()
        params = board.params
        sizes = [(7919 * index) % 760_000 for index in range(300)]
        total = prefix = 0.0
        for position, size in enumerate(sizes):
            if position == 120:
                marker = board.snapshot()
                prefix = total
            board.transaction(size)
            total += params.latency_s + size / params.bandwidth_bytes_per_s
        assert board.total_seconds == total
        assert marker == (120, prefix)
        assert board.since(marker) == (180, total - prefix)
        fresh = Board()
        assert fresh.snapshot() == (0, 0.0)
        seconds = fresh.transaction(384)
        assert fresh.total_seconds == seconds
        assert fresh.since((0, 0.0)) == (1, seconds)

    def test_workload_seconds_uses_clock(self):
        board = Board(BoardParams(clock_hz=1e6))
        assert board.workload_seconds(2_000_000) == pytest.approx(2.0)
