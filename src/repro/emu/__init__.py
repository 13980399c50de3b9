"""Bit-parallel autonomous-emulation backend (``repro.emu``).

The paper evaluates one fault per emulation pass; López-Ongil et al.'s
*autonomous emulation* line of work (PAPERS.md) shows the classic answer
to that bottleneck: pack many fault experiments into the bit-lanes of
machine words, keep the golden (fault-free) run in lane 0, and evaluate
the whole batch with one pass of bitwise logic.  Classification then
degenerates to lane-wise XOR against lane 0 — exactly the Failure /
Latent / Silent comparison of :mod:`repro.core.classify`.  As in their
autonomous emulation, an experiment ends as soon as its outcome is
settled: a fault holds a bit of the machine words only from its first
operation until it fails or its state equals golden again, so a pass
costs what its live faults cost, not what its batch size costs.

The subsystem has three layers:

:mod:`repro.emu.compiler`
    Lowers a mapped LUT netlist into straight-line bitwise-integer
    Python (one expression per live LUT, locals named by liveness),
    compiled once per design via
    :func:`~repro.emu.compiler.compile_design` and cached by source hash.

:mod:`repro.emu.lanes`
    The lane manager: packed flip-flop/memory state, a per-cycle fault
    schedule (lane-masked XOR/force/override operations), and the run
    loop that gives each fault a slot over its live window, sizes the
    slot range to the live faults, and produces failure/latent masks
    plus the lane-0 trace.

:mod:`repro.emu.backend`
    The campaign adapter: translates prepared
    :class:`~repro.core.injector.Injection` mechanisms into lane
    operations while replaying their reconfiguration protocol against
    the reference device — so emulated board costs, injector RNG
    consumption and timing-violation sets stay bit-identical to the
    reference backend.
"""

from .backend import lane_width, run_lane_batch, supports_fault
from .compiler import CompiledDesign, compile_design
from .lanes import BatchSchedule, LaneResult, run_lanes

__all__ = [
    "BatchSchedule",
    "CompiledDesign",
    "LaneResult",
    "compile_design",
    "lane_width",
    "run_lane_batch",
    "run_lanes",
    "supports_fault",
]
