"""ATPG-style fault collapsing over a FADES faultload.

Two faults are *equivalent* when they provoke the identical sequence of
configuration effects on the device — same site, same rewrite, same
activation window — so every downstream observation (output trace,
final state, first divergence) must coincide.  The campaign then
emulates one representative per equivalence class and attributes its
outcome to every member, exactly as classic ATPG fault collapsing
simulates one fault per equivalence class.

The signatures mirror :class:`repro.core.injector.FadesInjector`'s
dispatch precisely:

* **bit-flips on flip-flops** collapse across mechanism (LSR and GSR
  produce the same presented flip) and across duration (a bit-flip's
  removal is a no-op), keyed by ``(ff, start)``;
* **memory bit-flips** key by ``(block, addr, bit, start)``;
* **LUT rewrites** — pulses *and* valued indeterminations — key by the
  faulty truth table they install, optionally masked to the reachable
  entries (two different line inversions that agree on every reachable
  entry are indistinguishable), plus the activation window;
* **CB-input inversions** key by ``(ff, start, window)``;
* **forced flip-flops** (valued, non-oscillating indeterminations) key
  by ``(ff, value, start, window)``.

Faults that consume injector randomness (oscillating or unvalued
indeterminations), delay faults (their mechanism depends on routing
congestion state), multi-bit flips and any unknown model are never
collapsed — each stays a singleton.

Campaign attribution keys on equivalence alone, keeping the report
math exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.faults import Fault, FaultModel, TargetKind
from ..core.injector import invert_lut_line, stuck_lut_line
from .observe import ObservabilityAnalysis

Signature = Tuple[object, ...]


@dataclass(frozen=True)
class FaultClass:
    """One equivalence class: emulate the representative, attribute to
    all members (faultload indices, representative included)."""

    signature: Signature
    representative: int
    members: Tuple[int, ...]

    @property
    def collapsed(self) -> Tuple[int, ...]:
        """Members whose emulation the representative replaces."""
        return tuple(index for index in self.members
                     if index != self.representative)


def behavioral_signature(fault: Fault, cycles: int,
                         analysis: Optional[ObservabilityAnalysis] = None,
                         ) -> Optional[Signature]:
    """Equivalence-class key for *fault*, or ``None`` when it must not
    be collapsed (randomised, routing-dependent or unknown behaviour).
    """
    if fault.extra_targets:
        return None
    start = fault.injection_cycle(cycles)
    window = fault.activation_window
    model = fault.model
    kind = fault.target.kind
    if model is FaultModel.BITFLIP:
        if kind is TargetKind.FF:
            return ("ff-flip", fault.target.index, start)
        if kind is TargetKind.MEMORY_BIT:
            return ("mem-flip", fault.target.index, fault.target.addr,
                    fault.target.bit, start)
        return None
    if model is FaultModel.PULSE and kind is TargetKind.LUT:
        return _lut_rewrite_signature(
            fault.target.index, "invert", fault.target.line, 0,
            start, window, fault.duration_cycles < 1.0, analysis)
    if model is FaultModel.PULSE and kind is TargetKind.CB_INPUT:
        return ("cb-invert", fault.target.index, start, window)
    if model is FaultModel.INDETERMINATION:
        if fault.value is None or fault.oscillate:
            # Consumes injector randomness; behaviour is seed-dependent.
            return None
        if kind is TargetKind.FF:
            return ("ff-force", fault.target.index, fault.value,
                    start, window)
        if kind is TargetKind.LUT:
            return _lut_rewrite_signature(
                fault.target.index, "stuck", fault.target.line,
                fault.value, start, window, False, analysis)
    return None


def _lut_rewrite_signature(lut_index: int, op: str, line: int, value: int,
                           start: int, window: int, sub_cycle: bool,
                           analysis: Optional[ObservabilityAnalysis],
                           ) -> Optional[Signature]:
    """Key a LUT truth-table rewrite by its *effective* faulty table.

    Without an analysis the raw rewritten table is used; with one, both
    tables are masked to the reachable entries first, merging rewrites
    that only disagree on dead entries.  A sub-cycle pulse performs one
    injection operation instead of two (different emulated cost), so it
    never shares a class with a whole-cycle pulse.
    """
    if analysis is None:
        return ("lutmod", lut_index, op, line, value, start, window,
                sub_cycle)
    lut = analysis.mapped.luts[lut_index]
    if line >= len(lut.ins):
        return None  # malformed target; leave it to the injector
    golden = lut.padded_tt()
    if op == "invert":
        faulty = invert_lut_line(golden, line)
    else:
        faulty = stuck_lut_line(golden, line, value)
    mask = analysis.reachable_mask(lut_index)
    return ("lutmod", lut_index, faulty & mask, start, window, sub_cycle)


def collapse_faultload(faults: Sequence[Fault], cycles: int,
                       analysis: Optional[ObservabilityAnalysis] = None,
                       ) -> List[FaultClass]:
    """Partition a faultload into equivalence classes.

    Every fault lands in exactly one class; uncollapsible faults form
    singletons.  The representative is the lowest faultload index, so a
    serial campaign meets it first and parallel attribution is
    deterministic.
    """
    by_signature: Dict[Signature, List[int]] = {}
    singletons: List[FaultClass] = []
    for index, fault in enumerate(faults):
        signature = behavioral_signature(fault, cycles, analysis)
        if signature is None:
            singletons.append(FaultClass(
                ("singleton", index), index, (index,)))
        else:
            by_signature.setdefault(signature, []).append(index)
    classes = [
        FaultClass(signature, members[0], tuple(members))
        for signature, members in by_signature.items()]
    classes.extend(singletons)
    classes.sort(key=lambda cls: cls.representative)
    return classes

