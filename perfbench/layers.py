"""Layer tracer: self time per FADES layer, from outside the program.

:class:`LayerTracer` replaces module and class attributes of ``repro``
(``repro.emu.backend.run_lanes``, ``Device.write_frame``,
``Bitstream.diff_frames``, ...) with timing wrappers, and puts every
original back on :meth:`LayerTracer.uninstall`.  Nothing inside ``src/``
is instrumented.

Each wrapped call is a span.  Spans nest on one stack; a layer's self
time is its span durations minus the time covered by wrapped calls made
inside them.  Time inside the root span (one ``run_campaign`` call) that
no wrapped call covers is the unattributed remainder,
``runtime.engine``.  A span may *absorb* named inner layers: the golden
run steps the device (reference) or runs one lane (compiled), and that
work is set-up, so it stays in ``core.golden``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

#: Marker set on every wrapper, so a clean process can be verified.
MARK = "__perfbench_layer__"

ROOT = "runtime.engine"

#: Layers whose time is set-up (before the first experiment).
SETUP_LAYERS = ("mc8051.build", "synth.synthesize", "fpga.place",
                "fpga.route", "fpga.timing", "fpga.bitgen", "emu.compile",
                "core.golden", "core.campaign_init")


def _write_frame_layer(args: Tuple, kwargs: Dict) -> str:
    kind = (args[1] if len(args) > 1 else kwargs["addr"]).kind
    return "fpga.device.write_frame." + (
        kind if kind in ("cb", "route") else "other")


def _count_lanes(tracer: "LayerTracer", args: Tuple, kwargs: Dict,
                 _result: Any) -> None:
    lanes = args[1] if len(args) > 1 else kwargs["lanes"]
    cycles = args[2] if len(args) > 2 else kwargs["cycles"]
    tracer.add("emu.lanes.batches", 1)
    tracer.add("emu.lanes.fault_lanes", lanes - 1)
    tracer.add("emu.lanes.lane_cycles", lanes * cycles)


def _count_restore(tracer: "LayerTracer", args: Tuple, _kwargs: Dict,
                   result: Any) -> None:
    tracer.add("fpga.bitstream.frames_restored", len(result))
    tracer.add("fpga.bitstream.frames_compared", len(args[0].frames))


def _count_transaction(tracer: "LayerTracer", _args: Tuple, _kwargs: Dict,
                       _result: Any) -> None:
    tracer.add("fpga.board.transactions", 1)


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module.path`` times into ``layer``.

    ``layer`` may be a function of the call's ``(args, kwargs)``;
    ``absorbs`` names inner layers whose calls stay in this one; ``hook``
    sees ``(tracer, args, kwargs, result)`` after each traced call.
    """

    module: str
    path: str
    layer: Any
    absorbs: FrozenSet[str] = frozenset()
    hook: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("repro.runtime.engine", "build_campaign", "core.campaign_init"),
    Target("repro.mc8051", "build_mc8051", "mc8051.build"),
    Target("repro.core", "synthesize", "synth.synthesize"),
    Target("repro.fpga.implement", "place", "fpga.place"),
    Target("repro.fpga.implement", "route", "fpga.route"),
    Target("repro.fpga.timing", "TimingAnalysis.__init__", "fpga.timing"),
    Target("repro.fpga.implement", "generate_bitstream", "fpga.bitgen"),
    Target("repro.emu.backend", "compile_design", "emu.compile"),
    Target("repro.core.campaign", "FadesCampaign.golden_run", "core.golden",
           absorbs=frozenset({"emu.lanes.run", "fpga.device.step"})),
    Target("repro.core.campaign", "FadesCampaign.run_experiment",
           "core.experiment"),
    Target("repro.core.campaign", "classify", "core.classify"),
    Target("repro.emu", "run_lane_batch", "emu.batch"),
    Target("repro.emu.backend", "_replay", "emu.replay"),
    Target("repro.emu.backend", "run_lanes", "emu.lanes.run",
           hook=_count_lanes),
    Target("repro.core.injector", "FadesInjector.prepare",
           "core.injector.prepare"),
    Target("repro.fpga.device", "Device.write_frame", _write_frame_layer),
    Target("repro.fpga.device", "Device.refresh_timing",
           "fpga.device.refresh_timing"),
    Target("repro.fpga.device", "Device.step", "fpga.device.step"),
    Target("repro.fpga.bitstream", "Bitstream.diff_frames",
           "fpga.bitstream.diff_frames", hook=_count_restore),
    Target("repro.fpga.board", "Board.snapshot", "fpga.board.accounting"),
    Target("repro.fpga.board", "Board.since", "fpga.board.accounting"),
    Target("repro.fpga.board", "Board.transaction", "fpga.board.accounting",
           hook=_count_transaction),
    Target("repro.runtime.journal", "JournalWriter.append_record",
           "runtime.journal.append"),
)


def all_targets() -> List[Target]:
    """:data:`TARGETS` plus ``inject``/``tick``/``remove`` of every
    injection recipe class (as ``core.injector.reconfigure``)."""
    module = importlib.import_module("repro.core.injector")
    targets = list(TARGETS)
    for name, cls in sorted(vars(module).items()):
        if isinstance(cls, type) and issubclass(cls, module.Injection) \
                and cls.__module__ == module.__name__:
            targets.extend(
                Target(module.__name__, f"{name}.{method}",
                       "core.injector.reconfigure")
                for method in ("inject", "tick", "remove")
                if method in vars(cls))
    return targets


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Frame:
    __slots__ = ("child", "absorbs")

    def __init__(self, absorbs: FrozenSet[str]):
        self.child = 0.0
        self.absorbs = absorbs


class LayerTracer:
    """Self time, calls and counters per layer for one process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[_Frame] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- accounting ---------------------------------------------------
    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def _wrap(self, original: Callable, target: Target) -> Callable:
        layer, absorbs, hook = target.layer, target.absorbs, target.hook
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            if not stack or name in stack[-1].absorbs:
                # Outside a root span, or work the caller owns.
                return original(*args, **kwargs)
            frame = _Frame(absorbs)
            stack.append(frame)
            begin = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - begin
                stack.pop()
                self_s[name] = self_s.get(name, 0.0) + elapsed - frame.child
                calls[name] = calls.get(name, 0) + 1
                stack[-1].child += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def root(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call *fn* as the root span; its self time is the remainder."""
        frame = _Frame(frozenset())
        self._stack.append(frame)
        begin = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - begin
            self._stack.pop()
            self.self_s[ROOT] = self.self_s.get(ROOT, 0.0) + elapsed \
                - frame.child
            self.calls[ROOT] = self.calls.get(ROOT, 0) + 1
            self.add("traced_wall_s", elapsed)

    # -- patching -----------------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("layer tracer already installed")
        for target in all_targets():
            owner, attr = _resolve(target.module, target.path)
            # Read from __dict__ for classes: getattr would return a
            # bound or inherited attribute, not what setattr replaces.
            original = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.uninstall()


#: Per-layer metrics of a traced run, in report order: (name, unit).  A
#: layer's ``.s`` is its own self seconds in one repetition, so it moves
#: only when that layer's work does; 0 s means the workload never enters
#: the layer.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [(f"{layer}.s", "s") for layer in SETUP_LAYERS] + [
        ("fpga.device.write_frame.cb.s", "s"),
        ("fpga.device.write_frame.cb.calls", "count"),
        ("fpga.device.write_frame.route.s", "s"),
        ("fpga.device.write_frame.route.calls", "count"),
        ("fpga.device.write_frame.other.s", "s"),
        ("fpga.device.refresh_timing.s", "s"),
        ("fpga.device.refresh_timing.calls", "count"),
        ("fpga.bitstream.diff_frames.s", "s"),
        ("fpga.bitstream.restore_ratio", "ratio"),
        ("fpga.board.accounting.s", "s"),
        ("fpga.board.transactions", "count"),
        ("emu.lanes.run.s", "s"),
        ("emu.lanes.batches", "count"),
        ("emu.lanes.fill", "ratio"),
        ("emu.lanes.lane_cycles_per_s", "1/s"),
        ("emu.replay.s", "s"),
        ("emu.batch.s", "s"),
        ("fpga.device.step.s", "s"),
        ("fpga.device.steps_per_fault", "count"),
        ("core.experiment.s", "s"),
        ("core.classify.s", "s"),
        ("core.injector.prepare.s", "s"),
        ("core.injector.reconfigure.s", "s"),
        ("runtime.journal.append.s", "s"),
        ("runtime.journal.records", "count"),
        (f"{ROOT}.s", "s"),
        ("tracing.traced_wall_s", "s"),
        ("tracing.overhead_ratio", "ratio"),
    ])


def layer_metrics(tracer: LayerTracer, faults: int,
                  lane_width: int) -> Dict[str, float]:
    """Per-layer values of one traced repetition (``tracing.overhead_ratio``
    needs an untraced repetition and is left to the harness)."""
    self_s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    values: Dict[str, float] = {f"{layer}.s": seconds
                                for layer, seconds in self_s.items()}
    values["tracing.traced_wall_s"] = counters["traced_wall_s"]
    for kind in ("cb", "route"):
        values[f"fpga.device.write_frame.{kind}.calls"] = calls.get(
            f"fpga.device.write_frame.{kind}", 0)
    values["fpga.device.refresh_timing.calls"] = calls.get(
        "fpga.device.refresh_timing", 0)
    compared = counters.get("fpga.bitstream.frames_compared", 0.0)
    values["fpga.bitstream.restore_ratio"] = (
        counters.get("fpga.bitstream.frames_restored", 0.0) / compared
        if compared else 0.0)
    values["fpga.board.transactions"] = counters.get(
        "fpga.board.transactions", 0.0)
    batches = counters.get("emu.lanes.batches", 0.0)
    values["emu.lanes.batches"] = batches
    values["emu.lanes.fill"] = (
        counters.get("emu.lanes.fault_lanes", 0.0)
        / (batches * (lane_width - 1)) if batches else 0.0)
    run_s = self_s.get("emu.lanes.run", 0.0)
    values["emu.lanes.lane_cycles_per_s"] = (
        counters.get("emu.lanes.lane_cycles", 0.0) / run_s if run_s else 0.0)
    values["fpga.device.steps_per_fault"] = (
        calls.get("fpga.device.step", 0) / faults if faults else 0.0)
    values["runtime.journal.records"] = calls.get(
        "runtime.journal.append", 0)
    return {name: float(values.get(name, 0.0)) for name, _unit in PER_LAYER
            if name != "tracing.overhead_ratio"}


def layer_shares(tracer: LayerTracer) -> Dict[str, float]:
    """Each layer's self seconds as a share of traced wall (detail only:
    a share moves whenever any other layer does)."""
    wall = tracer.counters["traced_wall_s"]
    return {layer: seconds / wall
            for layer, seconds in sorted(tracer.self_s.items())}


def wrapped_attributes() -> List[str]:
    """Every traced attribute that currently holds a wrapper (should be
    empty outside an installed tracer)."""
    found = []
    for target in all_targets():
        owner, attr = _resolve(target.module, target.path)
        value = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if getattr(value, MARK, False):
            found.append(f"{target.module}.{target.path}")
    return found
