"""Mapped netlist -> code compiler: straight-line bitwise-integer Python.

Every net carries a W-bit integer whose bit *k* is the net's binary value
in lane *k*; lane 0 is the golden run.  A LUT truth table is lowered by
Shannon decomposition into a minimal masked boolean expression over its
live operands (``M`` is the all-lanes mask, passed in as a parameter so
the generated code is independent of the lane count), and the whole
:class:`~repro.synth.mapped.MappedNetlist` becomes one generated ``step``
function executed once per clock cycle: dead logic is stripped, a second
``step_ov`` variant carries per-LUT override hooks for truth-table
faults, and flip-flop/memory ports are exposed as packed vectors.
Compilation happens once per design through :func:`compile_design` and
is cached two ways: per mapped-netlist object, and by source hash across
objects (two implementations of the same design share code objects).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..hdl.netlist import CONST0, CONST1
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from ..synth.mapped import MappedNetlist

_COMPILES = obs_metrics.counter(
    "emu_compile_total",
    "Design compilations by cache result.")

#: Compiled code namespaces keyed by source hash (shared across designs
#: with identical structure, e.g. re-implementations of one netlist).
_CODE_CACHE: Dict[str, Dict] = {}

#: Packed truth-table evaluators keyed by 16-bit padded table.
_TT_FN_CACHE: Dict[int, Callable] = {}


# ---------------------------------------------------------------------------
# expression generation
# ---------------------------------------------------------------------------
def _cofactor(tt: int, n_vars: int, pos: int, value: int) -> int:
    """Truth table with variable *pos* fixed to *value* (one var fewer)."""
    out = 0
    low_mask = (1 << pos) - 1
    for index in range(1 << (n_vars - 1)):
        full = ((index >> pos) << (pos + 1)) | (index & low_mask)
        if value:
            full |= 1 << pos
        if (tt >> full) & 1:
            out |= 1 << index
    return out


def _fold_constants(tt: int, ins: Tuple[int, ...]) -> Tuple[int, List[int]]:
    """Cofactor away constant operands; returns (tt', non-const nets)."""
    nets = list(ins)
    for pos in range(len(nets) - 1, -1, -1):
        net = nets[pos]
        if net == CONST0 or net == CONST1:
            tt = _cofactor(tt, len(nets), pos, 1 if net == CONST1 else 0)
            del nets[pos]
    return tt, nets


def bool_expr(tt: int, names: List[str]) -> str:
    """Masked bitwise expression computing *tt* over packed operands.

    Operands and the result are subsets of the all-lanes mask ``M``;
    Shannon decomposition on the last variable with special cases for
    the buffer/inverter/XOR cofactor patterns keeps the operation count
    near the minimum for 4-input tables.
    """
    n_vars = len(names)
    full = (1 << (1 << n_vars)) - 1
    if tt == 0:
        return "0"
    if tt == full:
        return "M"
    if n_vars == 1:
        return names[0] if tt == 0b10 else f"(M ^ {names[0]})"
    half = 1 << (n_vars - 1)
    sub_full = (1 << half) - 1
    f0, f1 = tt & sub_full, tt >> half
    var = names[-1]
    rest = names[:-1]
    if f0 == f1:
        return bool_expr(f0, rest)
    if f0 == 0 and f1 == sub_full:
        return var
    if f0 == sub_full and f1 == 0:
        return f"(M ^ {var})"
    if f1 == (f0 ^ sub_full):
        return f"({var} ^ {bool_expr(f0, rest)})"
    if f0 == 0:
        return f"({var} & {bool_expr(f1, rest)})"
    if f1 == 0:
        return f"({bool_expr(f0, rest)} & ~{var})"
    if f0 == sub_full:
        return f"({bool_expr(f1, rest)} | (M ^ {var}))"
    if f1 == sub_full:
        return f"({var} | {bool_expr(f0, rest)})"
    return (f"(({bool_expr(f0, rest)} & ~{var})"
            f" | ({bool_expr(f1, rest)} & {var}))")


def tt_function(padded_tt: int) -> Callable:
    """Packed evaluator ``f(a, b, c, d, M)`` for a 16-bit truth table.

    Used by the lane manager's override hooks to recompute a faulted
    LUT's value (pulse inversion, indetermination stuck level) for the
    lanes whose experiment rewrote the table.
    """
    cached = _TT_FN_CACHE.get(padded_tt)
    if cached is not None:
        return cached
    expr = bool_expr(padded_tt & 0xFFFF, ["a", "b", "c", "d"])
    fn = eval(f"lambda a, b, c, d, M: {expr}")  # noqa: S307 - own codegen
    _TT_FN_CACHE[padded_tt] = fn
    return fn


# ---------------------------------------------------------------------------
# compiled-design description
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MemSpec:
    """Port layout of one memory block in the generated code's B vector."""

    name: str
    depth: int
    width: int
    rom: bool
    init: Tuple[int, ...]
    r_base: int                  # first index of this block's rdata in R
    b_raddr: Tuple[int, ...]     # indices into B, read-address bits
    b_we: int                    # index into B, write enable (-1 for ROM)
    b_waddr: Tuple[int, ...]
    b_wdata: Tuple[int, ...]


@dataclass(frozen=True)
class CompiledDesign:
    """One design lowered to a pair of generated step functions.

    ``step(M, S, I, R, D, O, B)`` evaluates one clock cycle: it reads
    packed flip-flop state ``S``, primary inputs ``I`` and registered
    memory read ports ``R``, and writes next-state ``D``, flat primary
    outputs ``O`` and memory port values ``B``.  ``step_hooked`` is the
    same function with a per-LUT override dictionary (``OV``) consulted
    after each LUT assignment; it only runs on cycles with an active
    truth-table fault.
    """

    name: str
    source: str
    step: Callable
    step_hooked: Callable
    ff_init: Tuple[int, ...]
    input_positions: Tuple[Tuple[str, Tuple[int, ...]], ...]
    outputs: Tuple[Tuple[str, int], ...]
    mems: Tuple[MemSpec, ...]
    n_flat_in: int
    n_flat_out: int
    n_r: int
    n_b: int
    live_luts: int


def _generate_mapped(mapped: MappedNetlist) -> Tuple[str, Dict]:
    """Generate the step functions' source plus the port-layout metadata."""
    # Fold constant LUT operands once; keep the original padded input
    # list alongside for the override hooks (they see the raw 4 inputs).
    folded = []
    for lut in mapped.luts:
        tt, nets = _fold_constants(lut.padded_tt(), tuple(
            list(lut.ins) + [CONST0] * (4 - len(lut.ins))))
        folded.append((tt, nets))

    # Dead-logic strip: only LUTs that (transitively) feed an output, a
    # flip-flop or a memory port are evaluated.  Faults on dead LUTs are
    # no-ops in the reference device too — their value feeds nothing.
    roots = set()
    for nets in mapped.outputs.values():
        roots.update(nets)
    for ff in mapped.ffs:
        roots.add(ff.d)
    for bram in mapped.brams:
        roots.update(bram.raddr)
        if not bram.rom:
            roots.add(bram.we)
            roots.update(bram.waddr)
            roots.update(bram.wdata)
    live_nets = set(roots)
    live = [False] * len(mapped.luts)
    for index in range(len(mapped.luts) - 1, -1, -1):
        lut = mapped.luts[index]
        if lut.out in live_nets:
            live[index] = True
            live_nets.update(folded[index][1])
            live_nets.update(net for net in lut.ins
                             if net not in (CONST0, CONST1))

    # Where each net that no LUT drives is read from.
    sources: Dict[int, str] = {}
    for ff_index, ff in enumerate(mapped.ffs):
        sources[ff.q] = f"S[{ff_index}]"
    input_positions = []
    flat_in = 0
    for name, nets in mapped.inputs.items():
        positions = []
        for net in nets:
            positions.append(flat_in)
            sources[net] = f"I[{flat_in}]"
            flat_in += 1
        input_positions.append((name, tuple(positions)))
    n_r = 0
    for bram in mapped.brams:
        for net in bram.rdata:
            sources[net] = f"R[{n_r}]"
            n_r += 1

    # D/O/B stores by net: each is written right after its value exists.
    stores: Dict[int, List[str]] = {}

    def store(net: int, slot: str) -> None:
        stores.setdefault(net, []).append(slot)

    for ff_index, ff in enumerate(mapped.ffs):
        store(ff.d, f"D[{ff_index}]")
    outputs = []
    flat_out = 0
    for name, nets in mapped.outputs.items():
        outputs.append((name, len(nets)))
        for net in nets:
            store(net, f"O[{flat_out}]")
            flat_out += 1
    mems: List[MemSpec] = []
    n_b = 0
    r_base = 0
    for bram in mapped.brams:
        def port(nets) -> Tuple[int, ...]:
            nonlocal n_b
            indices = []
            for net in nets:
                store(net, f"B[{n_b}]")
                indices.append(n_b)
                n_b += 1
            return tuple(indices)

        b_raddr = port(bram.raddr)
        b_we = -1
        b_waddr: Tuple[int, ...] = ()
        b_wdata: Tuple[int, ...] = ()
        if not bram.rom:
            (b_we,) = port((bram.we,))
            b_waddr = port(bram.waddr)
            b_wdata = port(bram.wdata)
        mems.append(MemSpec(name=bram.name, depth=bram.depth,
                            width=bram.width, init=tuple(bram.init),
                            rom=bram.rom, r_base=r_base, b_raddr=b_raddr,
                            b_we=b_we, b_waddr=b_waddr, b_wdata=b_wdata))
        r_base += bram.width

    # Locals are named by liveness: a value takes a free name when it is
    # loaded or computed and gives it back after its last reader, so
    # the step needs far fewer than 256 locals and no EXTENDED_ARG.  A
    # LUT's reads include its raw operands, which the override hook
    # passes, and its result never takes an operand's name, because the
    # hook still reads the operands after the assignment.
    order = [index for index in range(len(mapped.luts)) if live[index]]
    operands = [[net for net in mapped.luts[index].ins
                 if net not in (CONST0, CONST1)] for index in order]
    last_read: Dict[int, int] = {}
    for position, nets in enumerate(operands):
        for net in nets:
            last_read[net] = position
    names: Dict[int, str] = {}
    free: List[str] = []
    n_locals = 0

    def take(net: int) -> str:
        nonlocal n_locals
        if free:
            name = free.pop()
        else:
            name = f"v{n_locals}"
            n_locals += 1
        names[net] = name
        return name

    def operand(net: int) -> str:
        if net == CONST0:
            return "0"
        if net == CONST1:
            return "M"
        return names[net]

    head = [f"    {slot} = {sources.get(net) or operand(net)}"
            for net, slots in stores.items()
            if net in sources or net in (CONST0, CONST1) for slot in slots]
    blocks = []
    for position, index in enumerate(order):
        lut = mapped.luts[index]
        tt, nets = folded[index]
        loads = [f"    {take(net)} = {sources[net]}"
                 for net in dict.fromkeys(operands[position])
                 if net not in names]
        expr = bool_expr(tt, [names[net] for net in nets])
        result = take(lut.out)
        padded = list(lut.ins) + [CONST0] * (4 - len(lut.ins))
        args = ", ".join(operand(net) for net in padded)
        hook = (f"    if {index} in OV:\n"
                f"        {result} = OV[{index}]({result}, {args})")
        tail = [f"    {slot} = {result}"
                for slot in stores.get(lut.out, ())]
        for net in dict.fromkeys(operands[position] + [lut.out]):
            if last_read.get(net, -1) <= position:
                free.append(names[net])
        blocks.append((loads + [f"    {result} = {expr}"], hook, tail))

    lines = ["def step(M, S, I, R, D, O, B):"]
    body = list(head)
    for statements, _hook, tail in blocks:
        body += statements + tail
    lines += body or ["    pass"]
    lines.append("")
    lines.append("def step_ov(M, S, I, R, D, O, B, OV):")
    body = list(head)
    for statements, hook, tail in blocks:
        body += statements + [hook] + tail
    lines += body or ["    pass"]
    lines.append("")
    meta = {
        "input_positions": tuple(input_positions),
        "outputs": tuple(outputs),
        "mems": tuple(mems),
        "n_flat_in": flat_in,
        "n_flat_out": flat_out,
        "n_r": n_r,
        "n_b": n_b,
        "live_luts": sum(live),
    }
    return "\n".join(lines), meta


def _exec_cached(source: str, filename: str) -> Dict:
    digest = hashlib.sha1(source.encode("utf-8")).hexdigest()
    namespace = _CODE_CACHE.get(digest)
    if namespace is None:
        namespace = {}
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
        _CODE_CACHE[digest] = namespace
    return namespace


def compile_design(mapped: MappedNetlist) -> CompiledDesign:
    """Compile a mapped netlist to its lane step functions.

    The result is cached on the mapped-netlist object; regenerated
    sources that hash identically reuse already-compiled code objects.
    """
    cached = getattr(mapped, "_emu_design", None)
    if cached is not None:
        _COMPILES.inc(result="hit")
        return cached
    with span("emu_compile", design=mapped.name):
        source, meta = _generate_mapped(mapped)
        namespace = _exec_cached(source, f"<emu:{mapped.name}>")
    design = CompiledDesign(
        name=mapped.name, source=source,
        step=namespace["step"], step_hooked=namespace["step_ov"],
        ff_init=tuple(ff.init for ff in mapped.ffs), **meta)
    mapped._emu_design = design
    _COMPILES.inc(result="miss")
    return design
