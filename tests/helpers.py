"""Shared helpers for the test suite: tiny designs and random circuits."""

from __future__ import annotations

import random
from typing import List

from repro.hdl import Netlist, Rtl


def build_counter(width: int = 4) -> Netlist:
    """An enabled wrap-around counter with a terminal-count output."""
    rtl = Rtl("counter")
    en = rtl.input("en", 1)
    count = rtl.register("count", width)
    count.drive(rtl.inc(count.q), en=en)
    rtl.output("value", count.q)
    rtl.output("tc", rtl.reduce_and(count.q))
    return rtl.build()


def build_alu4() -> Netlist:
    """A small 4-bit ALU: op selects among ADD/SUB/AND/XOR."""
    rtl = Rtl("alu4")
    a = rtl.input("a", 4)
    b = rtl.input("b", 4)
    op = rtl.input("op", 2)
    with rtl.unit("ALU"):
        add, carry = rtl.add(a, b)
        sub, borrow = rtl.sub(a, b)
        result = rtl.select(op, [add, sub, rtl.and_(a, b), rtl.xor_(a, b)])
        flag = rtl.mux(rtl.bit(op, 0), carry, borrow)
    rtl.output("result", result)
    rtl.output("flag", flag)
    return rtl.build()


def build_accumulator(width: int = 8) -> Netlist:
    """Registered accumulator with a memory: acc += mem[addr] each cycle."""
    rtl = Rtl("accum")
    addr = rtl.input("addr", 4)
    load = rtl.input("load", 1)
    mem = rtl.memory("scratch", depth=16, width=width,
                     init=[(3 * i + 1) % 256 for i in range(16)])
    acc = rtl.register("acc", width)
    total, _ = rtl.add(acc.q, mem.rdata)
    acc.drive(rtl.mux(load, acc.q, total))  # load=1: accumulate
    mem.connect(raddr=addr)
    rtl.output("acc_out", acc.q)
    return rtl.build()


def random_netlist(seed: int, n_inputs: int = 4, n_gates: int = 30,
                   n_ffs: int = 3) -> Netlist:
    """A random but valid synchronous design for property tests."""
    rng = random.Random(seed)
    rtl = Rtl(f"rand{seed}")
    pool: List = []
    for index in range(n_inputs):
        pool.append(rtl.input(f"in{index}", 1))
    regs = [rtl.register(f"r{index}", 1, init=rng.randint(0, 1))
            for index in range(n_ffs)]
    pool.extend(reg.q for reg in regs)
    for _ in range(n_gates):
        kind = rng.choice(["and", "or", "xor", "not", "mux"])
        a = rng.choice(pool)
        b = rng.choice(pool)
        if kind == "and":
            out = rtl.and_(a, b)
        elif kind == "or":
            out = rtl.or_(a, b)
        elif kind == "xor":
            out = rtl.xor_(a, b)
        elif kind == "not":
            out = rtl.not_(a)
        else:
            out = rtl.mux(rng.choice(pool), a, b)
        pool.append(out)
    for reg in regs:
        reg.drive(rng.choice(pool))
    for index in range(2):
        rtl.output(f"out{index}", rng.choice(pool))
    return rtl.build()


def random_stimulus(seed: int, names: List[str], widths: List[int],
                    cycles: int) -> List[dict]:
    """Deterministic random input vectors, one dict per cycle."""
    rng = random.Random(seed ^ 0x5EED)
    return [{name: rng.randrange(1 << width)
             for name, width in zip(names, widths)}
            for _ in range(cycles)]
