"""Reference instruction-set simulator for the 8051 subset.

A plain-Python interpreter used to validate both the assembler and the RTL
hardware model: the RTL CPU and this ISS must agree on architectural state,
port-write sequences *and cycle counts* for every program (the RTL's state
walk is deterministic, so :meth:`~repro.mc8051.isa.InstrSpec.cycles` is
exact).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..hdl.logic import parity
from .isa import (AGEN_DIR, AGEN_IND, AGEN_REG, ALU_ADD,
                  ALU_ADDC, ALU_AND, ALU_CLR, ALU_CMP, ALU_CPL, ALU_DEC,
                  ALU_INC, ALU_OR, ALU_PASSA, ALU_PASSB, ALU_RL, ALU_RR,
                  ALU_SUBB, ALU_XOR, ASRC_ACC, BR_CJNE, BR_DJNZ, BR_JC,
                  BR_JNC, BR_JNZ, BR_JZ, BR_LJMP, BR_RET, BR_SJMP,
                  BSRC_OP1, BSRC_OP2, DEST_ACC, DEST_MEM,
                  FLAG_ARITH, FLAG_CMP, FLAG_CY0, FLAG_CY1, FLAG_CYCPL,
                  PSW_AC, PSW_CY, PSW_F0, PSW_OV, PSW_P, PSW_RS0,
                  SFR_ACC, SFR_B, SFR_DPH, SFR_DPL, SFR_P0, SFR_P1, SFR_P2,
                  SFR_PSW, SFR_SP, STACK_CALL, STACK_POP,
                  STACK_PUSH, STACK_RET, EXT_DPTR_INC, EXT_DPTR_LOAD,
                  EXT_MOVC, spec_for)

IRAM_SIZE = 128
ROM_SIZE = 512
PC_MASK = 0xFFF


class Iss:
    """Interpreter state: IRAM, SFRs and the program counter."""

    def __init__(self, rom: bytes):
        if len(rom) > ROM_SIZE:
            raise ValueError(f"program of {len(rom)} bytes exceeds ROM")
        self.rom = bytes(rom) + bytes(ROM_SIZE - len(rom))
        self.iram: List[int] = [0] * IRAM_SIZE
        self.pc = 0
        self.acc = 0
        self.b = 0
        self.sp = 0x07
        self.dpl = 0
        self.dph = 0
        self.p0 = 0
        self.p1 = 0
        self.p2 = 0
        self.cy = 0
        self.ac = 0
        self.ov = 0
        self.f0 = 0
        self.rs = 0
        self.cycles = 0
        #: (cycle, value) pairs of every write to port P1.
        self.p1_writes: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    @property
    def psw(self) -> int:
        """Assembled PSW byte (P is computed from ACC)."""
        return ((self.cy << PSW_CY) | (self.ac << PSW_AC)
                | (self.f0 << PSW_F0) | ((self.rs & 3) << PSW_RS0)
                | (self.ov << PSW_OV) | (parity(self.acc) << PSW_P))

    def _write_psw(self, value: int) -> None:
        self.cy = (value >> PSW_CY) & 1
        self.ac = (value >> PSW_AC) & 1
        self.f0 = (value >> PSW_F0) & 1
        self.rs = (value >> PSW_RS0) & 3
        self.ov = (value >> PSW_OV) & 1

    def read_sfr(self, addr: int) -> int:
        """Direct-address read in SFR space (unimplemented SFRs read 0)."""
        return {
            SFR_ACC: self.acc, SFR_B: self.b, SFR_PSW: self.psw,
            SFR_SP: self.sp, SFR_DPL: self.dpl, SFR_DPH: self.dph,
            SFR_P0: self.p0, SFR_P1: self.p1, SFR_P2: self.p2,
        }.get(addr, 0)

    def write_sfr(self, addr: int, value: int) -> None:
        """Direct-address write in SFR space (unimplemented SFRs ignore)."""
        value &= 0xFF
        if addr == SFR_ACC:
            self.acc = value
        elif addr == SFR_B:
            self.b = value
        elif addr == SFR_PSW:
            self._write_psw(value)
        elif addr == SFR_SP:
            self.sp = value
        elif addr == SFR_DPL:
            self.dpl = value
        elif addr == SFR_DPH:
            self.dph = value
        elif addr == SFR_P0:
            self.p0 = value
        elif addr == SFR_P1:
            self.p1 = value
            self.p1_writes.append((self.cycles, value))
        elif addr == SFR_P2:
            self.p2 = value

    def reg_addr(self, n: int) -> int:
        """IRAM address of Rn in the current bank."""
        return (self.rs << 3) | n

    # ------------------------------------------------------------------
    def step_instruction(self) -> int:
        """Execute one instruction; returns its cycle count."""
        opcode = self.rom[self.pc & PC_MASK]
        spec = spec_for(opcode)
        op1 = self.rom[(self.pc + 1) & PC_MASK] if spec.length >= 2 else 0
        op2 = self.rom[(self.pc + 2) & PC_MASK] if spec.length >= 3 else 0
        next_pc = (self.pc + spec.length) & PC_MASK

        # --- address generation & operand fetch ------------------------
        mar = 0
        tmp = 0
        sfr_access = False
        if spec.ext == EXT_MOVC:
            code_addr = (((self.dph << 8) | self.dpl) + self.acc) & PC_MASK
            tmp = self.rom[code_addr % ROM_SIZE] \
                if code_addr < ROM_SIZE else 0
        elif spec.stack == STACK_POP:
            tmp = self.iram[self.sp & (IRAM_SIZE - 1)]
            mar = op1
            sfr_access = op1 >= 0x80
        elif spec.stack == STACK_RET:
            pch = self.iram[self.sp & (IRAM_SIZE - 1)]
            pcl = self.iram[(self.sp - 1) & (IRAM_SIZE - 1)]
        elif spec.agen == AGEN_REG:
            mar = self.reg_addr(opcode & 0x07)
            tmp = self.iram[mar]
        elif spec.agen == AGEN_IND:
            pointer = self.iram[self.reg_addr(opcode & 0x01)]
            mar = pointer & (IRAM_SIZE - 1)
            tmp = self.iram[mar]
        elif spec.agen == AGEN_DIR:
            if op1 >= 0x80:
                sfr_access = True
                mar = op1
                tmp = self.read_sfr(op1)
            else:
                mar = op1 & (IRAM_SIZE - 1)
                tmp = self.iram[mar]

        # --- ALU ---------------------------------------------------------
        a_side = tmp if spec.asrc != ASRC_ACC else self.acc
        if spec.bsrc == BSRC_OP1:
            b_side = op1
        elif spec.bsrc == BSRC_OP2:
            b_side = op2
        else:
            b_side = tmp

        result = 0
        new_cy, new_ac, new_ov = self.cy, self.ac, self.ov
        aluop = spec.aluop
        if aluop == ALU_PASSB:
            result = b_side
        elif aluop == ALU_PASSA:
            result = self.acc
        elif aluop in (ALU_ADD, ALU_ADDC):
            carry_in = self.cy if aluop == ALU_ADDC else 0
            total = a_side + b_side + carry_in
            result = total & 0xFF
            new_cy = total >> 8
            new_ac = 1 if ((a_side & 0xF) + (b_side & 0xF)
                           + carry_in) > 0xF else 0
            signed = ((a_side ^ b_side) ^ 0x80) & (a_side ^ result) & 0x80
            new_ov = 1 if signed else 0
        elif aluop == ALU_SUBB:
            total = a_side - b_side - self.cy
            result = total & 0xFF
            new_cy = 1 if total < 0 else 0
            new_ac = 1 if (a_side & 0xF) - (b_side & 0xF) - self.cy < 0 else 0
            signed = (a_side ^ b_side) & (a_side ^ result) & 0x80
            new_ov = 1 if signed else 0
        elif aluop == ALU_CMP:
            result = (a_side - b_side) & 0xFF
            new_cy = 1 if a_side < b_side else 0
        elif aluop == ALU_AND:
            result = a_side & b_side
        elif aluop == ALU_OR:
            result = a_side | b_side
        elif aluop == ALU_XOR:
            result = a_side ^ b_side
        elif aluop == ALU_INC:
            result = (a_side + 1) & 0xFF
        elif aluop == ALU_DEC:
            result = (a_side - 1) & 0xFF
        elif aluop == ALU_CPL:
            result = self.acc ^ 0xFF
        elif aluop == ALU_CLR:
            result = 0
        elif aluop == ALU_RL:
            result = ((self.acc << 1) | (self.acc >> 7)) & 0xFF
        elif aluop == ALU_RR:
            result = ((self.acc >> 1) | (self.acc << 7)) & 0xFF

        # --- flags -------------------------------------------------------
        if spec.flags == FLAG_ARITH:
            self.cy, self.ac, self.ov = new_cy, new_ac, new_ov
        elif spec.flags == FLAG_CMP:
            self.cy = new_cy
        elif spec.flags == FLAG_CY0:
            self.cy = 0
        elif spec.flags == FLAG_CY1:
            self.cy = 1
        elif spec.flags == FLAG_CYCPL:
            self.cy ^= 1

        # --- cycle accounting happens before write-back so that port
        # writes can record the precise write cycle --------------------
        instruction_cycles = spec.cycles()
        self.cycles += instruction_cycles

        # --- write-back --------------------------------------------------
        if spec.ext == EXT_DPTR_LOAD:
            self.dph = op1
            self.dpl = op2
        elif spec.ext == EXT_DPTR_INC:
            dptr = (((self.dph << 8) | self.dpl) + 1) & 0xFFFF
            self.dph, self.dpl = (dptr >> 8) & 0xFF, dptr & 0xFF
        if spec.xch:
            self.acc = tmp
        if spec.stack == STACK_PUSH:
            self.sp = (self.sp + 1) & 0xFF
            self.iram[self.sp & (IRAM_SIZE - 1)] = result & 0xFF
        elif spec.stack == STACK_POP:
            self.sp = (self.sp - 1) & 0xFF
            if sfr_access:
                self.write_sfr(mar, result)
            else:
                self.iram[mar & (IRAM_SIZE - 1)] = result & 0xFF
        elif spec.stack == STACK_CALL:
            self.sp = (self.sp + 1) & 0xFF
            self.iram[self.sp & (IRAM_SIZE - 1)] = next_pc & 0xFF
            self.sp = (self.sp + 1) & 0xFF
            self.iram[self.sp & (IRAM_SIZE - 1)] = (next_pc >> 8) & 0x0F
        elif spec.dest == DEST_ACC:
            self.acc = result & 0xFF
        elif spec.dest == DEST_MEM:
            if sfr_access:
                self.write_sfr(mar, result)
            else:
                self.iram[mar] = result & 0xFF

        # --- branches ------------------------------------------------------
        branch = spec.branch
        taken = False
        if branch == BR_JC:
            taken = bool(self.cy)
        elif branch == BR_JNC:
            taken = not self.cy
        elif branch == BR_JZ:
            taken = self.acc == 0
        elif branch == BR_JNZ:
            taken = self.acc != 0
        elif branch == BR_SJMP:
            taken = True
        elif branch == BR_CJNE:
            taken = result != 0
        elif branch == BR_DJNZ:
            taken = result != 0
        if branch == BR_RET:
            self.sp = (self.sp - 2) & 0xFF
            self.pc = ((pch << 8) | pcl) & PC_MASK
        elif branch == BR_LJMP:
            self.pc = ((op1 << 8) | op2) & PC_MASK
        elif taken:
            rel = op2 if spec.length == 3 else op1
            if rel >= 128:
                rel -= 256
            self.pc = (next_pc + rel) & PC_MASK
        else:
            self.pc = next_pc
        return instruction_cycles

    def run(self, max_cycles: int) -> int:
        """Run until *max_cycles* is reached; returns cycles executed."""
        while self.cycles < max_cycles:
            self.step_instruction()
        return self.cycles

    def run_until_idle(self, max_cycles: int = 1_000_000) -> int:
        """Run until the program spins in place (``SJMP $``) or the cycle
        budget is exhausted; returns total cycles."""
        while self.cycles < max_cycles:
            before = self.pc
            self.step_instruction()
            opcode = self.rom[self.pc & PC_MASK]
            if self.pc == before and opcode == 0x80 \
                    and self.rom[(self.pc + 1) & PC_MASK] == 0xFE:
                break
            if opcode == 0x80 and self.rom[(self.pc + 1) & PC_MASK] == 0xFE:
                # Entered the terminal self-loop.
                break
        return self.cycles

    def state(self) -> Dict[str, int]:
        """Architectural state snapshot for comparisons."""
        return {
            "pc": self.pc, "acc": self.acc, "b": self.b, "psw": self.psw,
            "sp": self.sp, "p1": self.p1, "p2": self.p2,
        }
