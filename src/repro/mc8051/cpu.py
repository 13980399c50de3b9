"""Structural RTL model of the 8051-subset microcontroller.

The design mirrors the unit decomposition the paper injects into
(section 6.1): *registers* (REG), *RAM memory* (the IRAM block), the
*arithmetic logic unit* (ALU), the *memory control* unit (MEM) and the
*finite state machine* / decoder (FSM).  Every piece of emitted logic is
tagged with its unit so the fault-location process can build the same
per-unit experiments.

Microarchitecture: a multi-cycle accumulator machine with the fixed state
walk::

    0 FETCH   issue ROM read at PC, PC += 1
    1 DECODE  latch IR, decode; issue OP1 read when length >= 2
    2 OP1     latch OP1; issue OP2 read when length == 3
    3 OP2     latch OP2
    4 AGEN    compute the operand address, issue the IRAM read
    5 IND2    (indirect only) latch the pointer, issue the final read
    6 EXEC    ALU, flags, ACC/branch updates, latch RES
    7 WRITE   commit RES to IRAM or an SFR

Both memories are synchronous (registered reads), exactly matching the
embedded memory blocks of the FPGA substrate, so the synthesised model is
cycle-identical to this description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import WorkloadError
from ..hdl.netlist import Netlist
from ..hdl.rtl import Rtl, Word
from . import isa
from .iss import IRAM_SIZE, ROM_SIZE

#: State encoding of the control FSM.
(S_FETCH, S_DECODE, S_OP1, S_OP2, S_AGEN, S_IND, S_EXEC, S_WRITE,
 S_WRITE2) = range(9)

#: SFR registers implemented as flip-flop banks (address, register name).
SFR_REGS: Tuple[Tuple[int, str], ...] = (
    (isa.SFR_P0, "p0"),
    (isa.SFR_SP, "sp"),
    (isa.SFR_DPL, "dpl"),
    (isa.SFR_DPH, "dph"),
    (isa.SFR_P1, "p1"),
    (isa.SFR_P2, "p2"),
    (isa.SFR_B, "b"),
)


@dataclass
class Mc8051Model:
    """The elaborated microcontroller plus its model-level metadata."""

    netlist: Netlist
    rom_bytes: bytes
    iram_name: str = "iram"
    rom_name: str = "rom"
    output_names: Tuple[str, ...] = ("p1_out", "p2_out")
    #: Registers the register-file fault experiments draw from.
    register_signals: Tuple[str, ...] = (
        "acc", "b", "psw_flags", "sp", "dpl", "dph", "p1", "p2",
        "pc", "ir", "op1", "op2", "res", "mar", "state")


def _control_field(rtl: Rtl, word: Word, lo: int, width: int) -> Word:
    return rtl.bits(word, lo, width)


def build_mc8051(rom: bytes) -> Mc8051Model:
    """Elaborate the microcontroller around a program ROM image."""
    if len(rom) > ROM_SIZE:
        raise WorkloadError(
            f"program of {len(rom)} bytes exceeds the {ROM_SIZE}-byte ROM")
    rtl = Rtl("mc8051")

    # ---------------- memories -------------------------------------------
    with rtl.unit("ROM"):
        rom_mem = rtl.memory("rom", depth=ROM_SIZE, width=8,
                             init=list(rom), rom=True)
    with rtl.unit("RAM"):
        iram = rtl.memory("iram", depth=IRAM_SIZE, width=8)

    # ---------------- registers -------------------------------------------
    with rtl.unit("REG"):
        pc = rtl.register("pc", 12)
        ir = rtl.register("ir", 8)
        op1 = rtl.register("op1", 8)
        op2 = rtl.register("op2", 8)
        res = rtl.register("res", 8)
        res2 = rtl.register("res2", 8)  # high return-address byte (LCALL)
        acc = rtl.register("acc", 8)
        cy = rtl.register("cy", 1)
        ac = rtl.register("ac_flag", 1)
        ov = rtl.register("ov", 1)
        f0 = rtl.register("f0", 1)
        rs = rtl.register("rs", 2)
        sfr_regs: Dict[str, object] = {
            name: rtl.register(name, 8, init=(0x07 if name == "sp" else 0))
            for _addr, name in SFR_REGS}
    with rtl.unit("MEM"):
        mar = rtl.register("mar", 7)
    with rtl.unit("FSM"):
        state = rtl.register("state", 4, init=S_FETCH)

    # ---------------- decode ---------------------------------------------
    with rtl.unit("FSM"):
        st = [rtl.eq(state.q, rtl.const(k, 4)) for k in range(9)]
        dec_in = rtl.mux(st[S_DECODE], ir.q, rom_mem.rdata)
        control = rtl.table(
            dec_in, isa.CONTROL_WIDTH,
            lambda opcode: isa.spec_for(opcode).control_word())
        len_m1 = _control_field(rtl, control, 0, 2)
        agen = _control_field(rtl, control, 2, 2)
        aluop = _control_field(rtl, control, 4, 4)
        asrc = _control_field(rtl, control, 8, 1)
        bsrc = _control_field(rtl, control, 9, 2)
        dest = _control_field(rtl, control, 11, 2)
        branch = _control_field(rtl, control, 13, 4)
        flags = _control_field(rtl, control, 17, 3)
        xch = _control_field(rtl, control, 20, 1)
        stack = _control_field(rtl, control, 21, 3)
        is_push = rtl.eq(stack, rtl.const(isa.STACK_PUSH, 3))
        is_pop = rtl.eq(stack, rtl.const(isa.STACK_POP, 3))
        is_call = rtl.eq(stack, rtl.const(isa.STACK_CALL, 3))
        is_ret = rtl.eq(stack, rtl.const(isa.STACK_RET, 3))
        ext = _control_field(rtl, control, 24, 2)
        is_movc = rtl.eq(ext, rtl.const(isa.EXT_MOVC, 2))
        is_dptr_load = rtl.eq(ext, rtl.const(isa.EXT_DPTR_LOAD, 2))
        is_dptr_inc = rtl.eq(ext, rtl.const(isa.EXT_DPTR_INC, 2))

        len_ge2 = rtl.reduce_or(len_m1)
        len_eq3 = rtl.bit(len_m1, 1)
        agen_none = rtl.eq(agen, rtl.const(isa.AGEN_NONE, 2))
        agen_ind = rtl.eq(agen, rtl.const(isa.AGEN_IND, 2))
        agen_dir = rtl.eq(agen, rtl.const(isa.AGEN_DIR, 2))
        dest_acc = rtl.eq(dest, rtl.const(isa.DEST_ACC, 2))
        dest_mem = rtl.eq(dest, rtl.const(isa.DEST_MEM, 2))

        after_ops = rtl.mux(agen_none, rtl.const(S_AGEN, 4),
                            rtl.const(S_EXEC, 4))
        next_state = rtl.select(state.q, [
            rtl.const(S_DECODE, 4),
            rtl.mux(len_ge2, after_ops, rtl.const(S_OP1, 4)),
            rtl.mux(len_eq3, after_ops, rtl.const(S_OP2, 4)),
            after_ops,
            rtl.mux(agen_ind, rtl.const(S_EXEC, 4), rtl.const(S_IND, 4)),
            rtl.const(S_EXEC, 4),
            rtl.mux(dest_mem, rtl.const(S_FETCH, 4), rtl.const(S_WRITE, 4)),
            rtl.mux(is_call, rtl.const(S_FETCH, 4),
                    rtl.const(S_WRITE2, 4)),
            rtl.const(S_FETCH, 4),
        ], default=rtl.const(S_FETCH, 4))
        state.drive(next_state)

    # ---------------- memory control ---------------------------------------
    with rtl.unit("MEM"):
        # Operand address generation (current register bank from RS bits).
        reg_addr = rtl.cat(rtl.bits(ir.q, 0, 3), rs.q, rtl.const(0, 2))
        ind_ptr_addr = rtl.cat(rtl.bit(ir.q, 0), rtl.const(0, 2), rs.q,
                               rtl.const(0, 2))
        dir_addr = rtl.bits(op1.q, 0, 7)
        agen_addr = rtl.select(agen, [dir_addr, reg_addr, ind_ptr_addr,
                                      dir_addr])
        sp_reg = sfr_regs["sp"]
        sp_low = rtl.bits(sp_reg.q, 0, 7)
        sp_minus1_low = rtl.bits(rtl.dec(sp_reg.q), 0, 7)
        # POP and RET read from the stack pointer, not the operand field;
        # RET's second read (S_IND) fetches the low return-address byte.
        agen_addr = rtl.mux(rtl.or_(is_pop, is_ret), agen_addr, sp_low)
        ind_next_addr = rtl.mux(is_ret, rtl.bits(iram.rdata, 0, 7),
                                sp_minus1_low)
        iram_raddr = rtl.mux(st[S_IND], agen_addr, ind_next_addr)
        mar_next = iram_raddr
        mar.drive(mar_next, en=rtl.or_(st[S_AGEN], st[S_IND]))

        sfr_access = rtl.and_(agen_dir, rtl.bit(op1.q, 7))
        # A POP's *read* always comes from IRAM (the stack), even when its
        # destination is an SFR; PUSH/LCALL *writes* always go to IRAM.
        sfr_tmp_read = rtl.and_(sfr_access, rtl.not_(is_pop))
        sfr_dest = rtl.and_(sfr_access,
                            rtl.not_(rtl.or_(is_push, is_call)))

        # PSW is assembled on read; P is combinational parity of ACC.
        parity_bit = rtl.reduce_xor(acc.q)
        psw_read = rtl.cat(parity_bit, rtl.const(0, 1), ov.q, rs.q, f0.q,
                           ac.q, cy.q)
        rtl.signal("psw_flags", rtl.cat(cy.q, ac.q, ov.q, f0.q, rs.q))

        tmp_sfr = rtl.const(0, 8)
        for addr, name in SFR_REGS:
            tmp_sfr = rtl.mux(rtl.eq(op1.q, rtl.const(addr, 8)),
                              tmp_sfr, sfr_regs[name].q)
        tmp_sfr = rtl.mux(rtl.eq(op1.q, rtl.const(isa.SFR_PSW, 8)),
                          tmp_sfr, psw_read)
        tmp_sfr = rtl.mux(rtl.eq(op1.q, rtl.const(isa.SFR_ACC, 8)),
                          tmp_sfr, acc.q)
        tmp_val = rtl.mux(sfr_tmp_read, iram.rdata, tmp_sfr)
        # MOVC A,@A+DPTR: the operand comes from code memory; the ROM
        # read at DPTR+A was issued during the AGEN state.
        tmp_val = rtl.mux(is_movc, tmp_val, rom_mem.rdata)
        rtl.signal("operand_bus", tmp_val)

    # ---------------- ALU ---------------------------------------------------
    with rtl.unit("ALU"):
        a_side = rtl.mux(asrc, acc.q, tmp_val)
        b_side = rtl.select(bsrc, [tmp_val, op1.q, op2.q, tmp_val])

        is_subb = rtl.eq(aluop, rtl.const(isa.ALU_SUBB, 4))
        is_cmp = rtl.eq(aluop, rtl.const(isa.ALU_CMP, 4))
        is_inc = rtl.eq(aluop, rtl.const(isa.ALU_INC, 4))
        is_dec = rtl.eq(aluop, rtl.const(isa.ALU_DEC, 4))
        is_addc = rtl.eq(aluop, rtl.const(isa.ALU_ADDC, 4))
        sub_like = rtl.or_(is_subb, is_cmp)

        # Adder operand B: b (ADD/ADDC), ~b (SUBB/CMP), 0 (INC), 0xFF (DEC).
        b_eff = rtl.mux(sub_like, b_side, rtl.not_(b_side))
        b_eff = rtl.mux(is_inc, b_eff, rtl.const(0x00, 8))
        b_eff = rtl.mux(is_dec, b_eff, rtl.const(0xFF, 8))
        # Carry in: 0 (ADD/DEC), CY (ADDC), ~CY (SUBB), 1 (CMP/INC).
        cin = rtl.mux(is_subb, rtl.const(0, 1), rtl.not_(cy.q))
        cin = rtl.mux(is_addc, cin, cy.q)
        cin = rtl.mux(rtl.or_(is_cmp, is_inc), cin, rtl.const(1, 1))

        # Explicit ripple chain to expose the internal carries (AC, OV).
        carries: List[Word] = [cin]
        sum_bits: List[int] = []
        carry = cin
        for position in range(8):
            abit = rtl.bit(a_side, position)
            bbit = rtl.bit(b_eff, position)
            prop = rtl.xor_(abit, bbit)
            sum_bits.append(rtl.xor_(prop, carry).nets[0])
            carry = rtl.or_(rtl.and_(abit, bbit), rtl.and_(prop, carry))
            carries.append(carry)
        adder_out = Word(sum_bits)
        c4, c7, c8 = carries[4], carries[7], carries[8]
        cy_adder = rtl.mux(sub_like, c8, rtl.not_(c8))
        ac_adder = rtl.mux(sub_like, c4, rtl.not_(c4))
        ov_adder = rtl.xor_(c7, c8)

        rl_word = rtl.cat(rtl.bit(acc.q, 7), rtl.bits(acc.q, 0, 7))
        rr_word = rtl.cat(rtl.bits(acc.q, 1, 7), rtl.bit(acc.q, 0))
        alu_res = rtl.select(aluop, [
            b_side,                      # PASSB
            a_side,                      # PASSA
            adder_out,                   # ADD
            adder_out,                   # SUBB
            rtl.and_(a_side, b_side),    # AND
            rtl.or_(a_side, b_side),     # OR
            rtl.xor_(a_side, b_side),    # XOR
            adder_out,                   # INC
            adder_out,                   # DEC
            rtl.not_(acc.q),             # CPL
            rtl.const(0, 8),             # CLR
            rl_word,                     # RL
            rr_word,                     # RR
            adder_out,                   # CMP
            adder_out,                   # ADDC
        ], default=rtl.const(0, 8))
        rtl.signal("alu_result", alu_res)

        res_zero = rtl.is_zero(alu_res)
        acc_zero = rtl.is_zero(acc.q)

    # ---------------- branches (FSM unit) -----------------------------------
    with rtl.unit("FSM"):
        take = rtl.select(branch, [
            rtl.const(0, 1),                       # NONE
            cy.q,                                  # JC
            rtl.not_(cy.q),                        # JNC
            acc_zero,                              # JZ
            rtl.not_(acc_zero),                    # JNZ
            rtl.const(1, 1),                       # SJMP
            rtl.const(1, 1),                       # LJMP
            rtl.not_(res_zero),                    # CJNE
            rtl.not_(res_zero),                    # DJNZ
            rtl.const(1, 1),                       # RET
        ], default=rtl.const(0, 1))
        rel = rtl.mux(len_eq3, op1.q, op2.q)
        rel12 = rtl.cat(rel, rtl.repeat(rtl.bit(rel, 7), 4))
        target_rel, _carry = rtl.add(pc.q, rel12)
        target_ljmp = rtl.cat(op2.q, rtl.bits(op1.q, 0, 4))
        is_ljmp = rtl.eq(branch, rtl.const(isa.BR_LJMP, 4))
        is_bret = rtl.eq(branch, rtl.const(isa.BR_RET, 4))
        # RET: low byte arrives on the IRAM read port during EXEC, the
        # high nibble was latched into OP1 at the IND2 state.
        target_ret = rtl.cat(iram.rdata, rtl.bits(op1.q, 0, 4))
        branch_target = rtl.mux(is_ljmp, target_rel, target_ljmp)
        branch_target = rtl.mux(is_bret, branch_target, target_ret)

        pc_plus1 = rtl.inc(pc.q)
        pc_step = rtl.or_(st[S_FETCH],
                          rtl.or_(rtl.and_(st[S_DECODE], len_ge2),
                                  rtl.and_(st[S_OP1], len_eq3)))
        pc_next = rtl.mux(pc_step, pc.q, pc_plus1)
        do_branch = rtl.and_(st[S_EXEC], take)
        pc_next = rtl.mux(do_branch, pc_next, branch_target)
        pc.drive(pc_next)

    # ---------------- register updates ---------------------------------------
    with rtl.unit("REG"):
        ir.drive(rom_mem.rdata, en=st[S_DECODE])
        op1_next = rtl.mux(st[S_IND], rom_mem.rdata, iram.rdata)
        op1.drive(op1_next, en=rtl.or_(st[S_OP1],
                                       rtl.and_(st[S_IND], is_ret)))
        op2.drive(rom_mem.rdata, en=st[S_OP2])
        # LCALL stores the return address (the not-yet-branched PC) in the
        # RES/RES2 pair for the two stack writes.
        res_next = rtl.mux(is_call, alu_res, rtl.bits(pc.q, 0, 8))
        res.drive(res_next, en=st[S_EXEC])
        res2.drive(rtl.zext(rtl.bits(pc.q, 8, 4), 8), en=st[S_EXEC])

        sfr_write = rtl.and_(rtl.and_(st[S_WRITE], dest_mem), sfr_dest)

        acc_load_exec = rtl.and_(st[S_EXEC],
                                 rtl.or_(dest_acc, rtl.bit(xch, 0)))
        acc_sfr_write = rtl.and_(sfr_write,
                                 rtl.eq(op1.q, rtl.const(isa.SFR_ACC, 8)))
        acc_next = rtl.mux(rtl.bit(xch, 0), alu_res, tmp_val)
        acc_next = rtl.mux(acc_sfr_write, acc_next, res.q)
        acc.drive(acc_next, en=rtl.or_(acc_load_exec, acc_sfr_write))

        psw_sfr_write = rtl.and_(sfr_write,
                                 rtl.eq(op1.q, rtl.const(isa.SFR_PSW, 8)))
        flags_exec = st[S_EXEC]
        cy_policy = rtl.select(flags, [
            cy.q,                        # NONE
            cy_adder,                    # ARITH
            rtl.const(0, 1),             # CY0
            rtl.const(1, 1),             # CY1
            rtl.not_(cy.q),              # CYCPL
            cy_adder,                    # CMP
        ], default=cy.q)
        cy_next = rtl.mux(flags_exec, cy.q, cy_policy)
        cy_next = rtl.mux(psw_sfr_write, cy_next,
                          rtl.bit(res.q, isa.PSW_CY))
        cy.drive(cy_next)

        is_arith = rtl.eq(flags, rtl.const(isa.FLAG_ARITH, 3))
        ac_next = rtl.mux(rtl.and_(flags_exec, is_arith), ac.q, ac_adder)
        ac_next = rtl.mux(psw_sfr_write, ac_next,
                          rtl.bit(res.q, isa.PSW_AC))
        ac.drive(ac_next)
        ov_next = rtl.mux(rtl.and_(flags_exec, is_arith), ov.q, ov_adder)
        ov_next = rtl.mux(psw_sfr_write, ov_next,
                          rtl.bit(res.q, isa.PSW_OV))
        ov.drive(ov_next)
        f0.drive(rtl.bit(res.q, isa.PSW_F0), en=psw_sfr_write)
        rs.drive(rtl.bits(res.q, isa.PSW_RS0, 2), en=psw_sfr_write)

        sp_sfr_en = rtl.and_(sfr_write,
                             rtl.eq(op1.q, rtl.const(isa.SFR_SP, 8)))
        sp_q = sfr_regs["sp"].q
        sp_stacked = rtl.select(stack, [
            sp_q,                          # NONE
            rtl.inc(sp_q),                 # PUSH
            rtl.dec(sp_q),                 # POP
            rtl.inc(rtl.inc(sp_q)),        # CALL
            rtl.dec(rtl.dec(sp_q)),        # RET
        ], default=sp_q)
        sp_next = rtl.mux(st[S_EXEC], sp_q, sp_stacked)
        sp_next = rtl.mux(sp_sfr_en, sp_next, res.q)
        sfr_regs["sp"].drive(sp_next)

        dpl_reg, dph_reg = sfr_regs["dpl"], sfr_regs["dph"]
        dpl_sfr_en = rtl.and_(sfr_write,
                              rtl.eq(op1.q, rtl.const(isa.SFR_DPL, 8)))
        dph_sfr_en = rtl.and_(sfr_write,
                              rtl.eq(op1.q, rtl.const(isa.SFR_DPH, 8)))
        dptr_exec = rtl.and_(st[S_EXEC], rtl.or_(is_dptr_load, is_dptr_inc))
        dpl_inc = rtl.inc(dpl_reg.q)
        dpl_wraps = rtl.eq(dpl_reg.q, rtl.const(0xFF, 8))
        dph_inc = rtl.mux(dpl_wraps, dph_reg.q, rtl.inc(dph_reg.q))
        # MOV DPTR,#imm16 carries the high byte in OP1, the low in OP2.
        dpl_exec_val = rtl.mux(is_dptr_load, dpl_inc, op2.q)
        dph_exec_val = rtl.mux(is_dptr_load, dph_inc, op1.q)
        dpl_next = rtl.mux(dptr_exec, dpl_reg.q, dpl_exec_val)
        dpl_next = rtl.mux(dpl_sfr_en, dpl_next, res.q)
        dpl_reg.drive(dpl_next)
        dph_next = rtl.mux(dptr_exec, dph_reg.q, dph_exec_val)
        dph_next = rtl.mux(dph_sfr_en, dph_next, res.q)
        dph_reg.drive(dph_next)

        for addr, name in SFR_REGS:
            if name in ("sp", "dpl", "dph"):
                continue
            enable = rtl.and_(sfr_write,
                              rtl.eq(op1.q, rtl.const(addr, 8)))
            sfr_regs[name].drive(res.q, en=enable)

    # ---------------- memory ports -----------------------------------------
    with rtl.unit("MEM"):
        dptr12 = rtl.cat(sfr_regs["dpl"].q, rtl.bits(sfr_regs["dph"].q,
                                                     0, 4))
        code_addr, _cc = rtl.add(dptr12, rtl.zext(acc.q, 12))
        rom_raddr = rtl.mux(rtl.and_(st[S_AGEN], is_movc),
                            rtl.bits(pc.q, 0, 9),
                            rtl.bits(code_addr, 0, 9))
        rom_mem.connect(raddr=rom_raddr)
        iram_we = rtl.and_(rtl.and_(st[S_WRITE], dest_mem),
                           rtl.not_(sfr_dest))
        iram_we = rtl.or_(iram_we, st[S_WRITE2])
        # Stack writes address through SP (already updated at EXEC):
        # PUSH -> mem[SP]; LCALL -> mem[SP-1] then mem[SP]; POP's write
        # goes to the direct operand address.
        waddr = rtl.mux(is_push, mar.q, sp_low)
        waddr = rtl.mux(is_pop, waddr, dir_addr)
        waddr = rtl.mux(rtl.and_(is_call, st[S_WRITE]), waddr,
                        sp_minus1_low)
        waddr = rtl.mux(rtl.and_(is_call, st[S_WRITE2]), waddr, sp_low)
        wdata = rtl.mux(st[S_WRITE2], res.q, res2.q)
        iram.connect(raddr=iram_raddr, waddr=waddr, wdata=wdata, we=iram_we)

    # ---------------- observation ------------------------------------------
    rtl.output("p1_out", sfr_regs["p1"].q)
    rtl.output("p2_out", sfr_regs["p2"].q)

    netlist = rtl.build()
    return Mc8051Model(netlist=netlist, rom_bytes=bytes(rom))
