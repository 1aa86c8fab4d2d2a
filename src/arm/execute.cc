#include "src/arm/execute.h"

#include <cassert>

#include "src/arm/page_table.h"
#include "src/jit/jit.h"

namespace komodo::arm {

namespace {

const CycleCosts& kCosts = kCortexA7Costs;

struct ShiftOut {
  word value;
  bool carry;
};

ShiftOut ApplyShift(word value, ShiftKind kind, unsigned amount, bool carry_in) {
  switch (kind) {
    case ShiftKind::kLsl:
      if (amount == 0) {
        return {value, carry_in};
      }
      return {value << amount, ((value >> (32 - amount)) & 1) != 0};
    case ShiftKind::kLsr:
      // Encoded amount 0 means LSR #32.
      if (amount == 0) {
        return {0, (value >> 31) != 0};
      }
      return {value >> amount, ((value >> (amount - 1)) & 1) != 0};
    case ShiftKind::kAsr: {
      if (amount == 0) {
        amount = 32;
      }
      const bool sign = (value >> 31) != 0;
      if (amount >= 32) {
        return {sign ? 0xffff'ffff : 0, sign};
      }
      return {static_cast<word>(static_cast<int32_t>(value) >> amount),
              ((value >> (amount - 1)) & 1) != 0};
    }
    case ShiftKind::kRor:
      if (amount == 0) {
        // RRX (rotate through carry by one).
        return {(value >> 1) | (static_cast<word>(carry_in) << 31), (value & 1) != 0};
      }
      return {(value >> amount) | (value << (32 - amount)), ((value >> (amount - 1)) & 1) != 0};
  }
  return {value, carry_in};
}

struct AluOut {
  word value;
  bool carry;
  bool overflow;
  bool affects_cv;  // arithmetic ops update C/V; logical ops use shifter carry
};

AluOut AddWithCarry(word a, word b, bool carry_in) {
  const uint64_t unsigned_sum = static_cast<uint64_t>(a) + b + (carry_in ? 1 : 0);
  const int64_t signed_sum = static_cast<int64_t>(static_cast<int32_t>(a)) +
                             static_cast<int32_t>(b) + (carry_in ? 1 : 0);
  const word result = static_cast<word>(unsigned_sum);
  return {result, unsigned_sum != result,
          signed_sum != static_cast<int32_t>(result), true};
}

bool IsPrivileged(const MachineState& m) { return m.cpsr.mode != Mode::kUser; }

}  // namespace

Translation TranslateAddress(const MachineState& m, vaddr va, Access access) {
  Translation t;
  if (m.CurrentWorld() == World::kNormal) {
    // Normal world runs flat-mapped; the TrustZone address-space filter blocks
    // any access outside insecure RAM.
    if (m.mem.RegionOf(va & ~3u) != MemRegion::kInsecure) {
      return t;
    }
    t.ok = true;
    t.phys = va;
    return t;
  }
  if (m.cpsr.mode == Mode::kUser) {
    // Secure user: enclave page table via TTBR0. The model requires a
    // consistent TLB for any user-mode activity (§5.1); the monitor's proof
    // obligation is to flush before entering, so a violation here is a bug in
    // the privileged code driving the machine, not an architectural fault.
    assert(m.tlb_consistent && "user-mode access with inconsistent TLB");
    const WalkResult w = m.interp.enabled() ? m.interp.TlbWalk(m.mem, m.ttbr0, va)
                                            : WalkPageTable(m.mem, m.ttbr0, va);
    if (!w.ok) {
      return t;
    }
    if (access == Access::kFetch && !w.executable) {
      return t;
    }
    if (access == Access::kWrite && !w.user_write) {
      return t;
    }
    t.ok = true;
    t.phys = w.phys;
    return t;
  }
  // Secure privileged: static TTBR1 direct map of physical memory.
  if (va < kDirectMapVbase) {
    return t;
  }
  const paddr phys = va - kDirectMapVbase;
  if (!m.mem.IsValidPhys(phys & ~3u)) {
    return t;
  }
  t.ok = true;
  t.phys = phys;
  return t;
}

namespace {

// Return-address conventions per exception kind (DDI 0406C §B1.8.3), given
// the address of the instruction being (or about to be) executed.
word PreferredReturn(Exception e, word insn_addr) {
  switch (e) {
    case Exception::kSvc:
    case Exception::kSmc:
    case Exception::kUndefined:
    case Exception::kPrefetchAbort:
    case Exception::kIrq:
    case Exception::kFiq:
      return insn_addr + 4;
    case Exception::kDataAbort:
      return insn_addr + 8;
  }
  return insn_addr + 4;
}

StepResult Fault(MachineState& m, Exception e, word insn_addr) {
  m.TakeException(e, PreferredReturn(e, insn_addr));
  return {StepStatus::kException, e};
}

// A store in the secure world that lands inside the live enclave page table
// invalidates TLB consistency (§5.1). The OS's flat normal-world stores can
// never reach secure memory, so only secure-world stores are checked. The
// fast path answers through the cached page-table footprint; once the TLB is
// already inconsistent there is nothing left for the check to change.
void NoteStore(MachineState& m, paddr phys) {
  if (m.CurrentWorld() != World::kSecure || m.ttbr0 == 0) {
    return;
  }
  if (m.interp.enabled()) {
    if (m.tlb_consistent &&
        m.interp.StoreHitsLivePageTable(m.mem, m.ttbr0, phys & ~3u)) {
      m.tlb_consistent = false;
    }
    return;
  }
  if (AddrInLivePageTable(m.mem, m.ttbr0, phys & ~3u)) {
    m.tlb_consistent = false;
  }
}

}  // namespace

StepResult Step(MachineState& m) {
  ++m.steps_retired;
  // Asynchronous interrupts are taken before fetching (FIQ has priority).
  if (m.pending_fiq && !m.cpsr.fiq_masked) {
    m.pending_fiq = false;
    return Fault(m, Exception::kFiq, m.pc);
  }
  if (m.pending_irq && !m.cpsr.irq_masked) {
    m.pending_irq = false;
    return Fault(m, Exception::kIrq, m.pc);
  }

  const word insn_addr = m.pc;
  if (!IsWordAligned(insn_addr)) {
    return Fault(m, Exception::kPrefetchAbort, insn_addr);
  }
  const Translation fetch = TranslateAddress(m, insn_addr, Access::kFetch);
  if (!fetch.ok) {
    return Fault(m, Exception::kPrefetchAbort, insn_addr);
  }
  // Decode through the per-physical-address cache; the slow path re-decodes
  // every step (and is what the cache is differentially tested against).
  std::optional<Instruction> decoded_slow;
  const Instruction* insn_p;
  if (m.interp.enabled()) {
    insn_p = m.interp.LookupDecode(m.mem, fetch.phys);
    if (insn_p == nullptr) {
      return Fault(m, Exception::kUndefined, insn_addr);
    }
  } else {
    decoded_slow = Decode(m.mem.Read(fetch.phys));
    if (!decoded_slow.has_value()) {
      return Fault(m, Exception::kUndefined, insn_addr);
    }
    insn_p = &*decoded_slow;
  }
  const Instruction& insn = *insn_p;

  if (insn.cond != Cond::kAl && !CondPasses(insn.cond, m.cpsr)) {
    m.cycles.Charge(kCosts.alu);
    m.pc = insn_addr + 4;
    return {StepStatus::kOk, {}};
  }

  word next_pc = insn_addr + 4;

  switch (insn.op) {
    case Op::kAnd:
    case Op::kEor:
    case Op::kSub:
    case Op::kRsb:
    case Op::kAdd:
    case Op::kAdc:
    case Op::kSbc:
    case Op::kRsc:
    case Op::kTst:
    case Op::kTeq:
    case Op::kCmp:
    case Op::kCmn:
    case Op::kOrr:
    case Op::kMov:
    case Op::kBic:
    case Op::kMvn: {
      m.cycles.Charge(kCosts.alu);
      // Reading PC as an operand yields the instruction address + 8.
      auto read_operand = [&](Reg reg) -> word {
        return (reg == PC) ? insn_addr + 8 : m.ReadReg(reg);
      };
      word op2_value;
      bool shifter_carry = m.cpsr.c;
      if (insn.op2.is_imm) {
        op2_value = insn.op2.ImmValue();
        if (insn.op2.rot4 != 0) {
          shifter_carry = (op2_value >> 31) != 0;
        }
      } else {
        const ShiftOut s =
            ApplyShift(read_operand(insn.op2.rm), insn.op2.shift, insn.op2.shift_imm, m.cpsr.c);
        op2_value = s.value;
        shifter_carry = s.carry;
      }
      const word rn_value = read_operand(insn.rn);

      AluOut out{0, shifter_carry, m.cpsr.v, false};
      switch (insn.op) {
        case Op::kAnd:
        case Op::kTst:
          out.value = rn_value & op2_value;
          break;
        case Op::kEor:
        case Op::kTeq:
          out.value = rn_value ^ op2_value;
          break;
        case Op::kSub:
        case Op::kCmp:
          out = AddWithCarry(rn_value, ~op2_value, true);
          break;
        case Op::kRsb:
          out = AddWithCarry(~rn_value, op2_value, true);
          break;
        case Op::kAdd:
        case Op::kCmn:
          out = AddWithCarry(rn_value, op2_value, false);
          break;
        case Op::kAdc:
          out = AddWithCarry(rn_value, op2_value, m.cpsr.c);
          break;
        case Op::kSbc:
          out = AddWithCarry(rn_value, ~op2_value, m.cpsr.c);
          break;
        case Op::kRsc:
          out = AddWithCarry(~rn_value, op2_value, m.cpsr.c);
          break;
        case Op::kOrr:
          out.value = rn_value | op2_value;
          break;
        case Op::kMov:
          out.value = op2_value;
          break;
        case Op::kBic:
          out.value = rn_value & ~op2_value;
          break;
        case Op::kMvn:
          out.value = ~op2_value;
          break;
        default:
          break;
      }

      const bool is_compare = IsCompare(insn.op);
      if (insn.set_flags && insn.rd == PC && !is_compare) {
        // Exception return idiom (MOVS PC, LR / SUBS PC, LR, #imm).
        if (!IsPrivileged(m)) {
          return Fault(m, Exception::kUndefined, insn_addr);
        }
        m.ExceptionReturn(out.value);
        return {StepStatus::kOk, {}};
      }

      if (insn.set_flags || is_compare) {
        m.cpsr.n = (out.value >> 31) != 0;
        m.cpsr.z = out.value == 0;
        if (out.affects_cv) {
          m.cpsr.c = out.carry;
          m.cpsr.v = out.overflow;
        } else {
          m.cpsr.c = shifter_carry;
        }
      }
      if (!is_compare) {
        if (insn.rd == PC) {
          next_pc = out.value;
          m.cycles.Charge(kCosts.branch_taken);
        } else {
          m.WriteReg(insn.rd, out.value);
        }
      }
      break;
    }

    case Op::kMul: {
      m.cycles.Charge(kCosts.mul);
      const word result = m.ReadReg(insn.rm) * m.ReadReg(insn.rn);
      m.WriteReg(insn.rd, result);
      if (insn.set_flags) {
        m.cpsr.n = (result >> 31) != 0;
        m.cpsr.z = result == 0;
      }
      break;
    }

    case Op::kMovw:
      m.cycles.Charge(kCosts.alu);
      m.WriteReg(insn.rd, insn.trap_imm & 0xffff);
      break;
    case Op::kMovt: {
      m.cycles.Charge(kCosts.alu);
      const word low = m.ReadReg(insn.rd) & 0xffff;
      m.WriteReg(insn.rd, low | ((insn.trap_imm & 0xffff) << 16));
      break;
    }

    case Op::kLdr:
    case Op::kStr:
    case Op::kLdrb:
    case Op::kStrb: {
      const bool is_load = insn.op == Op::kLdr || insn.op == Op::kLdrb;
      const bool is_byte = insn.op == Op::kLdrb || insn.op == Op::kStrb;
      m.cycles.Charge(is_load ? kCosts.load : kCosts.store);
      const word base = (insn.rn == PC) ? insn_addr + 8 : m.ReadReg(insn.rn);
      word addr;
      if (insn.mem_reg_offset) {
        const word off = m.ReadReg(insn.rm);
        addr = insn.mem_add ? base + off : base - off;
      } else {
        addr = insn.mem_add ? base + insn.mem_imm12 : base - insn.mem_imm12;
      }
      if (!is_byte && !IsWordAligned(addr)) {
        return Fault(m, Exception::kDataAbort, insn_addr);
      }
      const Translation tr =
          TranslateAddress(m, addr, is_load ? Access::kRead : Access::kWrite);
      if (!tr.ok) {
        return Fault(m, Exception::kDataAbort, insn_addr);
      }
      if (is_byte) {
        const paddr word_addr = tr.phys & ~3u;
        const unsigned shift = (tr.phys & 3u) * 8;
        if (is_load) {
          m.WriteReg(insn.rd, (m.mem.Read(word_addr) >> shift) & 0xff);
        } else {
          const word old = m.mem.Read(word_addr);
          const word byte = m.ReadReg(insn.rd) & 0xff;
          m.mem.Write(word_addr, (old & ~(0xffu << shift)) | (byte << shift));
          NoteStore(m, word_addr);
        }
      } else {
        if (is_load) {
          const word value = m.mem.Read(tr.phys);
          if (insn.rd == PC) {
            // Same alignment discipline as LDM-to-PC below: Thumb
            // interworking is unmodelled, so the low bits are cleared.
            next_pc = value & ~3u;
            m.cycles.Charge(kCosts.branch_taken);
          } else {
            m.WriteReg(insn.rd, value);
          }
        } else {
          // STR with Rd = PC stores the instruction address + 8, matching the
          // STM-with-PC case below (ReadReg(PC) would give the raw fetch
          // address).
          m.mem.Write(tr.phys, (insn.rd == PC) ? insn_addr + 8 : m.ReadReg(insn.rd));
          NoteStore(m, tr.phys);
        }
      }
      break;
    }

    case Op::kLdm:
    case Op::kStm: {
      const bool is_load = insn.op == Op::kLdm;
      const word base = m.ReadReg(insn.rn);
      const word count = static_cast<word>(__builtin_popcount(insn.reg_list));
      // Lowest address accessed, per the four addressing modes.
      word addr;
      if (insn.mem_add) {
        addr = base + (insn.block_pre ? 4 : 0);
      } else {
        addr = base - 4 * count + (insn.block_pre ? 0 : 4);
      }
      if (!IsWordAligned(addr)) {
        return Fault(m, Exception::kDataAbort, insn_addr);
      }
      bool loaded_pc = false;
      word pc_value = 0;
      for (int i = 0; i < 16; ++i) {
        if (((insn.reg_list >> i) & 1) == 0) {
          continue;
        }
        m.cycles.Charge(is_load ? kCosts.load : kCosts.store);
        const Translation tr =
            TranslateAddress(m, addr, is_load ? Access::kRead : Access::kWrite);
        if (!tr.ok) {
          return Fault(m, Exception::kDataAbort, insn_addr);
        }
        const Reg reg = static_cast<Reg>(i);
        if (is_load) {
          const word value = m.mem.Read(tr.phys);
          if (reg == PC) {
            loaded_pc = true;
            pc_value = value;
          } else {
            m.WriteReg(reg, value);
          }
        } else {
          // STM with PC in the list stores the instruction address + 8.
          m.mem.Write(tr.phys, (reg == PC) ? insn_addr + 8 : m.ReadReg(reg));
          NoteStore(m, tr.phys);
        }
        addr += 4;
      }
      if (insn.block_wback) {
        // LDM that also loads the base register wins over writeback.
        const bool base_loaded = is_load && ((insn.reg_list >> insn.rn) & 1);
        if (!base_loaded) {
          m.WriteReg(insn.rn, insn.mem_add ? base + 4 * count : base - 4 * count);
        }
      }
      if (loaded_pc) {
        next_pc = pc_value & ~3u;
        m.cycles.Charge(kCosts.branch_taken);
      }
      break;
    }

    case Op::kB:
    case Op::kBl:
      m.cycles.Charge(kCosts.branch_taken);
      if (insn.op == Op::kBl) {
        m.WriteReg(LR, insn_addr + 4);
      }
      next_pc = static_cast<word>(static_cast<int64_t>(insn_addr) + 8 + insn.branch_offset);
      break;

    case Op::kBx:
      m.cycles.Charge(kCosts.branch_taken);
      next_pc = m.ReadReg(insn.rm) & ~3u;  // Thumb interworking unmodelled
      break;

    case Op::kSvc:
      m.cycles.Charge(kCosts.svc_smc_issue);
      return Fault(m, Exception::kSvc, insn_addr);

    case Op::kSmc:
      // SMC from user mode is undefined; from privileged modes it traps to
      // monitor mode.
      m.cycles.Charge(kCosts.svc_smc_issue);
      if (!IsPrivileged(m)) {
        return Fault(m, Exception::kUndefined, insn_addr);
      }
      return Fault(m, Exception::kSmc, insn_addr);

    case Op::kMrs:
      m.cycles.Charge(kCosts.msr_mrs);
      if (insn.uses_spsr) {
        if (!IsPrivileged(m)) {
          return Fault(m, Exception::kUndefined, insn_addr);
        }
        m.WriteReg(insn.rd, m.Spsr().Encode());
      } else {
        m.WriteReg(insn.rd, m.cpsr.Encode());
      }
      break;

    case Op::kMcr:
    case Op::kMrc: {
      m.cycles.Charge(kCosts.cp15_access);
      // CP15 is privileged, secure-world state; anything else is outside the
      // model (normal-world system control is the OS's business, unmodelled).
      if (!IsPrivileged(m) || m.CurrentWorld() != World::kSecure) {
        return Fault(m, Exception::kUndefined, insn_addr);
      }
      const bool is_read = insn.op == Op::kMrc;
      const word key = (static_cast<word>(insn.cp_opc1) << 12) |
                       (static_cast<word>(insn.cp_crn) << 8) |
                       (static_cast<word>(insn.cp_crm) << 4) | insn.cp_opc2;
      switch (key) {
        case 0x0200:  // TTBR0: c2, c0, 0
          if (is_read) {
            m.WriteReg(insn.rd, m.ttbr0);
          } else {
            m.WriteTtbr0(m.ReadReg(insn.rd));
          }
          break;
        case 0x0201:  // TTBR1: c2, c0, 1
          if (is_read) {
            m.WriteReg(insn.rd, m.ttbr1);
          } else {
            m.ttbr1 = m.ReadReg(insn.rd);
          }
          break;
        case 0x0870:  // TLBIALL: c8, c7, 0 (write-only)
          if (is_read) {
            return Fault(m, Exception::kUndefined, insn_addr);
          }
          m.FlushTlb();
          break;
        case 0x0c00:  // VBAR (secure): c12, c0, 0
          if (is_read) {
            m.WriteReg(insn.rd, m.vbar_secure);
          } else {
            m.vbar_secure = m.ReadReg(insn.rd);
          }
          break;
        case 0x0110:  // SCR: c1, c1, 0 — monitor mode only
          if (m.cpsr.mode != Mode::kMonitor) {
            return Fault(m, Exception::kUndefined, insn_addr);
          }
          if (is_read) {
            m.WriteReg(insn.rd, m.scr_ns ? 1u : 0u);
          } else {
            m.SetScrNs((m.ReadReg(insn.rd) & 1) != 0);
          }
          break;
        default:
          return Fault(m, Exception::kUndefined, insn_addr);
      }
      break;
    }

    case Op::kMsr: {
      m.cycles.Charge(kCosts.msr_mrs);
      const word value = m.ReadReg(insn.rm);
      if (insn.uses_spsr) {
        if (!IsPrivileged(m)) {
          return Fault(m, Exception::kUndefined, insn_addr);
        }
        m.Spsr() = Psr::Decode(value);
      } else if (IsPrivileged(m)) {
        m.cpsr = Psr::Decode(value);
      } else {
        // User mode can only touch the flags.
        const Psr flags = Psr::Decode(value);
        m.cpsr.n = flags.n;
        m.cpsr.z = flags.z;
        m.cpsr.c = flags.c;
        m.cpsr.v = flags.v;
      }
      break;
    }
  }

  m.pc = next_pc;
  return {StepStatus::kOk, {}};
}

void NoteStoreToPhys(MachineState& m, paddr phys) { NoteStore(m, phys); }

std::optional<Exception> RunUntilException(MachineState& m, uint64_t max_steps) {
  uint64_t remaining = max_steps;
  while (remaining > 0) {
    if (m.jit.enabled()) {
      const jit::RunOutcome o = jit::TryRunBlock(m, remaining);
      if (o.ran) {
        remaining -= o.steps;
        if (o.took_exception) {
          return o.exception;
        }
        continue;
      }
    }
    const StepResult r = Step(m);
    --remaining;
    if (r.status == StepStatus::kException) {
      return r.exception;
    }
  }
  return std::nullopt;
}

}  // namespace komodo::arm
