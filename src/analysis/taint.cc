#include "src/analysis/taint.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <string>

#include "src/core/call_table.h"
#include "src/core/kom_defs.h"
#include "src/os/os.h"

namespace komodo::analysis {

using arm::Cond;
using arm::Instruction;
using arm::Op;
using arm::Reg;
using arm::ShiftKind;

TaintOptions TaintOptions::Default() {
  TaintOptions options;
  options.layout = MemoryLayout::DefaultEnclaveLayout();
  options.entry_sp = os::kEnclaveStackVa + arm::kPageSize;
  // Every SVC in the call registry is legal from enclave code; a new SVC
  // added to call_list.inc is picked up here without a parallel list.
  for (const CallInfo& c : kSvcCalls) {
    options.allowed_svcs.push_back(c.number);
  }
  return options;
}

namespace {

// Value half of execute.cc's ApplyShift. RRX (ROR #0) consumes the carry
// flag, whose concrete value the domain does not track, so it never folds.
std::optional<word> FoldShift(word value, ShiftKind kind, unsigned amount) {
  switch (kind) {
    case ShiftKind::kLsl:
      return amount == 0 ? value : value << amount;
    case ShiftKind::kLsr:
      return amount == 0 ? 0 : value >> amount;
    case ShiftKind::kAsr: {
      if (amount == 0 || amount >= 32) {
        return (value >> 31) != 0 ? 0xffff'ffffu : 0u;
      }
      return static_cast<word>(static_cast<int32_t>(value) >> amount);
    }
    case ShiftKind::kRor:
      if (amount == 0) {
        return std::nullopt;  // RRX
      }
      return (value >> amount) | (value << (32 - amount));
  }
  return std::nullopt;
}

bool UsesRn(Op op) {
  switch (op) {
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
    case Op::kBic:
      return true;
    default:
      return false;  // MOV/MVN take only the shifter operand
  }
}

bool ConsumesCarry(Op op) { return op == Op::kAdc || op == Op::kSbc || op == Op::kRsc; }

class Interp {
 public:
  Interp(const Cfg& cfg, const TaintOptions& options) : cfg_(cfg), options_(options) {}

  TaintResult Run() {
    TaintResult result;
    result.block_in.assign(cfg_.blocks.size(), AbsState{});
    if (cfg_.blocks.empty()) {
      return result;
    }

    result.block_in[0] = EntryState();
    std::deque<size_t> worklist = {0};
    std::vector<bool> queued(cfg_.blocks.size(), false);
    queued[0] = true;
    // Plain joins already collapse a changing register or cell to Unknown in
    // one step (the constant lattice has height 2), but a loop that walks a
    // chain of tracked cells still ascends one cell per pass — the number of
    // fixpoint iterations grows with the number of tracked addresses, not
    // with the CFG. After a block's in-state has been re-joined this many
    // times, switch to WidenStates, which abstracts the whole store to its
    // region defaults so the remaining ascent is bounded by the registers.
    std::vector<uint32_t> joins(cfg_.blocks.size(), 0);
    // Safety valve: the lattice is finite and widening bounds the ascent, but
    // cap the fixpoint anyway so a domain bug cannot hang the lint.
    size_t budget = 64 * cfg_.blocks.size() + 1024;
    while (!worklist.empty()) {
      assert(budget > 0 && "taint fixpoint failed to converge");
      if (budget == 0) {
        break;
      }
      --budget;
      const size_t b = worklist.front();
      worklist.pop_front();
      queued[b] = false;
      const AbsState out = TransferBlock(result.block_in[b], cfg_.blocks[b], nullptr);
      for (const size_t succ : cfg_.blocks[b].successors) {
        AbsState joined = JoinStates(result.block_in[succ], out);
        if (!(joined == result.block_in[succ])) {
          if (++joins[succ] > kWidenAfterJoins) {
            joined = WidenStates(result.block_in[succ], joined);
            ++result.widened_joins;
          }
        }
        if (!(joined == result.block_in[succ])) {
          result.block_in[succ] = joined;
          if (!queued[succ]) {
            queued[succ] = true;
            worklist.push_back(succ);
          }
        }
      }
    }

    // Reporting pass over the fixpoint states.
    for (size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (result.block_in[b].valid) {
        TransferBlock(result.block_in[b], cfg_.blocks[b], &result.findings);
      }
    }
    SortUnique(&result.findings);
    return result;
  }

 private:
  AbsState EntryState() const {
    AbsState s;
    s.valid = true;
    for (AbsVal& r : s.regs) {
      r = AbsVal::Unknown(Taint::kPublic);  // Enter args and scrubbed registers
    }
    if (options_.entry_sp.has_value()) {
      s.regs[arm::SP] = AbsVal::Const(*options_.entry_sp);
    }
    return s;
  }

  // Region default for a word-aligned address: code reads the program text,
  // secure pages read secrets, insecure pages read adversary-chosen values.
  AbsVal DefaultAt(word addr) const {
    if (const auto index = cfg_.IndexOf(addr); index.has_value()) {
      return AbsVal::Const(cfg_.insns[*index].bits);
    }
    switch (options_.layout.Classify(addr)) {
      case Region::kCode:  // code page beyond the program text: zero-filled
        return AbsVal::Const(0);
      case Region::kPublic:
        return AbsVal::Unknown(Taint::kPublic);
      case Region::kSecret:
        return AbsVal::Unknown(Taint::kSecret);
    }
    return AbsVal::Unknown(Taint::kSecret);
  }

  AbsVal LoadWord(const AbsState& s, word addr) const {
    const word key = addr & ~3u;
    if (const auto it = s.store.find(key); it != s.store.end()) {
      return it->second;
    }
    return DefaultAt(key);
  }

  // A store through a statically-unknown address may hit any tracked cell:
  // weaken them all. Cells not in the map keep their region default, which
  // under-approximates writes of secrets into tracked-as-public regions; see
  // DESIGN.md § Analysis for this documented soundness limit.
  static void WeakStoreAll(AbsState& s, const AbsVal& value) {
    for (auto& [addr, cell] : s.store) {
      cell = Join(cell, value);
    }
  }

  // Joins tolerated on one block's in-state before the fixpoint widens.
  // High enough that every shipped enclave program converges without it
  // (their loop heads stabilize in a handful of joins), low enough that a
  // cell-cascade loop cannot burn the budget one tracked address at a time.
  static constexpr uint32_t kWidenAfterJoins = 12;

  // Widening operator: an upper bound of `joined` (which must itself be an
  // upper bound of the previous in-state `old`) chosen so repeated
  // application terminates quickly. Registers that are still moving lose
  // constant knowledge but keep their joined taint; the store is abstracted
  // to its region defaults — a cell may never report *lower* taint than its
  // region default would, and a cell equal to its default is dropped from the
  // map, so the widened store is a fixed ceiling no later pass can raise.
  AbsState WidenStates(const AbsState& old, const AbsState& joined) const {
    AbsState out;
    out.valid = true;
    for (int i = 0; i < 16; ++i) {
      out.regs[i] = old.regs[i] == joined.regs[i]
                        ? joined.regs[i]
                        : AbsVal::Unknown(joined.regs[i].taint);
    }
    out.flags = joined.flags;
    for (const auto& [addr, cell] : joined.store) {
      const AbsVal ceiling = Join(cell, DefaultAt(addr));
      if (!(ceiling == DefaultAt(addr))) {
        out.store.emplace(addr, ceiling);
      }
    }
    return out;
  }

  AbsState JoinStates(const AbsState& a, const AbsState& b) const {
    if (!a.valid) {
      return b;
    }
    if (!b.valid) {
      return a;
    }
    AbsState out;
    out.valid = true;
    for (int i = 0; i < 16; ++i) {
      out.regs[i] = Join(a.regs[i], b.regs[i]);
    }
    out.flags = JoinTaint(a.flags, b.flags);
    // A cell missing on one side reads as that side's region default.
    for (const auto& [addr, cell] : a.store) {
      const auto it = b.store.find(addr);
      out.store.emplace(addr, Join(cell, it != b.store.end() ? it->second : DefaultAt(addr)));
    }
    for (const auto& [addr, cell] : b.store) {
      if (!a.store.contains(addr)) {
        out.store.emplace(addr, Join(cell, DefaultAt(addr)));
      }
    }
    return out;
  }

  AbsState TransferBlock(const AbsState& in, const BasicBlock& bb,
                         std::vector<Finding>* findings) const {
    AbsState s = in;
    for (size_t i = bb.first; i <= bb.last; ++i) {
      s = Step(s, cfg_.insns[i], findings);
    }
    return s;
  }

  AbsState Step(const AbsState& pre, const CfgInsn& ci, std::vector<Finding>* findings) const {
    if (!ci.decoded.has_value()) {
      return pre;  // undecodable: Undefined exception; the block has no successors
    }
    const Instruction& insn = *ci.decoded;
    if (findings != nullptr && insn.cond != Cond::kAl && pre.flags == Taint::kSecret) {
      findings->push_back(
          {FindingKind::kSecretDependentBranch, ci.addr, arm::OpName(insn.op)});
    }
    AbsState post = StepCore(pre, ci, insn, findings);
    if (insn.cond != Cond::kAl) {
      // The instruction may be skipped; keep both outcomes.
      post = JoinStates(post, pre);
    }
    return post;
  }

  AbsState StepCore(const AbsState& pre, const CfgInsn& ci, const Instruction& insn,
                    std::vector<Finding>* findings) const {
    AbsState s = pre;
    // Reading the PC yields the instruction address + 8 (execute.cc).
    auto read_reg = [&](Reg r) -> AbsVal {
      return r == arm::PC ? AbsVal::Const(ci.addr + 8) : s.regs[r];
    };

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
        AbsVal op2;
        if (insn.op2.is_imm) {
          op2 = AbsVal::Const(insn.op2.ImmValue());
        } else {
          const AbsVal rm = read_reg(insn.op2.rm);
          const std::optional<word> folded =
              rm.known ? FoldShift(rm.value, insn.op2.shift, insn.op2.shift_imm) : std::nullopt;
          const bool is_rrx = insn.op2.shift == ShiftKind::kRor && insn.op2.shift_imm == 0;
          const Taint t = is_rrx ? JoinTaint(rm.taint, s.flags) : rm.taint;
          op2 = folded.has_value() ? AbsVal::Const(*folded, t) : AbsVal::Unknown(t);
        }
        const AbsVal rn = read_reg(insn.rn);

        Taint t = op2.taint;
        if (UsesRn(insn.op)) {
          t = JoinTaint(t, rn.taint);
        }
        if (ConsumesCarry(insn.op)) {
          t = JoinTaint(t, s.flags);
        }
        AbsVal result = AbsVal::Unknown(t);
        const bool inputs_known = op2.known && (!UsesRn(insn.op) || rn.known);
        if (inputs_known && !ConsumesCarry(insn.op)) {
          word v = 0;
          switch (insn.op) {
            case Op::kAnd:
            case Op::kTst:
              v = rn.value & op2.value;
              break;
            case Op::kEor:
            case Op::kTeq:
              v = rn.value ^ op2.value;
              break;
            case Op::kSub:
            case Op::kCmp:
              v = rn.value - op2.value;
              break;
            case Op::kRsb:
              v = op2.value - rn.value;
              break;
            case Op::kAdd:
            case Op::kCmn:
              v = rn.value + op2.value;
              break;
            case Op::kOrr:
              v = rn.value | op2.value;
              break;
            case Op::kMov:
              v = op2.value;
              break;
            case Op::kBic:
              v = rn.value & ~op2.value;
              break;
            case Op::kMvn:
              v = ~op2.value;
              break;
            default:
              break;
          }
          result = AbsVal::Const(v, t);
        }

        if (insn.set_flags || arm::IsCompare(insn.op)) {
          s.flags = t;
        }
        if (!arm::IsCompare(insn.op) && insn.rd != arm::PC) {
          s.regs[insn.rd] = result;
        }
        break;
      }

      case Op::kMul: {
        const AbsVal a = read_reg(insn.rm);
        const AbsVal b = read_reg(insn.rn);
        const Taint t = JoinTaint(a.taint, b.taint);
        s.regs[insn.rd] =
            a.known && b.known ? AbsVal::Const(a.value * b.value, t) : AbsVal::Unknown(t);
        if (insn.set_flags) {
          s.flags = t;
        }
        break;
      }

      case Op::kMovw:
        s.regs[insn.rd] = AbsVal::Const(insn.trap_imm & 0xffff);
        break;
      case Op::kMovt: {
        const AbsVal old = s.regs[insn.rd];
        s.regs[insn.rd] =
            old.known
                ? AbsVal::Const((old.value & 0xffff) | ((insn.trap_imm & 0xffff) << 16), old.taint)
                : AbsVal::Unknown(old.taint);
        break;
      }

      case Op::kLdr:
      case Op::kStr:
      case Op::kLdrb:
      case Op::kStrb: {
        const bool is_load = insn.op == Op::kLdr || insn.op == Op::kLdrb;
        const bool is_byte = insn.op == Op::kLdrb || insn.op == Op::kStrb;
        const AbsVal base = read_reg(insn.rn);
        const AbsVal off =
            insn.mem_reg_offset ? read_reg(insn.rm) : AbsVal::Const(insn.mem_imm12);
        const Taint addr_taint = JoinTaint(base.taint, off.taint);
        const bool addr_known = base.known && off.known;
        const word addr =
            insn.mem_add ? base.value + off.value : base.value - off.value;

        if (findings != nullptr && addr_taint == Taint::kSecret) {
          findings->push_back({is_load ? FindingKind::kSecretIndexedLoad
                                       : FindingKind::kSecretIndexedStore,
                               ci.addr, arm::OpName(insn.op)});
        }

        if (is_load) {
          AbsVal value;
          if (!addr_known) {
            // The cell cannot be identified, so propagate the address taint
            // instead of assuming the worst-case aliased cell. This under-
            // taints a public-indexed read of a secret cell — a documented
            // soundness limit (DESIGN.md § Analysis); without it every
            // array-walking loop (sha256's W schedule) reads as secret.
            value = AbsVal::Unknown(addr_taint);
          } else if (is_byte) {
            const AbsVal cell = LoadWord(s, addr);
            value = cell.known ? AbsVal::Const((cell.value >> ((addr & 3u) * 8)) & 0xff, cell.taint)
                               : AbsVal::Unknown(cell.taint);
          } else {
            value = LoadWord(s, addr);
          }
          if (insn.rd != arm::PC) {
            s.regs[insn.rd] = value;
          }
        } else {
          const AbsVal value = read_reg(insn.rd);
          if (!addr_known) {
            WeakStoreAll(s, is_byte ? AbsVal::Unknown(value.taint) : value);
          } else if (is_byte) {
            const word key = addr & ~3u;
            const AbsVal old = LoadWord(s, addr);
            const unsigned shift = (addr & 3u) * 8;
            const Taint t = JoinTaint(old.taint, value.taint);
            s.store[key] =
                old.known && value.known
                    ? AbsVal::Const((old.value & ~(0xffu << shift)) | ((value.value & 0xff) << shift),
                                    t)
                    : AbsVal::Unknown(t);
          } else {
            s.store[addr & ~3u] = value;
          }
        }
        break;
      }

      case Op::kLdm:
      case Op::kStm: {
        const bool is_load = insn.op == Op::kLdm;
        const AbsVal base = read_reg(insn.rn);
        const word count = static_cast<word>(__builtin_popcount(insn.reg_list));
        if (findings != nullptr && base.taint == Taint::kSecret) {
          findings->push_back({is_load ? FindingKind::kSecretIndexedLoad
                                       : FindingKind::kSecretIndexedStore,
                               ci.addr, arm::OpName(insn.op)});
        }
        if (base.known) {
          word addr;
          if (insn.mem_add) {
            addr = base.value + (insn.block_pre ? 4 : 0);
          } else {
            addr = base.value - 4 * count + (insn.block_pre ? 0 : 4);
          }
          for (int i = 0; i < 16; ++i) {
            if (((insn.reg_list >> i) & 1) == 0) {
              continue;
            }
            const Reg reg = static_cast<Reg>(i);
            if (is_load) {
              if (reg != arm::PC) {
                s.regs[reg] = LoadWord(s, addr);
              }
            } else {
              s.store[addr & ~3u] =
                  (reg == arm::PC) ? AbsVal::Const(ci.addr + 8) : read_reg(reg);
            }
            addr += 4;
          }
        } else {
          Taint t = base.taint;
          if (is_load) {
            for (int i = 0; i < 16; ++i) {
              if (((insn.reg_list >> i) & 1) != 0 && i != arm::PC) {
                s.regs[i] = AbsVal::Unknown(base.taint);  // same rule as LDR
              }
            }
          } else {
            for (int i = 0; i < 16; ++i) {
              if (((insn.reg_list >> i) & 1) != 0) {
                t = JoinTaint(t, read_reg(static_cast<Reg>(i)).taint);
              }
            }
            WeakStoreAll(s, AbsVal::Unknown(t));
          }
        }
        if (insn.block_wback) {
          const bool base_loaded = is_load && ((insn.reg_list >> insn.rn) & 1) != 0;
          if (!base_loaded) {
            s.regs[insn.rn] =
                base.known
                    ? AbsVal::Const(insn.mem_add ? base.value + 4 * count : base.value - 4 * count,
                                    base.taint)
                    : AbsVal::Unknown(base.taint);
          }
        }
        break;
      }

      case Op::kB:
        break;
      case Op::kBl:
        s.regs[arm::LR] = AbsVal::Const(ci.addr + 4);
        break;
      case Op::kBx:
        break;  // no successors; analyzer reports the indirect branch

      case Op::kSvc: {
        if (findings != nullptr) {
          const AbsVal r0 = s.regs[arm::R0];
          if (!r0.known) {
            findings->push_back({FindingKind::kSvcUnresolved, ci.addr, "r0 not a constant"});
          } else if (std::find(options_.allowed_svcs.begin(), options_.allowed_svcs.end(),
                               r0.value) == options_.allowed_svcs.end()) {
            findings->push_back(
                {FindingKind::kSvcOutOfRange, ci.addr, "r0=" + std::to_string(r0.value)});
          }
        }
        ClobberAfterTrap(s);
        break;
      }
      case Op::kSmc:
        // Flagged by the privilege lint; model the trap clobber anyway.
        ClobberAfterTrap(s);
        break;

      case Op::kMrs:
        // CPSR reads expose the (possibly secret-set) NZCV flags.
        s.regs[insn.rd] = AbsVal::Unknown(insn.uses_spsr ? Taint::kPublic : s.flags);
        break;
      case Op::kMsr:
        if (!insn.uses_spsr) {
          s.flags = read_reg(insn.rm).taint;  // user-mode MSR writes the flags
        }
        break;
      case Op::kMcr:
        break;
      case Op::kMrc:
        s.regs[insn.rd] = AbsVal::Unknown(Taint::kPublic);
        break;
    }
    return s;
  }

  // After a trap into the monitor: r0-r3 come back as monitor-chosen (public)
  // values, flags are restored/scrubbed, and the monitor may have rewritten
  // enclave memory (e.g. Attest's MAC output), so tracked cells are dropped
  // back to their region defaults.
  static void ClobberAfterTrap(AbsState& s) {
    for (int i = 0; i < 4; ++i) {
      s.regs[i] = AbsVal::Unknown(Taint::kPublic);
    }
    s.flags = Taint::kPublic;
    s.store.clear();
  }

  const Cfg& cfg_;
  const TaintOptions& options_;
};

}  // namespace

TaintResult RunTaintPass(const Cfg& cfg, const TaintOptions& options) {
  return Interp(cfg, options).Run();
}

}  // namespace komodo::analysis
