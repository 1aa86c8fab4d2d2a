// Runtime helpers translated blocks call back into when a probe stub misses
// (DESIGN.md §13). Each one mirrors the corresponding slice of execute.cc's
// Step(): same translation routine, same fault kinds and preferred return
// addresses, same live-page-table store side effect — so a memory access
// behaves bit-identically whether the instruction was interpreted or
// translated, and whether the probe served it or not.
#include <cstdint>

#include "src/arm/execute.h"
#include "src/arm/machine.h"
#include "src/jit/jit_internal.h"

namespace komodo::jit {

namespace {

uint64_t TakeFault(JitRt* rt, arm::Exception e, uint32_t insn_addr) {
  // Data aborts are the only faults the translated subset raises mid-block;
  // their preferred return address is insn_addr + 8 (DDI 0406C §B1.8.3).
  const arm::word ret =
      insn_addr + (e == arm::Exception::kDataAbort ? 8 : 4);
  rt->m->TakeException(e, ret);
  return (kExitExceptionBit | static_cast<uint64_t>(e)) << 32;
}

// Applies the post-store bookkeeping: TLB-consistency loss on stores into the
// live page table, and the restart flag when the block must not continue —
// either because the store rewrote the block's own code words (the remaining
// translated tail is stale) or because TLB consistency was just lost (the
// interpreter would assert at its very next user-mode translation, so the
// block exits and lets the dispatcher's fetch reproduce that exactly).
void AfterStore(JitRt* rt, arm::paddr phys) {
  arm::MachineState& m = *rt->m;
  const bool was_consistent = m.tlb_consistent;
  arm::NoteStoreToPhys(m, phys);
  if ((phys >= rt->block_phys_lo && phys < rt->block_phys_hi) ||
      (was_consistent && !m.tlb_consistent)) {
    rt->restart = 1;
  }
}

void CountHelperAccess(JitRt* rt) { ++rt->m->jit.mutable_stats().helper_accesses; }

}  // namespace

extern "C" uint64_t komodo_jit_load_word(JitRt* rt, uint32_t va, uint32_t insn_addr) {
  arm::MachineState& m = *rt->m;
  CountHelperAccess(rt);
  if (!arm::IsWordAligned(va)) {
    return TakeFault(rt, arm::Exception::kDataAbort, insn_addr);
  }
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kRead);
  if (!tr.ok) {
    return TakeFault(rt, arm::Exception::kDataAbort, insn_addr);
  }
  return m.mem.Read(tr.phys);
}

extern "C" uint64_t komodo_jit_store_word(JitRt* rt, uint32_t va, uint32_t value,
                                          uint32_t insn_addr) {
  arm::MachineState& m = *rt->m;
  CountHelperAccess(rt);
  if (!arm::IsWordAligned(va)) {
    return TakeFault(rt, arm::Exception::kDataAbort, insn_addr);
  }
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kWrite);
  if (!tr.ok) {
    return TakeFault(rt, arm::Exception::kDataAbort, insn_addr);
  }
  m.mem.Write(tr.phys, value);
  AfterStore(rt, tr.phys);
  return 0;
}

extern "C" uint64_t komodo_jit_load_byte(JitRt* rt, uint32_t va, uint32_t insn_addr) {
  arm::MachineState& m = *rt->m;
  CountHelperAccess(rt);
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kRead);
  if (!tr.ok) {
    return TakeFault(rt, arm::Exception::kDataAbort, insn_addr);
  }
  const arm::paddr word_addr = tr.phys & ~3u;
  const unsigned shift = (tr.phys & 3u) * 8;
  return (m.mem.Read(word_addr) >> shift) & 0xff;
}

extern "C" uint64_t komodo_jit_store_byte(JitRt* rt, uint32_t va, uint32_t value,
                                          uint32_t insn_addr) {
  arm::MachineState& m = *rt->m;
  CountHelperAccess(rt);
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kWrite);
  if (!tr.ok) {
    return TakeFault(rt, arm::Exception::kDataAbort, insn_addr);
  }
  const arm::paddr word_addr = tr.phys & ~3u;
  const unsigned shift = (tr.phys & 3u) * 8;
  const arm::word old = m.mem.Read(word_addr);
  m.mem.Write(word_addr, (old & ~(0xffu << shift)) | ((value & 0xffu) << shift));
  AfterStore(rt, word_addr);
  return 0;
}

extern "C" uint64_t komodo_jit_fault(JitRt* rt, uint32_t exception, uint32_t insn_addr) {
  return TakeFault(rt, static_cast<arm::Exception>(exception), insn_addr);
}

}  // namespace komodo::jit
