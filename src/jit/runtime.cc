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

// Charges what the block owes at `site` before it leaves from there.
void ChargeOwed(arm::MachineState& m, uint64_t site) {
  m.steps_retired += SiteSteps(site);
  m.cycles.Charge(SiteCycles(site));
}

// Data aborts are the only faults the translated subset raises mid-block;
// their preferred return address is insn_addr + 8 (DDI 0406C §B1.8.3).
uint64_t TakeDataAbort(JitRt* rt, uint64_t site) {
  ChargeOwed(*rt->m, site);
  rt->m->TakeException(arm::Exception::kDataAbort, SiteInsnAddr(site) + 8);
  return (kExitExceptionBit | static_cast<uint64_t>(arm::Exception::kDataAbort)) << 32;
}

// Applies the post-store bookkeeping: TLB-consistency loss on stores into the
// live page table, and the restart flag when the block must not continue —
// either because the store rewrote the block's own code words (the remaining
// translated tail is stale) or because TLB consistency was just lost (the
// interpreter would assert at its very next user-mode translation, so the
// block exits and lets the dispatcher's fetch reproduce that exactly). A
// single STR leaves at once, past its own instruction.
uint64_t AfterStore(JitRt* rt, arm::paddr phys, uint64_t site) {
  arm::MachineState& m = *rt->m;
  const bool was_consistent = m.tlb_consistent;
  arm::NoteStoreToPhys(m, phys);
  if ((phys >= rt->block_phys_lo && phys < rt->block_phys_hi) ||
      (was_consistent && !m.tlb_consistent)) {
    rt->restart = 1;
  }
  if (rt->restart != 0 && SiteExitsOnRestart(site)) {
    ChargeOwed(m, site);
    m.pc = SiteInsnAddr(site) + 4;
    return kExitRestart << 32;
  }
  return 0;
}

// What every helper does first: count the access, and start a new probe
// stamp, since this call may fill a micro-TLB slot or store anywhere.
arm::MachineState& BeginAccess(JitRt* rt) {
  rt->NewStamp();
  ++rt->m->jit.mutable_stats().helper_accesses;
  return *rt->m;
}

}  // namespace

extern "C" uint64_t komodo_jit_load_word(JitRt* rt, uint32_t va, uint64_t site) {
  arm::MachineState& m = BeginAccess(rt);
  if (!arm::IsWordAligned(va)) {
    return TakeDataAbort(rt, site);
  }
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kRead);
  if (!tr.ok) {
    return TakeDataAbort(rt, site);
  }
  return m.mem.Read(tr.phys);
}

extern "C" uint64_t komodo_jit_store_word(JitRt* rt, uint32_t va, uint32_t value,
                                          uint64_t site) {
  arm::MachineState& m = BeginAccess(rt);
  if (!arm::IsWordAligned(va)) {
    return TakeDataAbort(rt, site);
  }
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kWrite);
  if (!tr.ok) {
    return TakeDataAbort(rt, site);
  }
  m.mem.Write(tr.phys, value);
  return AfterStore(rt, tr.phys, site);
}

extern "C" uint64_t komodo_jit_load_byte(JitRt* rt, uint32_t va, uint64_t site) {
  arm::MachineState& m = BeginAccess(rt);
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kRead);
  if (!tr.ok) {
    return TakeDataAbort(rt, site);
  }
  const arm::paddr word_addr = tr.phys & ~3u;
  const unsigned shift = (tr.phys & 3u) * 8;
  return (m.mem.Read(word_addr) >> shift) & 0xff;
}

extern "C" uint64_t komodo_jit_store_byte(JitRt* rt, uint32_t va, uint32_t value,
                                          uint64_t site) {
  arm::MachineState& m = BeginAccess(rt);
  const arm::Translation tr = arm::TranslateAddress(m, va, arm::Access::kWrite);
  if (!tr.ok) {
    return TakeDataAbort(rt, site);
  }
  const arm::paddr word_addr = tr.phys & ~3u;
  const unsigned shift = (tr.phys & 3u) * 8;
  const arm::word old = m.mem.Read(word_addr);
  m.mem.Write(word_addr, (old & ~(0xffu << shift)) | ((value & 0xffu) << shift));
  return AfterStore(rt, word_addr, site);
}

extern "C" uint64_t komodo_jit_data_abort(JitRt* rt, uint64_t site) {
  rt->NewStamp();  // not an access: helper_accesses counts the probes' misses
  return TakeDataAbort(rt, site);
}

}  // namespace komodo::jit
