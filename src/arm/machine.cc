#include "src/arm/machine.h"

#include <cassert>

namespace komodo::arm {

word VectorOffset(Exception e) {
  switch (e) {
    case Exception::kUndefined:
      return 0x04;
    case Exception::kSvc:
      return 0x08;
    case Exception::kSmc:
      return 0x08;  // SMC uses the monitor vector table's 0x08 slot
    case Exception::kPrefetchAbort:
      return 0x0c;
    case Exception::kDataAbort:
      return 0x10;
    case Exception::kIrq:
      return 0x18;
    case Exception::kFiq:
      return 0x1c;
  }
  return 0;
}

Mode ExceptionTargetMode(Exception e) {
  switch (e) {
    case Exception::kUndefined:
      return Mode::kUndefined;
    case Exception::kSvc:
      return Mode::kSupervisor;
    case Exception::kSmc:
      return Mode::kMonitor;
    case Exception::kPrefetchAbort:
    case Exception::kDataAbort:
      return Mode::kAbort;
    case Exception::kIrq:
      return Mode::kIrq;
    case Exception::kFiq:
      return Mode::kFiq;
  }
  return Mode::kSupervisor;
}

const char* ExceptionName(Exception e) {
  switch (e) {
    case Exception::kUndefined:
      return "undefined";
    case Exception::kSvc:
      return "svc";
    case Exception::kSmc:
      return "smc";
    case Exception::kPrefetchAbort:
      return "prefetch_abort";
    case Exception::kDataAbort:
      return "data_abort";
    case Exception::kIrq:
      return "irq";
    case Exception::kFiq:
      return "fiq";
  }
  return "unknown";
}

MachineState::MachineState(word nsecure_pages) : mem(nsecure_pages) {
  cpsr.mode = Mode::kSupervisor;
  cpsr.irq_masked = true;
  cpsr.fiq_masked = true;
}

void MachineState::TakeException(Exception e, word return_addr) {
  const Mode target = ExceptionTargetMode(e);
  lr_banked[static_cast<size_t>(target)] = return_addr;
  spsr_banked[static_cast<size_t>(target)] = cpsr;

  cpsr.mode = target;
  cpsr.irq_masked = true;
  if (e == Exception::kFiq || e == Exception::kSmc) {
    cpsr.fiq_masked = true;
  }

  const word base = (target == Mode::kMonitor) ? vbar_monitor : vbar_secure;
  pc = base + VectorOffset(e);
  cycles.Charge(kCortexA7Costs.exception_entry);
}

void MachineState::ExceptionReturn(word target) {
  assert(cpsr.mode != Mode::kUser);
  const Psr saved = Spsr();
  cpsr = saved;
  pc = target;
  cycles.Charge(kCortexA7Costs.exception_return);
}

// Note on the interpreter's micro-TLB: TTBR writes, TLBIALL and world
// switches deliberately do NOT touch it. Its entries are tagged with the
// TTBR0 they were walked under and the generations of the descriptor pages
// the walk read, so a stale entry can never validate — the cache is a pure
// memo of WalkPageTable, coherent by construction (tests/arm/tlb_cache_test.cc
// pins this). Keeping entries warm across the SMC world-switch round trip is
// a measurable win on enter/resume-heavy workloads (EXPERIMENTS.md). The
// *architectural* tlb_consistent discipline below is unchanged.
void MachineState::WriteTtbr0(word value) {
  ttbr0 = value;
  tlb_consistent = false;
  cycles.Charge(kCortexA7Costs.cp15_access);
}

void MachineState::FlushTlb() {
  tlb_consistent = true;
  ++tlb_flushes;
  cycles.Charge(kCortexA7Costs.tlb_flush_all);
}

size_t MachineState::ResetTo(const MachineState& snapshot) {
  r = snapshot.r;
  pc = snapshot.pc;
  cpsr = snapshot.cpsr;
  sp_banked = snapshot.sp_banked;
  lr_banked = snapshot.lr_banked;
  spsr_banked = snapshot.spsr_banked;
  scr_ns = snapshot.scr_ns;
  ttbr0 = snapshot.ttbr0;
  ttbr1 = snapshot.ttbr1;
  vbar_secure = snapshot.vbar_secure;
  vbar_monitor = snapshot.vbar_monitor;
  tlb_consistent = snapshot.tlb_consistent;
  pending_irq = snapshot.pending_irq;
  pending_fiq = snapshot.pending_fiq;
  cycles = snapshot.cycles;
  steps_retired = snapshot.steps_retired;
  tlb_flushes = snapshot.tlb_flushes;
  const size_t restored = mem.ResetTo(snapshot.mem);
  // set_enabled invalidates every decode/TLB/footprint entry as a side
  // effect; stale translations must not survive into the next lease even
  // though page generations only ever move forward.
  interp.set_enabled(snapshot.interp.enabled());
  jit.set_enabled(snapshot.jit.enabled());
  return restored;
}

void MachineState::SetScrNs(bool ns) {
  assert(cpsr.mode == Mode::kMonitor);
  scr_ns = ns;
  cycles.Charge(kCortexA7Costs.world_switch);
}

}  // namespace komodo::arm
