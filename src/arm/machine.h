// The ARMv7-A + TrustZone machine state and its architectural transitions.
//
// Mirrors the paper's trusted Dafny hardware model (§5.1): core registers
// R0–R12, banked SP/LR/SPSR per mode, CPSR fields, TrustZone worlds via
// SCR.NS, translation-table base registers, a TLB-consistency bit, exception
// entry/return, and physical memory. The program counter is modelled
// explicitly here (the interpreter needs it); structured-control-flow
// reasoning was a verification convenience in the paper, not an architectural
// property.
#ifndef SRC_ARM_MACHINE_H_
#define SRC_ARM_MACHINE_H_

#include <array>
#include <cstdint>

#include "src/arm/cycle_model.h"
#include "src/arm/interp_cache.h"
#include "src/arm/memory.h"
#include "src/arm/psr.h"
#include "src/arm/types.h"
#include "src/jit/jit.h"

namespace komodo::arm {

// Exception kinds the model can take (DDI 0406C §B1.8). Reset is unmodelled;
// the bootloader constructs the initial state directly.
enum class Exception : uint8_t {
  kUndefined,
  kSvc,
  kSmc,
  kPrefetchAbort,
  kDataAbort,
  kIrq,
  kFiq,
};

// Vector-table offsets for each exception kind.
word VectorOffset(Exception e);
// The mode an exception is taken to. SMC always enters monitor mode.
Mode ExceptionTargetMode(Exception e);
// Static lower-case name ("data_abort"), used as a trace event name.
const char* ExceptionName(Exception e);

struct MachineState {
  explicit MachineState(word nsecure_pages = kDefaultSecurePages);

  // --- Core registers -------------------------------------------------------
  std::array<word, 13> r{};  // R0-R12 (not banked; FIQ banking of R8-R12 is
                             // unused by Komodo and unmodelled, like the paper)
  word pc = 0;
  Psr cpsr;

  // Banked SP/LR per mode (index by Mode).
  std::array<word, kNumModes> sp_banked{};
  std::array<word, kNumModes> lr_banked{};
  // Banked SPSR per privileged mode; the user-mode slot is unused.
  std::array<Psr, kNumModes> spsr_banked{};

  // --- System control -------------------------------------------------------
  bool scr_ns = false;      // SCR.NS: current world when not in monitor mode
  word ttbr0 = 0;           // enclave page-table base (low 1 GB, TTBCR.N=2)
  word ttbr1 = 0;           // monitor static table base (high addresses)
  word vbar_secure = 0;     // secure-world exception vector base
  word vbar_monitor = 0;    // monitor vector base (SMC lands here)

  // TLB consistency (§5.1): stores to a live page table or TTBR writes mark
  // the TLB inconsistent; user-mode execution requires consistency.
  bool tlb_consistent = true;

  // Pending asynchronous interrupt lines, injectable by the environment /
  // test harness. Checked before each interpreted instruction.
  bool pending_irq = false;
  bool pending_fiq = false;

  PhysMemory mem;
  CycleCounter cycles;

  // Interpreter fast-path caches (DESIGN.md §8). Architecturally invisible
  // bookkeeping: mutable because even const translations may fill them, and
  // excluded from any state comparison. KOMODO_INTERP_CACHE=off disables.
  mutable InterpCaches interp;

  // A32→x64 block translator state (DESIGN.md §13). Like `interp`, pure
  // bookkeeping: invisible to state comparison, cold after copy, disabled by
  // KOMODO_JIT=off, and always off on non-x86-64 hosts. Mutable for the same
  // reason as `interp` (dispatching from a logically-const machine fills it).
  mutable jit::JitState jit;

  // Instructions the interpreter has stepped (bookkeeping for benchmarks;
  // identical across cached/uncached runs of the same program).
  uint64_t steps_retired = 0;

  // FlushTlb invocations (bookkeeping for the tracer's per-call attribution;
  // architecturally invisible, like steps_retired).
  uint64_t tlb_flushes = 0;

  // --- Accessors honouring register banking ---------------------------------
  World CurrentWorld() const {
    // Monitor mode is always secure regardless of SCR.NS (DDI 0406C §B1.5.1).
    if (cpsr.mode == Mode::kMonitor) {
      return World::kSecure;
    }
    return scr_ns ? World::kNormal : World::kSecure;
  }

  // Inline: these sit on the interpreter's per-operand hot path.
  word ReadRegMode(Reg reg, Mode m) const {
    if (reg < SP) {
      return r[reg];
    }
    if (reg == SP) {
      return sp_banked[static_cast<size_t>(m)];
    }
    if (reg == LR) {
      return lr_banked[static_cast<size_t>(m)];
    }
    return pc;
  }
  void WriteRegMode(Reg reg, word value, Mode m) {
    if (reg < SP) {
      r[reg] = value;
    } else if (reg == SP) {
      sp_banked[static_cast<size_t>(m)] = value;
    } else if (reg == LR) {
      lr_banked[static_cast<size_t>(m)] = value;
    } else {
      pc = value;
    }
  }
  word ReadReg(Reg reg) const { return ReadRegMode(reg, cpsr.mode); }  // SP/LR banked
  void WriteReg(Reg reg, word value) { WriteRegMode(reg, value, cpsr.mode); }

  Psr& Spsr() { return spsr_banked[static_cast<size_t>(cpsr.mode)]; }
  const Psr& Spsr() const { return spsr_banked[static_cast<size_t>(cpsr.mode)]; }

  // --- Architectural transitions --------------------------------------------

  // Takes exception `e`: banks the return address and CPSR into the target
  // mode's LR/SPSR, switches mode, masks IRQs (and FIQs for FIQ/SMC), and
  // branches to the vector. `return_addr` is the architecturally preferred
  // return address for `e`. Charges exception-entry cycles.
  void TakeException(Exception e, word return_addr);

  // Exception return (MOVS PC, LR semantics): restores CPSR from the current
  // mode's SPSR and branches to `target`. Charges exception-return cycles.
  // The caller is responsible for having set up banked user state.
  void ExceptionReturn(word target);

  // CP15 operations the monitor uses.
  void WriteTtbr0(word value);     // marks TLB inconsistent
  void FlushTlb();                 // TLBIALL: marks TLB consistent
  void SetScrNs(bool ns);          // world switch (monitor mode only)

  // Marks the TLB inconsistent without a TTBR write — the hook monitor code
  // uses after editing a live page table from C++ (InstallMapping,
  // UnmapData); a later FlushTlb restores consistency.
  void NoteTlbStale() { tlb_consistent = false; }

  // --- Snapshot-reset (DESIGN.md §11) ----------------------------------------
  // Restores this machine to `snapshot` — a plain copy of *this taken while
  // mem's dirty tracking was enabled with an empty dirty set. All scalar
  // architectural state (registers, banked state, PSRs, system registers,
  // consistency/pending bits) and the bookkeeping counters (cycles,
  // steps_retired, tlb_flushes) are copied back; memory is restored page-wise
  // through PhysMemory::ResetTo, touching only the pages written since the
  // snapshot. The interpreter caches are invalidated outright (their entries
  // may embed translations and footprints derived from pre-reset TTBRs) and
  // the cache-enabled flag reverts to the snapshot's. The result is
  // state-equal to a fresh copy of the snapshot. Returns the number of memory
  // pages restored.
  size_t ResetTo(const MachineState& snapshot);
};

// The tracer's snapshot of `m`'s counters (DESIGN.md §9). Reads the fields
// directly, never through the monitor's MonitorOps, so it charges no cycle.
inline obs::MachineSnap ObsSnap(const MachineState& m) {
  return {m.cycles.total(), m.steps_retired, m.tlb_flushes, m.interp.stats(), m.jit.stats()};
}

}  // namespace komodo::arm

#endif  // SRC_ARM_MACHINE_H_
