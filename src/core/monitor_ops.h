// Cycle-charged access to machine state for the monitor implementation.
//
// The paper's monitor is ARM assembly; ours is C++ operating on the simulated
// machine. To keep the benchmark numbers meaningful, every monitor operation
// goes through this layer, which both performs the access on the simulated
// physical memory and charges the cycles the equivalent ARM instruction
// sequence would cost. See DESIGN.md §6.
#ifndef SRC_CORE_MONITOR_OPS_H_
#define SRC_CORE_MONITOR_OPS_H_

#include "src/arm/cycle_model.h"
#include "src/arm/machine.h"

namespace komodo {

class MonitorOps {
 public:
  explicit MonitorOps(arm::MachineState& m) : m_(m) {}

  // --- Memory (each charges one load/store) ---------------------------------
  word LoadPhys(paddr addr) {
    m_.cycles.Charge(kCosts.load);
    return m_.mem.Read(addr);
  }
  void StorePhys(paddr addr, word value) {
    m_.cycles.Charge(kCosts.store);
    m_.mem.Write(addr, value);
  }

  // --- Whole pages ------------------------------------------------------------
  // Charged as the per-word loop they model: each word costs its store (plus
  // its load, for a copy) and one loop iteration (pointer increment, compare,
  // and a mostly predicted backward branch) — 5,120 cycles per page to zero,
  // 8,192 to copy.
  void ZeroPage(paddr page) {
    m_.cycles.Charge(arm::kWordsPerPage * (kLoopIterationCycles + kCosts.store));
    m_.mem.ZeroPage(page);
  }
  void CopyPage(paddr dst, paddr src) {
    word words[arm::kWordsPerPage];
    m_.mem.ReadPage(src, words);
    m_.cycles.Charge(arm::kWordsPerPage * (kLoopIterationCycles + kCosts.load + kCosts.store));
    m_.mem.WritePage(dst, words);
  }

  // --- Register file ---------------------------------------------------------
  word GetReg(arm::Reg reg) {
    m_.cycles.Charge(kCosts.alu);
    return m_.r[reg];
  }
  void SetReg(arm::Reg reg, word value) {
    m_.cycles.Charge(kCosts.alu);
    m_.r[reg] = value;
  }
  // Banked-register access from monitor mode: without the virtualisation
  // extensions' MRS-banked encodings, reaching another mode's SP/LR/SPSR
  // means a CPS into that mode and back — amortised here as 2 extra cycles
  // on top of the move itself.
  static constexpr uint64_t kBankedAccessCycles = 4;
  word GetBanked(arm::Reg reg, arm::Mode mode) {
    m_.cycles.Charge(kBankedAccessCycles);
    return m_.ReadRegMode(reg, mode);
  }
  void SetBanked(arm::Reg reg, word value, arm::Mode mode) {
    m_.cycles.Charge(kBankedAccessCycles);
    m_.WriteRegMode(reg, value, mode);
  }

  // --- Pure compute ----------------------------------------------------------
  void ChargeAlu(uint64_t n = 1) { m_.cycles.Charge(n * kCosts.alu); }
  // One SHA-256 compression function in unoptimised ARM assembly. Calibrated
  // against the paper's Attest/Verify rows (≈5 compressions each).
  void ChargeSha256Blocks(uint64_t blocks) { m_.cycles.Charge(blocks * kSha256BlockCycles); }

  static constexpr uint64_t kSha256BlockCycles = 2300;

 private:
  static constexpr arm::CycleCosts kCosts = arm::kCortexA7Costs;
  static constexpr uint64_t kLoopIterationCycles = 3;
  arm::MachineState& m_;
};

}  // namespace komodo

#endif  // SRC_CORE_MONITOR_OPS_H_
