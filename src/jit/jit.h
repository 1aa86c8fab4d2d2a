// A32 → x64 dynamic binary translator for enclave execution (DESIGN.md §13).
//
// The JIT compiles straight-line A32 basic blocks (ending at branches,
// SVC/SMC, mode-changing or PC-writing instructions) into native x64 code in
// an executable code cache, keyed by the block's *physical* start address and
// validated against PhysMemory::PageGen generation counters — the same
// coherence discipline the interpreter's decode cache uses, so self-modifying
// code and page reuse (InstallL2/Remove) invalidate translated blocks by
// construction. Everything outside the hot subset (coprocessor and PSR ops,
// traps, exception returns, PC-as-raw-operand oddities) falls back to the
// cached interpreter one step at a time.
//
// Trust argument: the JIT is *untrusted* fast-path machinery. It must retire
// bit-identical architectural state — registers, memory, exceptions,
// steps_retired and the calibrated Cortex-A7 cycle counter — to the
// interpreter, and the interpreter remains the oracle: the three-way
// differential suite (tests/arm/interp_diff_test.cc, tests/jit/) and
// komodo-fuzz's interp-equivalence oracle gate every change. Like the
// interpreter caches, JIT state is architecturally invisible bookkeeping:
// excluded from state comparison and cold after copy. A machine runs it only
// in ExecMode::kJit (machine.h); on non-x86_64 hosts the translator reports
// unavailable and that mode falls back to the cached interpreter.
#ifndef SRC_JIT_JIT_H_
#define SRC_JIT_JIT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/obs/counters.h"

namespace komodo::arm {
struct MachineState;
enum class Exception : uint8_t;
}  // namespace komodo::arm

namespace komodo::jit {

// True when this build can execute translated code (x86-64 host with POSIX
// executable mappings). When false, no machine is ever in ExecMode::kJit and
// every step is interpreted; nothing else changes.
bool Available();

// Generated from KOMODO_JIT_COUNTERS, so every field reaches the per-call
// metrics.
using JitStats = obs::JitCounters;

class Engine;  // code cache + translator; private to the jit library

// One live code-cache entry, exported for the fuzzer's evolve-mode coverage
// harvest (DESIGN.md §15): the (phys, va) block key plus whether the entry is
// compiled code or a cached interpret-one verdict.
struct ResidentBlock {
  uint64_t phys = 0;
  uint64_t va = 0;
  bool compiled = false;
};

// Per-machine JIT handle, mirroring InterpCaches' discipline: the engine
// (code cache) is lazily allocated and always starts cold in a copy, and
// nothing here is architectural state.
class JitState {
 public:
  JitState();
  JitState(const JitState&) : JitState() {}
  JitState& operator=(const JitState&) {
    InvalidateAll();
    return *this;
  }
  ~JitState();

  const JitStats& stats() const { return stats_; }
  JitStats& mutable_stats() { return stats_; }

  // Orphans every translated block (epoch bump, O(1)).
  void InvalidateAll();

  // Live block-table entries (current epoch), sorted by (phys, va). Empty
  // when the engine was never created. Coverage signal only; never part of
  // the JIT's architectural contract.
  std::vector<ResidentBlock> ResidentBlocks() const;

  // Lazily constructed engine; nullptr when unavailable (non-x86_64, or the
  // executable mapping failed — both degrade to the cached interpreter).
  Engine* GetEngine();

 private:
  JitStats stats_;
  std::unique_ptr<Engine> engine_;
};

// Outcome of one attempted block dispatch.
struct RunOutcome {
  bool ran = false;         // false: caller must interpret exactly one step
  uint64_t steps = 0;       // steps retired by the block (when ran)
  bool took_exception = false;
  arm::Exception exception{};
};

// Tries to execute one translated basic block at m.pc, for a machine in
// ExecMode::kJit. Declines (ran=false) when the code cache cannot be mapped
// (the machine then drops to ExecMode::kCached), a deliverable interrupt is
// pending, the fetch does not translate, the instruction at pc is outside
// the hot subset, or the block might retire more than `max_steps`
// instructions (the caller's budget must be exact). On decline the caller
// interprets one step.
RunOutcome TryRunBlock(arm::MachineState& m, uint64_t max_steps);

}  // namespace komodo::jit

#endif  // SRC_JIT_JIT_H_
