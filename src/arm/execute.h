// Single-step interpreter for the modelled instruction subset, with virtual
// memory translation, the TrustZone memory filter and asynchronous interrupt
// injection.
#ifndef SRC_ARM_EXECUTE_H_
#define SRC_ARM_EXECUTE_H_

#include <optional>

#include "src/arm/isa.h"
#include "src/arm/machine.h"

namespace komodo::arm {

enum class StepStatus : uint8_t {
  kOk,         // instruction retired, control stays in the current mode
  kException,  // an exception was taken (including SVC/SMC traps)
};

struct StepResult {
  StepStatus status = StepStatus::kOk;
  Exception exception = Exception::kUndefined;  // valid when status == kException
};

// --- Data-processing datapath ------------------------------------------------
// Step executes through these and komodo-lint's constant folding
// (src/analysis/taint.cc) evaluates through them, so the two cannot disagree
// on a value. Inline: they sit on the interpreter's per-step hot path.

struct ShiftOut {
  word value;
  bool carry;
};

// The register form of the shifter operand: `value` shifted by an immediate
// `amount` (0..31; LSR and ASR #0 mean #32, ROR #0 is RRX through
// `carry_in`), with the shifter carry-out.
inline ShiftOut ApplyShift(word value, ShiftKind kind, unsigned amount, bool carry_in) {
  switch (kind) {
    case ShiftKind::kLsl:
      if (amount == 0) {
        return {value, carry_in};
      }
      return {value << amount, ((value >> (32 - amount)) & 1) != 0};
    case ShiftKind::kLsr:
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

inline AluOut AddWithCarry(word a, word b, bool carry_in) {
  const uint64_t unsigned_sum = static_cast<uint64_t>(a) + b + (carry_in ? 1 : 0);
  const int64_t signed_sum = static_cast<int64_t>(static_cast<int32_t>(a)) +
                             static_cast<int32_t>(b) + (carry_in ? 1 : 0);
  const word result = static_cast<word>(unsigned_sum);
  return {result, unsigned_sum != result, signed_sum != static_cast<int32_t>(result), true};
}

// Data-processing op `op` over rn's value and the shifter operand. ADC, SBC
// and RSC consume `carry_in` (the C flag); the logical ops pass
// `shifter_carry` and `v` through.
inline AluOut ApplyAlu(Op op, word rn, word op2, bool shifter_carry, bool carry_in, bool v) {
  switch (op) {
    case Op::kAnd:
    case Op::kTst:
      return {rn & op2, shifter_carry, v, false};
    case Op::kEor:
    case Op::kTeq:
      return {rn ^ op2, shifter_carry, v, false};
    case Op::kSub:
    case Op::kCmp:
      return AddWithCarry(rn, ~op2, true);
    case Op::kRsb:
      return AddWithCarry(~rn, op2, true);
    case Op::kAdd:
    case Op::kCmn:
      return AddWithCarry(rn, op2, false);
    case Op::kAdc:
      return AddWithCarry(rn, op2, carry_in);
    case Op::kSbc:
      return AddWithCarry(rn, ~op2, carry_in);
    case Op::kRsc:
      return AddWithCarry(~rn, op2, carry_in);
    case Op::kOrr:
      return {rn | op2, shifter_carry, v, false};
    case Op::kMov:
      return {op2, shifter_carry, v, false};
    case Op::kBic:
      return {rn & ~op2, shifter_carry, v, false};
    case Op::kMvn:
      return {~op2, shifter_carry, v, false};
    default:
      return {0, shifter_carry, v, false};
  }
}

// Kinds of memory access for translation purposes.
enum class Access : uint8_t { kFetch, kRead, kWrite };

struct Translation {
  bool ok = false;
  paddr phys = 0;
};

// Translates `va` for the machine's current mode and world:
//  * normal world: flat mapping, but the TrustZone filter faults any access to
//    the monitor image or secure page region (§3.2's IOMMU-like partition);
//  * secure user: two-level walk from TTBR0 with permission checks;
//  * secure privileged: the monitor's static direct map at kDirectMapVbase.
Translation TranslateAddress(const MachineState& m, vaddr va, Access access);

// Executes one instruction (or takes a pending interrupt). All architectural
// effects — including exceptions — are applied to `m`; cycle costs are charged
// per the Cortex-A7 model.
StepResult Step(MachineState& m);

// Applies the store side-channel bookkeeping Step performs after a successful
// write to `phys` (TLB-consistency invalidation when a secure-world store
// lands in the live enclave page table). Exposed for the JIT's store helpers,
// which bypass Step but must observe identical architectural effects.
void NoteStoreToPhys(MachineState& m, paddr phys);

// Runs until control leaves user mode (an exception is taken) or `max_steps`
// instructions retire. In ExecMode::kJit, hot basic blocks execute as
// translated x64 code with bit-identical architectural effects
// (DESIGN.md §13); everything else falls back to Step. Returns the
// terminating exception, or nullopt if the step budget ran out with the
// machine still in user mode.
std::optional<Exception> RunUntilException(MachineState& m, uint64_t max_steps);

}  // namespace komodo::arm

#endif  // SRC_ARM_EXECUTE_H_
