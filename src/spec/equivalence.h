// The relations the two theorems are checked against. For noninterference
// (§6.1): weak page equivalence =enc (Definition 1), enclave observational
// equivalence ≈enc (Definition 2), and the OS-adversary relation ≈adv, which
// additionally compares general-purpose registers, non-monitor banked
// registers, and all of insecure memory. For functional correctness (§5.2):
// the refinement relation between one implementation call and its spec.
#ifndef SRC_SPEC_EQUIVALENCE_H_
#define SRC_SPEC_EQUIVALENCE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/arm/machine.h"
#include "src/spec/abstract_state.h"
#include "src/spec/spec_calls.h"

namespace komodo::spec {

// Definition 1: pages outside the observer's address space look the same if
// they have the same type (data/spare), the same type and entered flag
// (dispatcher), or are fully equal (page tables and address spaces).
bool WeakEquivPage(const PageDbEntry& e1, const PageDbEntry& e2);

// Definition 2: ≈enc for observer address space `enc`. Returns violations
// (empty = related).
std::vector<std::string> EncEquivViolations(const PageDb& d1, const PageDb& d2, PageNr enc);
inline bool ObsEquivEnc(const PageDb& d1, const PageDb& d2, PageNr enc) {
  return EncEquivViolations(d1, d2, enc).empty();
}

// ≈adv: the OS colluding with enclave `enc` (pass kInvalidPage for an OS-only
// adversary, i.e. skip the colluding-enclave clause). Compares, on top of
// ≈enc: r0-r12, banked SP/LR/SPSR of every mode except monitor, CPSR, and the
// full insecure memory. A caller checking one pair of machines repeatedly
// passes `insecure_ram`, a MemoryCompare with Scope::kInsecure it keeps
// across the calls, so each call rescans only the insecure pages written since
// the last related check; without it every call compares all insecure memory.
std::vector<std::string> AdvEquivViolations(const arm::MachineState& m1, const PageDb& d1,
                                            const arm::MachineState& m2, const PageDb& d2,
                                            PageNr enc,
                                            arm::MemoryCompare* insecure_ram = nullptr);
inline bool ObsEquivAdv(const arm::MachineState& m1, const PageDb& d1,
                        const arm::MachineState& m2, const PageDb& d2, PageNr enc) {
  return AdvEquivViolations(m1, d1, m2, d2, enc).empty();
}

// Refinement: a call refines its spec when it returns the spec's error word
// and lands on the spec's PageDb: the spec's successor when it has one, and
// the pre-state when the call failed or wrote nothing. The exception is the
// havoc set, whose effects the spec leaves to user-mode execution (§5.1):
// Enter/Resume whose guard passed (which must then return success,
// interrupted or fault), and the Exit/Attest/Verify SVCs (whose failures live
// in user memory). There the spec fixes only the guard and the
// implementation's post-state is taken as the successor.
struct RefinementStep {
  std::string failure;  // empty: the call refines the spec
  // The abstract post-state; nullopt when nothing was written, so the
  // post-state is the pre-state.
  std::optional<PageDb> successor;
};

// The implementation's post-state, extracted on demand: its PageDb, nullopt
// when the call wrote no memory (the post-state is the pre-state), or nullopt
// with `*why` set when the machine does not decode.
using ExtractPost = std::function<std::optional<PageDb>(std::string* why)>;

// Relates one call (SMC, or SVC when `is_svc`) from pre-state `pre` to the
// spec's `expected` result. The error word is compared before `post` is
// called, so a post-state that does not decode is reported only when the
// error words agree. When neither the spec nor the implementation wrote
// anything, no PageDb is compared.
RefinementStep CheckRefinement(const PageDb& pre, bool is_svc, word call, Result expected,
                               word impl_err, const ExtractPost& post);

}  // namespace komodo::spec

#endif  // SRC_SPEC_EQUIVALENCE_H_
