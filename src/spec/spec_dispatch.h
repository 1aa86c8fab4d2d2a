// Registry-driven specification dispatch: applies the spec function for any
// Table 1 call by number. This is the spec-side counterpart of
// Monitor::Dispatch — both expand src/core/call_list.inc, so an SMC/SVC added
// to the registry automatically reaches the refinement suite.
#ifndef SRC_SPEC_SPEC_DISPATCH_H_
#define SRC_SPEC_SPEC_DISPATCH_H_

#include <array>

#include "src/arm/machine.h"
#include "src/spec/spec_calls.h"

namespace komodo::spec {

// Applies the spec of SMC `call` to `d`, which it reads and does not change:
// a successor comes back only when the call succeeds and writes the PageDb.
// Only MapSecure and MapInsecure read the machine state: each checks that its
// insecure page lies in insecure RAM, and MapSecure measures that page's
// contents and copies them into its successor before returning, so callers
// evaluate the spec before they run the implementation. Every other relation
// is pure in the PageDb. Unknown call numbers return kErrInvalidArgument,
// matching the implementation's dispatch default.
Result ApplySmc(const PageDb& d, const arm::MachineState& m, word call,
                const std::array<word, 4>& args);

// Applies the spec of SVC `call` issued by the enclave owning `as_page`.
// Unknown numbers return kErrInvalidSvc.
Result ApplySvc(const PageDb& d, PageNr as_page, word call, const std::array<word, 3>& args);

}  // namespace komodo::spec

#endif  // SRC_SPEC_SPEC_DISPATCH_H_
