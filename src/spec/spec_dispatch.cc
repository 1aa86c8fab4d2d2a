#include "src/spec/spec_dispatch.h"

#include <span>

#include "src/arm/memory.h"

namespace komodo::spec {

namespace {

// MapSecure's source page at call time, viewed in place in the machine's
// memory: its words, or an empty span when the page is not in insecure RAM
// (the check §9.1 reports the prototype got wrong).
std::span<const word> InsecureSourcePage(const arm::MachineState& m, word pgnr) {
  if (!arm::IsInsecurePage(m.mem, pgnr)) {
    return {};
  }
  return {m.mem.PageHost(m.mem.PageIndexOf(pgnr * arm::kPageSize)), arm::kWordsPerPage};
}

}  // namespace

Result ApplySmc(const PageDb& d, const arm::MachineState& m, word call,
                const std::array<word, 4>& args) {
  const word a1 = args[0];
  const word a2 = args[1];
  const word a3 = args[2];
  const word a4 = args[3];
  switch (call) {
#define KOM_SMC(name, nr, arity, argnames, impl, spec, errors) \
  case nr:                                                     \
    return spec;
#define KOM_SVC(name, nr, arity, argnames, impl, spec, errors)
#include "src/core/call_list.inc"
#undef KOM_SMC
#undef KOM_SVC
    default:
      return {kErrInvalidArgument};
  }
}

Result ApplySvc(const PageDb& d, PageNr as_page, word call, const std::array<word, 3>& args) {
  const word a1 = args[0];
  const word a2 = args[1];
  switch (call) {
#define KOM_SMC(name, nr, arity, argnames, impl, spec, errors)
#define KOM_SVC(name, nr, arity, argnames, impl, spec, errors) \
  case nr:                                                     \
    return spec;
#include "src/core/call_list.inc"
#undef KOM_SMC
#undef KOM_SVC
    default:
      return {kErrInvalidSvc};
  }
}

}  // namespace komodo::spec
