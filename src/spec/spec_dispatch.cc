#include "src/spec/spec_dispatch.h"

#include <optional>

#include "src/arm/memory.h"

namespace komodo::spec {

namespace {

// MapSecure's source page at call time: its words, or nothing when the page
// is not in insecure RAM (the check §9.1 reports the prototype got wrong).
std::optional<DataPage::Words> InsecureSourcePage(const arm::MachineState& m, word pgnr) {
  const arm::paddr base = pgnr * arm::kPageSize;
  if (!arm::IsInsecurePageAddr(m.mem, base)) {
    return std::nullopt;
  }
  DataPage::Words words;
  m.mem.ReadPage(base, words.data());
  return words;
}

}  // namespace

Result ApplySmc(PageDb d, const arm::MachineState& m, word call, const std::array<word, 4>& args) {
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
      return {kErrInvalidArgument, std::move(d)};
  }
}

Result ApplySvc(PageDb d, PageNr as_page, word call, const std::array<word, 3>& args) {
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
      return {kErrInvalidSvc, std::move(d)};
  }
}

}  // namespace komodo::spec
