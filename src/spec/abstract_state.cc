#include "src/spec/abstract_state.h"

namespace komodo::spec {

std::optional<std::pair<PageNr, word>> SpecL2Slot(const PageDb& d, PageNr as_page, word mapping) {
  const arm::vaddr va = MappingVa(mapping);
  const AddrspacePage& as = d[as_page].As<AddrspacePage>();
  const L1PTablePage& l1 = d[as.l1pt_page].As<L1PTablePage>();
  const std::optional<PageNr> l2 = l1.Get(va >> 22);  // 4 MB per L2PTable page
  if (!l2.has_value()) {
    return std::nullopt;
  }
  return std::make_pair(*l2, (va >> 12) & 0x3ff);
}

}  // namespace komodo::spec
