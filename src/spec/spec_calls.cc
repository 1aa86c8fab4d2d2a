#include "src/spec/spec_calls.h"

namespace komodo::spec {

namespace {

// Validation shared with the implementation (same checks, same order).
std::optional<word> CheckAddrspaceForInit(const PageDb& d, PageNr as_page) {
  if (!IsAddrspace(d, as_page)) {
    return kErrInvalidAddrspace;
  }
  if (d[as_page].As<AddrspacePage>().state != AddrspaceState::kInit) {
    return kErrAlreadyFinal;
  }
  return std::nullopt;
}

void Bump(PageDb& d, PageNr as_page, int delta) {
  AddrspacePage& as = d[as_page].As<AddrspacePage>();
  as.refcount = static_cast<word>(static_cast<int>(as.refcount) + delta);
}

crypto::Sha256 LoadStream(const AddrspacePage& as) {
  crypto::Sha256 s;
  s.Import(as.measurement_stream);
  return s;
}

void StoreStream(AddrspacePage& as, const crypto::Sha256& s) { as.measurement_stream = s.Export(); }

// Checks whether a zeroed L2 table page can be installed at `l1index`.
word CheckInstallL2(const PageDb& d, PageNr as_page, word l1index) {
  if (l1index >= 256) {
    return kErrInvalidMapping;
  }
  const PageNr l1pt = d[as_page].As<AddrspacePage>().l1pt_page;
  if (d[l1pt].As<L1PTablePage>().Get(l1index).has_value()) {
    return kErrAddrInUse;
  }
  return kErrSuccess;
}

// Installs a zeroed L2 table page into the L1 slot at `l1index`; the caller
// must have validated with CheckInstallL2 first.
void InstallL2(PageDb& d, PageNr as_page, PageNr l2pt_page, word l1index) {
  const PageNr l1pt = d[as_page].As<AddrspacePage>().l1pt_page;
  d[l1pt].As<L1PTablePage>().Set(l1index, l2pt_page);
}

// Shared Enter/Resume guard; `resuming` selects which entered-state is the
// error (same checks, same order as the implementation).
std::optional<word> CheckDispatcherForEntry(const PageDb& d, PageNr disp_page, bool resuming) {
  if (!d.ValidPageNr(disp_page) || d[disp_page].type() != PageType::kDispatcher) {
    return kErrInvalidPageNo;
  }
  if (d[d[disp_page].owner].As<AddrspacePage>().state != AddrspaceState::kFinal) {
    return kErrNotFinal;
  }
  const bool entered = d[disp_page].As<DispatcherPage>().entered;
  if (!resuming && entered) {
    return kErrAlreadyEntered;
  }
  if (resuming && !entered) {
    return kErrNotEntered;
  }
  return std::nullopt;
}

}  // namespace

Result SpecEnter(const PageDb& d, PageNr disp_page) {
  return {CheckDispatcherForEntry(d, disp_page, /*resuming=*/false).value_or(kErrSuccess)};
}

Result SpecResume(const PageDb& d, PageNr disp_page) {
  return {CheckDispatcherForEntry(d, disp_page, /*resuming=*/true).value_or(kErrSuccess)};
}

Result SpecInitAddrspace(const PageDb& d, PageNr as_page, PageNr l1pt_page) {
  if (!d.ValidPageNr(as_page) || !d.ValidPageNr(l1pt_page)) {
    return {kErrInvalidPageNo};
  }
  if (as_page == l1pt_page) {
    return {kErrInvalidPageNo};
  }
  if (!d[as_page].IsFree() || !d[l1pt_page].IsFree()) {
    return {kErrPageInUse};
  }
  AddrspacePage as;
  as.l1pt_page = l1pt_page;
  as.refcount = 1;
  as.state = AddrspaceState::kInit;
  StoreStream(as, crypto::Sha256());
  PageDb next = d;
  next[as_page] = PageDbEntry{as_page, as};
  next[l1pt_page] = PageDbEntry{as_page, L1PTablePage{}};
  return {kErrSuccess, std::move(next)};
}

Result SpecInitThread(const PageDb& d, PageNr as_page, PageNr disp_page, word entrypoint) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err};
  }
  if (!d.ValidPageNr(disp_page)) {
    return {kErrInvalidPageNo};
  }
  if (!d[disp_page].IsFree()) {
    return {kErrPageInUse};
  }
  DispatcherPage disp;
  disp.entrypoint = entrypoint;
  PageDb next = d;
  next[disp_page] = PageDbEntry{as_page, disp};
  Bump(next, as_page, 1);
  AddrspacePage& as = next[as_page].As<AddrspacePage>();
  crypto::Sha256 stream = LoadStream(as);
  stream.UpdateWordLe(kMeasureInitThread);
  stream.UpdateWordLe(entrypoint);
  StoreStream(as, stream);
  return {kErrSuccess, std::move(next)};
}

Result SpecInitL2Table(const PageDb& d, PageNr as_page, PageNr l2pt_page, word l1index) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err};
  }
  if (!d.ValidPageNr(l2pt_page)) {
    return {kErrInvalidPageNo};
  }
  if (!d[l2pt_page].IsFree()) {
    return {kErrPageInUse};
  }
  if (const word err = CheckInstallL2(d, as_page, l1index); err != kErrSuccess) {
    return {err};
  }
  PageDb next = d;
  next[l2pt_page] = PageDbEntry{as_page, L2PTablePage{}};
  InstallL2(next, as_page, l2pt_page, l1index);
  Bump(next, as_page, 1);
  return {kErrSuccess, std::move(next)};
}

Result SpecMapSecure(const PageDb& d, PageNr as_page, PageNr data_page, word mapping,
                     std::span<const word> contents) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err};
  }
  if (!d.ValidPageNr(data_page)) {
    return {kErrInvalidPageNo};
  }
  if (!d[data_page].IsFree()) {
    return {kErrPageInUse};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping};
  }
  if (contents.empty()) {
    return {kErrInvalidArgument};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing};
  }
  if (!std::holds_alternative<std::monostate>(
          d[slot->first].As<L2PTablePage>().Get(slot->second))) {
    return {kErrAddrInUse};
  }
  const word perms = MappingPerms(mapping);
  PageDb next = d;
  next[slot->first].As<L2PTablePage>().Set(
      slot->second, SecureMapping{data_page, (perms & kMapW) != 0, (perms & kMapX) != 0});
  next[data_page] = PageDbEntry{as_page, DataPage(contents.first<arm::kWordsPerPage>())};
  Bump(next, as_page, 1);

  AddrspacePage& as = next[as_page].As<AddrspacePage>();
  crypto::Sha256 stream = LoadStream(as);
  stream.UpdateWordLe(kMeasureMapSecure);
  stream.UpdateWordLe(mapping);
  for (word w : contents) {
    stream.UpdateWordLe(w);
  }
  StoreStream(as, stream);
  return {kErrSuccess, std::move(next)};
}

Result SpecAllocSpare(const PageDb& d, PageNr as_page, PageNr spare_page) {
  if (!IsAddrspace(d, as_page)) {
    return {kErrInvalidAddrspace};
  }
  if (d[as_page].As<AddrspacePage>().state == AddrspaceState::kStopped) {
    return {kErrInvalidAddrspace};
  }
  if (!d.ValidPageNr(spare_page)) {
    return {kErrInvalidPageNo};
  }
  if (!d[spare_page].IsFree()) {
    return {kErrPageInUse};
  }
  PageDb next = d;
  next[spare_page] = PageDbEntry{as_page, SparePage{}};
  Bump(next, as_page, 1);
  return {kErrSuccess, std::move(next)};
}

Result SpecMapInsecure(const PageDb& d, PageNr as_page, word mapping, bool insecure_ok,
                       word insecure_pgnr) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping};
  }
  if (!insecure_ok) {
    return {kErrInvalidArgument};
  }
  if ((MappingPerms(mapping) & kMapX) != 0) {
    return {kErrInvalidMapping};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing};
  }
  if (!std::holds_alternative<std::monostate>(
          d[slot->first].As<L2PTablePage>().Get(slot->second))) {
    return {kErrAddrInUse};
  }
  PageDb next = d;
  next[slot->first].As<L2PTablePage>().Set(
      slot->second, InsecureMapping{insecure_pgnr, (MappingPerms(mapping) & kMapW) != 0});
  return {kErrSuccess, std::move(next)};
}

Result SpecRemove(const PageDb& d, PageNr page) {
  if (!d.ValidPageNr(page)) {
    return {kErrInvalidPageNo};
  }
  const PageType type = d[page].type();
  if (type == PageType::kFree) {
    return {kErrSuccess};
  }
  const PageNr owner = d[page].owner;
  if (type == PageType::kAddrspace) {
    if (d[page].As<AddrspacePage>().refcount != 0) {
      return {kErrPageInUse};
    }
  } else if (type != PageType::kSparePage &&
             d[owner].As<AddrspacePage>().state != AddrspaceState::kStopped) {
    return {kErrNotStopped};
  }
  PageDb next = d;
  if (type != PageType::kAddrspace) {
    Bump(next, owner, -1);
  }
  next[page] = PageDbEntry{kInvalidPage, FreePage{}};
  return {kErrSuccess, std::move(next)};
}

Result SpecFinalise(const PageDb& d, PageNr as_page) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err};
  }
  PageDb next = d;
  AddrspacePage& as = next[as_page].As<AddrspacePage>();
  as.measurement = SpecMeasurementAfterFinalise(as);
  as.state = AddrspaceState::kFinal;
  return {kErrSuccess, std::move(next)};
}

Result SpecStop(const PageDb& d, PageNr as_page) {
  if (!IsAddrspace(d, as_page)) {
    return {kErrInvalidAddrspace};
  }
  PageDb next = d;
  next[as_page].As<AddrspacePage>().state = AddrspaceState::kStopped;
  return {kErrSuccess, std::move(next)};
}

Result SpecSvcInitL2Table(const PageDb& d, PageNr as_page, PageNr spare_page, word l1index) {
  if (!d.ValidPageNr(spare_page) || d[spare_page].type() != PageType::kSparePage ||
      d[spare_page].owner != as_page) {
    return {kErrNotSpare};
  }
  if (const word err = CheckInstallL2(d, as_page, l1index); err != kErrSuccess) {
    return {err};
  }
  PageDb next = d;
  next[spare_page] = PageDbEntry{as_page, L2PTablePage{}};
  InstallL2(next, as_page, spare_page, l1index);
  return {kErrSuccess, std::move(next)};
}

Result SpecSvcMapData(const PageDb& d, PageNr as_page, PageNr spare_page, word mapping) {
  if (!d.ValidPageNr(spare_page) || d[spare_page].type() != PageType::kSparePage ||
      d[spare_page].owner != as_page) {
    return {kErrNotSpare};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing};
  }
  if (!std::holds_alternative<std::monostate>(
          d[slot->first].As<L2PTablePage>().Get(slot->second))) {
    return {kErrAddrInUse};
  }
  const word perms = MappingPerms(mapping);
  PageDb next = d;
  next[slot->first].As<L2PTablePage>().Set(
      slot->second, SecureMapping{spare_page, (perms & kMapW) != 0, (perms & kMapX) != 0});
  next[spare_page] = PageDbEntry{as_page, DataPage{}};  // zero-filled
  return {kErrSuccess, std::move(next)};
}

Result SpecSvcUnmapData(const PageDb& d, PageNr as_page, PageNr data_page, word mapping) {
  if (!d.ValidPageNr(data_page) || d[data_page].type() != PageType::kDataPage ||
      d[data_page].owner != as_page) {
    return {kErrInvalidPageNo};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing};
  }
  const L2Entry entry = d[slot->first].As<L2PTablePage>().Get(slot->second);
  const SecureMapping* sm = std::get_if<SecureMapping>(&entry);
  if (sm == nullptr || sm->data_page != data_page) {
    return {kErrInvalidMapping};
  }
  PageDb next = d;
  next[slot->first].As<L2PTablePage>().Set(slot->second, std::monostate{});
  // Contents are retained while the page is spare (only re-mapping zeroes).
  next[data_page] = PageDbEntry{as_page, SparePage{}};
  return {kErrSuccess, std::move(next)};
}

crypto::DigestWords SpecMeasurementAfterFinalise(const AddrspacePage& as) {
  crypto::Sha256 stream;
  stream.Import(as.measurement_stream);
  return crypto::DigestToWords(stream.Finalize());
}

}  // namespace komodo::spec
