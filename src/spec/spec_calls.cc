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

// Checks whether a zeroed L2 table page can be installed at `l1index`; the
// caller only mutates the PageDb once this returns success, so no defensive
// copy of the whole database is needed.
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

Result SpecQuery(PageDb d) { return {kErrSuccess, std::move(d)}; }

Result SpecGetPhysPages(PageDb d) { return {kErrSuccess, std::move(d)}; }

Result SpecEnter(PageDb d, PageNr disp_page) {
  if (const auto err = CheckDispatcherForEntry(d, disp_page, /*resuming=*/false)) {
    return {*err, std::move(d)};
  }
  return {kErrSuccess, std::move(d)};
}

Result SpecResume(PageDb d, PageNr disp_page) {
  if (const auto err = CheckDispatcherForEntry(d, disp_page, /*resuming=*/true)) {
    return {*err, std::move(d)};
  }
  return {kErrSuccess, std::move(d)};
}

Result SpecSvcExit(PageDb d) { return {kErrSuccess, std::move(d)}; }

Result SpecSvcGetRandom(PageDb d) { return {kErrSuccess, std::move(d)}; }

Result SpecSvcAttest(PageDb d) { return {kErrSuccess, std::move(d)}; }

Result SpecSvcVerify(PageDb d) { return {kErrSuccess, std::move(d)}; }

Result SpecInitAddrspace(PageDb d, PageNr as_page, PageNr l1pt_page) {
  if (!d.ValidPageNr(as_page) || !d.ValidPageNr(l1pt_page)) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  if (as_page == l1pt_page) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  if (!d[as_page].IsFree() || !d[l1pt_page].IsFree()) {
    return {kErrPageInUse, std::move(d)};
  }
  AddrspacePage as;
  as.l1pt_page = l1pt_page;
  as.refcount = 1;
  as.state = AddrspaceState::kInit;
  StoreStream(as, crypto::Sha256());
  d[as_page] = PageDbEntry{as_page, as};
  d[l1pt_page] = PageDbEntry{as_page, L1PTablePage{}};
  return {kErrSuccess, std::move(d)};
}

Result SpecInitThread(PageDb d, PageNr as_page, PageNr disp_page, word entrypoint) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err, std::move(d)};
  }
  if (!d.ValidPageNr(disp_page)) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  if (!d[disp_page].IsFree()) {
    return {kErrPageInUse, std::move(d)};
  }
  DispatcherPage disp;
  disp.entrypoint = entrypoint;
  d[disp_page] = PageDbEntry{as_page, disp};
  Bump(d, as_page, 1);
  AddrspacePage& as = d[as_page].As<AddrspacePage>();
  crypto::Sha256 stream = LoadStream(as);
  stream.UpdateWordLe(kMeasureInitThread);
  stream.UpdateWordLe(entrypoint);
  StoreStream(as, stream);
  return {kErrSuccess, std::move(d)};
}

Result SpecInitL2Table(PageDb d, PageNr as_page, PageNr l2pt_page, word l1index) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err, std::move(d)};
  }
  if (!d.ValidPageNr(l2pt_page)) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  if (!d[l2pt_page].IsFree()) {
    return {kErrPageInUse, std::move(d)};
  }
  if (const word err = CheckInstallL2(d, as_page, l1index); err != kErrSuccess) {
    return {err, std::move(d)};
  }
  d[l2pt_page] = PageDbEntry{as_page, L2PTablePage{}};
  InstallL2(d, as_page, l2pt_page, l1index);
  Bump(d, as_page, 1);
  return {kErrSuccess, std::move(d)};
}

Result SpecMapSecure(PageDb d, PageNr as_page, PageNr data_page, word mapping,
                     const std::optional<DataPage::Words>& contents) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err, std::move(d)};
  }
  if (!d.ValidPageNr(data_page)) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  if (!d[data_page].IsFree()) {
    return {kErrPageInUse, std::move(d)};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping, std::move(d)};
  }
  if (!contents.has_value()) {
    return {kErrInvalidArgument, std::move(d)};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing, std::move(d)};
  }
  L2PTablePage& l2 = d[slot->first].As<L2PTablePage>();
  if (!std::holds_alternative<std::monostate>(l2.Get(slot->second))) {
    return {kErrAddrInUse, std::move(d)};
  }
  const word perms = MappingPerms(mapping);
  l2.Set(slot->second, SecureMapping{data_page, (perms & kMapW) != 0, (perms & kMapX) != 0});
  d[data_page] = PageDbEntry{as_page, DataPage(*contents)};
  Bump(d, as_page, 1);

  AddrspacePage& as = d[as_page].As<AddrspacePage>();
  crypto::Sha256 stream = LoadStream(as);
  stream.UpdateWordLe(kMeasureMapSecure);
  stream.UpdateWordLe(mapping);
  for (word w : *contents) {
    stream.UpdateWordLe(w);
  }
  StoreStream(as, stream);
  return {kErrSuccess, std::move(d)};
}

Result SpecAllocSpare(PageDb d, PageNr as_page, PageNr spare_page) {
  if (!IsAddrspace(d, as_page)) {
    return {kErrInvalidAddrspace, std::move(d)};
  }
  if (d[as_page].As<AddrspacePage>().state == AddrspaceState::kStopped) {
    return {kErrInvalidAddrspace, std::move(d)};
  }
  if (!d.ValidPageNr(spare_page)) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  if (!d[spare_page].IsFree()) {
    return {kErrPageInUse, std::move(d)};
  }
  d[spare_page] = PageDbEntry{as_page, SparePage{}};
  Bump(d, as_page, 1);
  return {kErrSuccess, std::move(d)};
}

Result SpecMapInsecure(PageDb d, PageNr as_page, word mapping, bool insecure_ok,
                       word insecure_pgnr) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err, std::move(d)};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping, std::move(d)};
  }
  if (!insecure_ok) {
    return {kErrInvalidArgument, std::move(d)};
  }
  if ((MappingPerms(mapping) & kMapX) != 0) {
    return {kErrInvalidMapping, std::move(d)};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing, std::move(d)};
  }
  L2PTablePage& l2 = d[slot->first].As<L2PTablePage>();
  if (!std::holds_alternative<std::monostate>(l2.Get(slot->second))) {
    return {kErrAddrInUse, std::move(d)};
  }
  l2.Set(slot->second, InsecureMapping{insecure_pgnr, (MappingPerms(mapping) & kMapW) != 0});
  return {kErrSuccess, std::move(d)};
}

Result SpecRemove(PageDb d, PageNr page) {
  if (!d.ValidPageNr(page)) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  const PageType type = d[page].type();
  if (type == PageType::kFree) {
    return {kErrSuccess, std::move(d)};
  }
  if (type == PageType::kAddrspace) {
    if (d[page].As<AddrspacePage>().refcount != 0) {
      return {kErrPageInUse, std::move(d)};
    }
  } else {
    const PageNr owner = d[page].owner;
    if (type != PageType::kSparePage &&
        d[owner].As<AddrspacePage>().state != AddrspaceState::kStopped) {
      return {kErrNotStopped, std::move(d)};
    }
    Bump(d, owner, -1);
  }
  d[page] = PageDbEntry{kInvalidPage, FreePage{}};
  return {kErrSuccess, std::move(d)};
}

Result SpecFinalise(PageDb d, PageNr as_page) {
  if (const auto err = CheckAddrspaceForInit(d, as_page)) {
    return {*err, std::move(d)};
  }
  AddrspacePage& as = d[as_page].As<AddrspacePage>();
  as.measurement = SpecMeasurementAfterFinalise(as);
  as.state = AddrspaceState::kFinal;
  return {kErrSuccess, std::move(d)};
}

Result SpecStop(PageDb d, PageNr as_page) {
  if (!IsAddrspace(d, as_page)) {
    return {kErrInvalidAddrspace, std::move(d)};
  }
  d[as_page].As<AddrspacePage>().state = AddrspaceState::kStopped;
  return {kErrSuccess, std::move(d)};
}

Result SpecSvcInitL2Table(PageDb d, PageNr as_page, PageNr spare_page, word l1index) {
  if (!d.ValidPageNr(spare_page) || d[spare_page].type() != PageType::kSparePage ||
      d[spare_page].owner != as_page) {
    return {kErrNotSpare, std::move(d)};
  }
  if (const word err = CheckInstallL2(d, as_page, l1index); err != kErrSuccess) {
    return {err, std::move(d)};
  }
  d[spare_page] = PageDbEntry{as_page, L2PTablePage{}};
  InstallL2(d, as_page, spare_page, l1index);
  return {kErrSuccess, std::move(d)};
}

Result SpecSvcMapData(PageDb d, PageNr as_page, PageNr spare_page, word mapping) {
  if (!d.ValidPageNr(spare_page) || d[spare_page].type() != PageType::kSparePage ||
      d[spare_page].owner != as_page) {
    return {kErrNotSpare, std::move(d)};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping, std::move(d)};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing, std::move(d)};
  }
  L2PTablePage& l2 = d[slot->first].As<L2PTablePage>();
  if (!std::holds_alternative<std::monostate>(l2.Get(slot->second))) {
    return {kErrAddrInUse, std::move(d)};
  }
  const word perms = MappingPerms(mapping);
  l2.Set(slot->second, SecureMapping{spare_page, (perms & kMapW) != 0, (perms & kMapX) != 0});
  d[spare_page] = PageDbEntry{as_page, DataPage{}};  // zero-filled
  return {kErrSuccess, std::move(d)};
}

Result SpecSvcUnmapData(PageDb d, PageNr as_page, PageNr data_page, word mapping) {
  if (!d.ValidPageNr(data_page) || d[data_page].type() != PageType::kDataPage ||
      d[data_page].owner != as_page) {
    return {kErrInvalidPageNo, std::move(d)};
  }
  if (!MappingValid(mapping)) {
    return {kErrInvalidMapping, std::move(d)};
  }
  const auto slot = SpecL2Slot(d, as_page, mapping);
  if (!slot.has_value()) {
    return {kErrPageTableMissing, std::move(d)};
  }
  L2PTablePage& l2 = d[slot->first].As<L2PTablePage>();
  const L2Entry entry = l2.Get(slot->second);
  const SecureMapping* sm = std::get_if<SecureMapping>(&entry);
  if (sm == nullptr || sm->data_page != data_page) {
    return {kErrInvalidMapping, std::move(d)};
  }
  l2.Set(slot->second, std::monostate{});
  // Contents are retained while the page is spare (only re-mapping zeroes).
  d[data_page] = PageDbEntry{as_page, SparePage{}};
  return {kErrSuccess, std::move(d)};
}

crypto::DigestWords SpecMeasurementAfterFinalise(const AddrspacePage& as) {
  crypto::Sha256 stream;
  stream.Import(as.measurement_stream);
  return crypto::DigestToWords(stream.Finalize());
}

}  // namespace komodo::spec
