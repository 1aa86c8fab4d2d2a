// The PageDB: the monitor's per-secure-page metadata (§4, "Page types and
// enclave construction"), the software analogue of SGX's EPCM.
//
// The database lives in simulated monitor RAM (not in C++ shadow state), so
// the refinement tests can extract it from memory and compare against the
// abstract specification. Layout:
//
//   kMonitorBase + kGlobalsOffset:   monitor globals (npages, current
//                                    dispatcher, attestation key)
//   kMonitorBase + kPageDbOffset:    one 4-word record per secure page:
//                                    { type, owner addrspace page, 2 spare }
//
// Per-page metadata that belongs to a specific page type (address-space
// refcount/state/measurement, dispatcher context) is stored *inside* the
// secure page itself, as the paper's implementation does.
#ifndef SRC_CORE_PAGEDB_H_
#define SRC_CORE_PAGEDB_H_

#include "src/core/kom_defs.h"
#include "src/core/monitor_ops.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"

namespace komodo {

// --- Monitor RAM layout -------------------------------------------------------
inline constexpr word kGlobalsOffset = 0x0;
inline constexpr word kGlobalNPages = 0x00;
inline constexpr word kGlobalCurDispatcher = 0x04;
inline constexpr word kGlobalAttestKey = 0x08;  // 8 words
inline constexpr word kPageDbOffset = 0x1000;
inline constexpr word kPageDbEntryWords = 4;

// --- Address-space page layout (word offsets within the page) ------------------
inline constexpr word kAsL1PtPage = 0;
inline constexpr word kAsRefcount = 1;
inline constexpr word kAsState = 2;
inline constexpr word kAsMeasurementDigest = 8;   // 8 words, valid once final
inline constexpr word kAsMeasurementStream = 16;  // 27 words (Sha256::Export)

// --- Dispatcher (thread) page layout --------------------------------------------
inline constexpr word kDispEntered = 0;
inline constexpr word kDispEntrypoint = 1;
inline constexpr word kDispSavedRegs = 2;  // r0-r12 (13 words)
inline constexpr word kDispSavedSp = 15;
inline constexpr word kDispSavedLr = 16;
inline constexpr word kDispSavedPc = 17;
inline constexpr word kDispSavedPsr = 18;

// Cycle-charged view of the PageDB and the typed pages it references.
class PageDb {
 public:
  explicit PageDb(MonitorOps& ops) : ops_(ops) {}

  word NPages() { return ops_.LoadPhys(arm::kMonitorBase + kGlobalNPages); }
  bool ValidPageNr(PageNr n) { return n < NPages(); }

  PageType TypeOf(PageNr n);
  void SetType(PageNr n, PageType t);
  PageNr OwnerOf(PageNr n);
  void SetOwner(PageNr n, PageNr addrspace);

  bool IsFree(PageNr n) { return TypeOf(n) == PageType::kFree; }

  // --- Address-space pages ----------------------------------------------------
  PageNr AsL1Pt(PageNr as) { return LoadPageWord(as, kAsL1PtPage); }
  void SetAsL1Pt(PageNr as, PageNr l1pt) { StorePageWord(as, kAsL1PtPage, l1pt); }
  word AsRefcount(PageNr as) { return LoadPageWord(as, kAsRefcount); }
  void SetAsRefcount(PageNr as, word v) { StorePageWord(as, kAsRefcount, v); }
  AddrspaceState AsState(PageNr as) {
    return static_cast<AddrspaceState>(LoadPageWord(as, kAsState));
  }
  void SetAsState(PageNr as, AddrspaceState s) {
    StorePageWord(as, kAsState, static_cast<word>(s));
  }

  crypto::DigestWords AsMeasurement(PageNr as);
  void SetAsMeasurement(PageNr as, const crypto::DigestWords& digest);
  crypto::Sha256 LoadMeasurementStream(PageNr as);
  void StoreMeasurementStream(PageNr as, const crypto::Sha256& stream);

  // --- Dispatcher pages ----------------------------------------------------------
  bool DispEntered(PageNr disp) { return LoadPageWord(disp, kDispEntered) != 0; }
  void SetDispEntered(PageNr disp, bool entered) {
    StorePageWord(disp, kDispEntered, entered ? 1 : 0);
  }
  word DispEntrypoint(PageNr disp) { return LoadPageWord(disp, kDispEntrypoint); }
  void SetDispEntrypoint(PageNr disp, word entry) {
    StorePageWord(disp, kDispEntrypoint, entry);
  }

  // --- Globals ----------------------------------------------------------------------
  void SetCurDispatcher(PageNr n) {
    ops_.StorePhys(arm::kMonitorBase + kGlobalCurDispatcher, n);
  }
  crypto::HmacKey AttestKey();

  // Generic typed-page word access (cycle-charged).
  word LoadPageWord(PageNr page, word word_offset) {
    ops_.ChargeAlu();  // address computation
    return ops_.LoadPhys(PagePaddr(page) + word_offset * arm::kWordSize);
  }
  void StorePageWord(PageNr page, word word_offset, word value) {
    ops_.ChargeAlu();
    ops_.StorePhys(PagePaddr(page) + word_offset * arm::kWordSize, value);
  }

 private:
  paddr EntryAddr(PageNr n, word field) {
    ops_.ChargeAlu(2);  // pagenr*16 + field*4 addressing
    return arm::kMonitorBase + kPageDbOffset + n * kPageDbEntryWords * arm::kWordSize +
           field * arm::kWordSize;
  }

  MonitorOps& ops_;
};

}  // namespace komodo

#endif  // SRC_CORE_PAGEDB_H_
