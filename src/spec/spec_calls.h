// Pure-functional specification of the Komodo monitor calls (§5.2).
//
// Each management SMC and each memory-management SVC is specified as a
// function from an input PageDb and arguments to an error code and resulting
// PageDb — exactly the structure of the paper's Dafny spec, where the
// SMC-handler predicate relates states before and after. Enter/Resume involve
// user-mode execution and are specified separately as pre/post predicates
// (see the refinement tests).
#ifndef SRC_SPEC_SPEC_CALLS_H_
#define SRC_SPEC_SPEC_CALLS_H_

#include <optional>

#include "src/spec/abstract_state.h"

namespace komodo::spec {

struct Result {
  word err;
  PageDb db;
};

// --- SMCs ------------------------------------------------------------------------
// Query/GetPhysPages are pure reads: the spec is the identity on the PageDb.
Result SpecQuery(PageDb d);
Result SpecGetPhysPages(PageDb d);
Result SpecInitAddrspace(PageDb d, PageNr as_page, PageNr l1pt_page);
Result SpecInitThread(PageDb d, PageNr as_page, PageNr disp_page, word entrypoint);
Result SpecInitL2Table(PageDb d, PageNr as_page, PageNr l2pt_page, word l1index);
// `contents` is the source page's data at call time, or nothing when that
// page is not in insecure RAM.
Result SpecMapSecure(PageDb d, PageNr as_page, PageNr data_page, word mapping,
                     const std::optional<DataPage::Words>& contents);
Result SpecAllocSpare(PageDb d, PageNr as_page, PageNr spare_page);
// `insecure_ok`: the page `insecure_pgnr` lies in insecure RAM.
Result SpecMapInsecure(PageDb d, PageNr as_page, word mapping, bool insecure_ok,
                       word insecure_pgnr);
Result SpecRemove(PageDb d, PageNr page);
Result SpecFinalise(PageDb d, PageNr as_page);
Result SpecStop(PageDb d, PageNr as_page);
// Enter/Resume guards: these specify the validation order and error codes
// only. On success, user-mode execution havocs machine state (§5.1) — the
// entered-flag and saved-context updates belong to that havoc, so the
// success relation here is the identity on the pre-state PageDb.
Result SpecEnter(PageDb d, PageNr disp_page);
Result SpecResume(PageDb d, PageNr disp_page);

// --- Execution/crypto SVCs (guard-only specs) ---------------------------------------
// None of them touches the PageDb: Attest/Verify read the measurement and
// attestation key but mutate nothing (their user-memory argument faults are
// part of the execution havoc, not the PageDb relation).
Result SpecSvcExit(PageDb d);
Result SpecSvcGetRandom(PageDb d);
Result SpecSvcAttest(PageDb d);
Result SpecSvcVerify(PageDb d);

// --- Dynamic-memory SVCs (issued by the enclave owning `as_page`) -------------------
Result SpecSvcInitL2Table(PageDb d, PageNr as_page, PageNr spare_page, word l1index);
Result SpecSvcMapData(PageDb d, PageNr as_page, PageNr spare_page, word mapping);
Result SpecSvcUnmapData(PageDb d, PageNr as_page, PageNr data_page, word mapping);

// The enclave measurement a conforming implementation must produce for a
// given construction trace is fully determined by these records; exposed so
// tests can predict measurements independently.
crypto::DigestWords SpecMeasurementAfterFinalise(const AddrspacePage& as);

}  // namespace komodo::spec

#endif  // SRC_SPEC_SPEC_CALLS_H_
