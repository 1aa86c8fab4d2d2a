// Pure-functional specification of the Komodo monitor calls (§5.2).
//
// Each management SMC and each memory-management SVC is specified as a
// function from an input PageDb and arguments to an error code and, when the
// call succeeds and writes the database, the successor PageDb — the structure
// of the paper's Dafny spec, where the SMC-handler predicate relates states
// before and after. A failed call leaves the PageDb as it was: every spec
// reads the pre-state through a const reference and copies it only after its
// last guard, so a failing call has no successor to get wrong. Enter/Resume
// involve user-mode execution and are specified separately as pre/post
// predicates (see the refinement tests).
#ifndef SRC_SPEC_SPEC_CALLS_H_
#define SRC_SPEC_SPEC_CALLS_H_

#include <optional>
#include <span>

#include "src/spec/abstract_state.h"

namespace komodo::spec {

// A call's error word and, when it succeeded and wrote the PageDb, the
// successor. `db` is empty when the call failed or wrote nothing (Query, an
// Enter whose guard passed): the post-state is then the pre-state.
struct Result {
  word err;
  std::optional<PageDb> db = std::nullopt;
};

// --- SMCs ------------------------------------------------------------------------
// Query and GetPhysPages read nothing from the PageDb and write nothing, so
// they have no spec function: their registry rows return the unchanged success.
Result SpecInitAddrspace(const PageDb& d, PageNr as_page, PageNr l1pt_page);
Result SpecInitThread(const PageDb& d, PageNr as_page, PageNr disp_page, word entrypoint);
Result SpecInitL2Table(const PageDb& d, PageNr as_page, PageNr l2pt_page, word l1index);
// `contents` views the source page's words at call time, and is empty when
// that page is not in insecure RAM. A success copies it into the new data page.
Result SpecMapSecure(const PageDb& d, PageNr as_page, PageNr data_page, word mapping,
                     std::span<const word> contents);
Result SpecAllocSpare(const PageDb& d, PageNr as_page, PageNr spare_page);
// `insecure_ok`: the page `insecure_pgnr` lies in insecure RAM.
Result SpecMapInsecure(const PageDb& d, PageNr as_page, word mapping, bool insecure_ok,
                       word insecure_pgnr);
Result SpecRemove(const PageDb& d, PageNr page);
Result SpecFinalise(const PageDb& d, PageNr as_page);
Result SpecStop(const PageDb& d, PageNr as_page);
// Enter/Resume guards: these specify the validation order and error codes
// only. On success, user-mode execution havocs machine state (§5.1) — the
// entered-flag and saved-context updates belong to that havoc, so a success
// writes nothing here.
Result SpecEnter(const PageDb& d, PageNr disp_page);
Result SpecResume(const PageDb& d, PageNr disp_page);

// The execution and crypto SVCs (Exit, GetRandom, Attest, Verify) write no
// PageDb state: Attest/Verify read the measurement and attestation key, and
// their user-memory argument faults are part of the execution havoc, not the
// PageDb relation. Like Query, their registry rows return the unchanged success.

// --- Dynamic-memory SVCs (issued by the enclave owning `as_page`) -------------------
Result SpecSvcInitL2Table(const PageDb& d, PageNr as_page, PageNr spare_page, word l1index);
Result SpecSvcMapData(const PageDb& d, PageNr as_page, PageNr spare_page, word mapping);
Result SpecSvcUnmapData(const PageDb& d, PageNr as_page, PageNr data_page, word mapping);

// The enclave measurement a conforming implementation must produce for a
// given construction trace is fully determined by these records; exposed so
// tests can predict measurements independently.
crypto::DigestWords SpecMeasurementAfterFinalise(const AddrspacePage& as);

}  // namespace komodo::spec

#endif  // SRC_SPEC_SPEC_CALLS_H_
