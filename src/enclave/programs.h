// Sample enclave programs written in the modelled A32 subset. These execute
// for real on the interpreter, through the enclave's own page tables, and
// exercise the SVC API end to end. Used by integration tests and examples.
#ifndef SRC_ENCLAVE_PROGRAMS_H_
#define SRC_ENCLAVE_PROGRAMS_H_

#include <vector>

#include "src/arm/types.h"
#include "src/crypto/sha256.h"
#include "src/os/os.h"

namespace komodo::enclave {

using arm::word;

// Exit(arg1 + arg2): the "hello world" of enclaves.
std::vector<word> AddTwoProgram();

// Reads shared[0], computes x*2+1, writes it to shared[1] and Exit(x).
std::vector<word> EchoSharedProgram();

// Each entry: counter (kept in the private data page) += arg1; Exit(counter).
// Demonstrates secure-page persistence across entries.
std::vector<word> CounterProgram();

// Busy-loops forever (for interrupt/Resume testing). If arg1 != 0, it first
// stores arg1 to data[0] so a resumed run can prove context was preserved.
std::vector<word> SpinProgram();

// Batch-ABI variants for the serve layer (DESIGN.md §14): one Enter services
// up to kServeBatchMax requests staged in the shared page —
//   shared[0]      = n (request count)
//   shared[1..n]   = per-request arguments
//   shared[33+i]   = per-request results (written by the enclave)
// and the program exits with n. Amortizing the world-switch cost over a
// batch is the §8.1 optimization the serve scheduler measures.

// counter += arg for each request; results are the running counter values.
// The counter lives in the private data page, so it persists across entries
// but resets when the serve layer evicts and rebuilds the enclave.
std::vector<word> CounterBatchProgram();

// result = 2*arg + 1 for each request (stateless echo).
std::vector<word> EchoBatchProgram();

// Writes 8 words of "user data" (derived from arg1) into its data page,
// issues the Attest SVC, copies the resulting MAC to the shared page
// (words 0..7), then Exit(0). The OS-side test passes the MAC to a second
// enclave for Verify.
std::vector<word> AttestProgram();

// Verifies an attestation: data[8], measurement[8] and mac[8] are staged by
// the OS in the shared page (words 0..23); the enclave copies them into its
// private data page, issues Verify, and Exit(ok).
std::vector<word> VerifyProgram();

// Untrusted host half of the Attest→Verify hand-off: after AttestProgram ran
// with arg1 = `data_seed`, writes words 0..23 of the verifier's shared page —
// the attested data (data_seed + i), `measurement`, then the MAC the attestor
// left in its own shared page. VerifyProgram and SigningEnclave
// (kSignerInputOffset) both take this layout.
void StageAttestation(os::Os& os, word verifier_pg, word data_seed,
                      const crypto::DigestWords& measurement, word attestor_pg);

// Dynamic memory: expects the OS to have allocated a spare page (page number
// in arg1). Issues the MapData SVC to map it at 0x30000, writes/reads a
// pattern, issues UnmapData, and Exit(0 on success, step number on failure).
std::vector<word> DynMemProgram();

// GetRandom: fills shared[0..3] with 4 random words from the monitor and
// Exit(0).
std::vector<word> RandomProgram();

// Squares its secret (data[0]) into data[1] and Exit(0): a victim that
// computes on a secret purely internally.
std::vector<word> SquareSecretProgram();

// Reads its secret from data[0] and writes it straight into the shared
// insecure page — an enclave that *chooses* to declassify (§6's caveat that
// Komodo does not police what enclaves do with their own secrets).
std::vector<word> LeakSecretProgram();

// Faulting programs for exception-path tests.
std::vector<word> ReadOutsideProgram();   // loads from an unmapped VA
std::vector<word> WriteCodeProgram();     // stores to its own (read-only) code page
std::vector<word> UndefinedInsnProgram(); // executes a permanently-undefined encoding

}  // namespace komodo::enclave

#endif  // SRC_ENCLAVE_PROGRAMS_H_
