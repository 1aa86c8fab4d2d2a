// Enclave programs used by the examples/ demos. They live here (rather than
// inline in each example's main) so komodo-lint and the analysis test suite
// can statically check the exact code the demos run, and ShippedPrograms()
// lists every shipped program for both of them.
#ifndef SRC_ENCLAVE_EXAMPLE_PROGRAMS_H_
#define SRC_ENCLAVE_EXAMPLE_PROGRAMS_H_

#include <string>
#include <vector>

#include "src/arm/types.h"

namespace komodo::enclave {

using arm::word;

// examples/quickstart: r1 = arg1 + arg2, then Exit.
std::vector<word> QuickstartProgram();

// examples/dynamic_memory: maps the spare page passed in r0 as heap at
// 0x30000, writes and reads back a value, Exit(value).
std::vector<word> HeapProgram();

// examples/password_vault. Data page: words 0..3 secret, word 4 failed-attempt
// count, words 5..8 payload released on success. Shared page: words 0..3
// guess; word 4 result (1 ok / 0 bad / 2 locked); words 5..8 released payload.
//
// Written constant-time: no branch, flag, or access pattern depends on the
// secret or the guess — outcomes are selected with bitmasks, so the only
// information the OS observes is the declassified result word. komodo-lint
// verifies this (an earlier branching version was a real finding).
std::vector<word> VaultProgram();

struct ShippedProgram {
  std::string name;
  std::vector<word> code;
  // The three deliberately-faulting exception-path programs are shipped as
  // dynamic test fixtures, not as enclave code; komodo-lint lints them only
  // on explicit request, never by --shipped / --check-shipped.
  bool expect_clean = true;
};

// Every enclave program in src/enclave, by its komodo-lint name.
std::vector<ShippedProgram> ShippedPrograms();

}  // namespace komodo::enclave

#endif  // SRC_ENCLAVE_EXAMPLE_PROGRAMS_H_
