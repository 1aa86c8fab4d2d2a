// Table-driven monitor-call registry (see call_list.inc): constexpr metadata
// for every Table 1 SMC and SVC, consumed header-only by komodo-lint's
// privilege pass, the bench harness, komodo-apidoc and the registry tests.
// The dispatch expansions (Monitor and spec) live in call_table.cc and
// spec_dispatch.cc; this header carries no link dependency beyond kom_defs.
#ifndef SRC_CORE_CALL_TABLE_H_
#define SRC_CORE_CALL_TABLE_H_

#include <cstdint>

#include "src/core/kom_defs.h"

namespace komodo {

enum class CallKind : uint8_t {
  kSmc,  // invoked by the OS (monitor mode, Figure 3 left edge)
  kSvc,  // invoked by enclave code (secure supervisor mode)
};

struct CallInfo {
  word number;            // ABI call number (r0)
  const char* name;       // "InitAddrspace"
  CallKind kind;
  int arity;              // architectural arguments r1..r{arity}
  const char* arg_names;  // "as_page, l1pt_page" ("" when arity == 0)
  const char* errors;     // '|'-separated error names; "-" = cannot fail
};

inline constexpr CallInfo kSmcCalls[] = {
#define KOM_SMC(name, nr, arity, argnames, impl, spec, errors) \
  {nr, #name, CallKind::kSmc, arity, argnames, errors},
#define KOM_SVC(name, nr, arity, argnames, impl, spec, errors)
#include "src/core/call_list.inc"
#undef KOM_SMC
#undef KOM_SVC
};

inline constexpr CallInfo kSvcCalls[] = {
#define KOM_SMC(name, nr, arity, argnames, impl, spec, errors)
#define KOM_SVC(name, nr, arity, argnames, impl, spec, errors) \
  {nr, #name, CallKind::kSvc, arity, argnames, errors},
#include "src/core/call_list.inc"
#undef KOM_SMC
#undef KOM_SVC
};

inline constexpr int kNumSmcCalls = static_cast<int>(sizeof(kSmcCalls) / sizeof(kSmcCalls[0]));
inline constexpr int kNumSvcCalls = static_cast<int>(sizeof(kSvcCalls) / sizeof(kSvcCalls[0]));

constexpr const CallInfo* FindSmc(word number) {
  for (const CallInfo& c : kSmcCalls) {
    if (c.number == number) {
      return &c;
    }
  }
  return nullptr;
}

constexpr const CallInfo* FindSvc(word number) {
  for (const CallInfo& c : kSvcCalls) {
    if (c.number == number) {
      return &c;
    }
  }
  return nullptr;
}

}  // namespace komodo

#endif  // SRC_CORE_CALL_TABLE_H_
