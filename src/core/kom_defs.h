// Komodo ABI definitions: monitor call numbers, error codes, page types and
// the virtual-address mapping word — the constants of the Table 1 API.
#ifndef SRC_CORE_KOM_DEFS_H_
#define SRC_CORE_KOM_DEFS_H_

#include <cstdint>

#include "src/arm/types.h"

namespace komodo {

using arm::paddr;
using arm::vaddr;
using arm::word;

// Secure page number (index into the secure page region).
using PageNr = word;
inline constexpr PageNr kInvalidPage = ~0u;

inline paddr PagePaddr(PageNr n) { return arm::kSecurePagesBase + n * arm::kPageSize; }

// --- Secure monitor calls (Table 1, from the OS) ------------------------------
enum KomSmc : word {
  kSmcQuery = 1,           // probe for Komodo presence (magic in r1)
  kSmcGetPhysPages = 2,    // -> npages
  kSmcInitAddrspace = 10,  // (asPg, l1ptPg)
  kSmcInitThread = 11,     // (asPg, threadPg, entry)
  kSmcInitL2Table = 12,    // (asPg, l2ptPg, l1index)
  kSmcMapSecure = 13,      // (asPg, dataPg, mapping, insecurePgNr)
  kSmcAllocSpare = 14,     // (asPg, sparePg)
  kSmcMapInsecure = 15,    // (asPg, mapping, insecurePgNr)
  kSmcRemove = 20,         // (pg)
  kSmcFinalise = 21,       // (asPg)
  kSmcEnter = 22,          // (threadPg, arg1, arg2, arg3) -> retval
  kSmcResume = 23,         // (threadPg) -> retval
  kSmcStop = 29,           // (asPg)
};

inline constexpr word kMagic = 0x4b6d646fu;  // 'Kmdo' — returned by kSmcQuery

// --- Supervisor calls (Table 1, from the enclave) ------------------------------
enum KomSvc : word {
  kSvcExit = 1,          // (retval)
  kSvcGetRandom = 2,     // -> r1 = random word
  kSvcAttest = 3,        // (va of u32 data[8], va of u32 mac_out[8])
  kSvcVerify = 4,        // (va of u32 data[8], va of u32 measure[8], va of u32 mac[8]) -> r1 ok
  kSvcInitL2Table = 10,  // (sparePg, l1index)
  kSvcMapData = 11,      // (sparePg, mapping)
  kSvcUnmapData = 12,    // (dataPg, mapping)
};

// --- Error codes ---------------------------------------------------------------
// Every error code, declared once as (name, ABI word, KomErrName string) in
// the X-macro style of call_list.inc. The list expands into three views:
//   * enum class KomErr — the typed code the monitor's handlers and dispatch
//     return (the registry's `CallResult`/`SvcResult` carry a KomErr, never a
//     raw word), so handler code cannot mix error codes with page numbers;
//   * the `kErr*` words — the SMC ABI encoding that lands in r0 on return to
//     the OS, and the vocabulary of the spec, the OS model and the tests;
//   * KomErrName — the names the registry's `errors` column is written in.
#define KOM_ERRORS(X)                             \
  X(Success, 0, "success")                        \
  X(InvalidPageNo, 1, "invalid_pageno")           \
  X(PageInUse, 2, "page_in_use")                  \
  X(InvalidAddrspace, 3, "invalid_addrspace")     \
  X(AlreadyFinal, 4, "already_final")             \
  X(NotFinal, 5, "not_final")                     \
  X(InvalidMapping, 6, "invalid_mapping")         \
  X(AddrInUse, 7, "addr_in_use")                  \
  X(NotStopped, 8, "not_stopped")                 \
  X(Interrupted, 9, "interrupted")                \
  X(Fault, 10, "fault")                           \
  X(AlreadyEntered, 11, "already_entered")        \
  X(NotEntered, 12, "not_entered")                \
  X(PageTableMissing, 13, "pagetable_missing")    \
  X(InvalidArgument, 14, "invalid_argument")      \
  X(NotFinalised, 15, "not_finalised")            \
  X(InvalidSvc, 16, "invalid_svc")                \
  X(NotSpare, 17, "not_spare")

#define KOM_ERR_ENUM(name, value, str) k##name = (value),
enum class KomErr : word { KOM_ERRORS(KOM_ERR_ENUM) };
#undef KOM_ERR_ENUM

#define KOM_ERR_WORD(name, value, str) inline constexpr word kErr##name = (value);
KOM_ERRORS(KOM_ERR_WORD)
#undef KOM_ERR_WORD

// KomErr <-> ABI word conversions, used only at the SMC/SVC boundary.
constexpr word ToWord(KomErr err) { return static_cast<word>(err); }
constexpr KomErr ErrFromWord(word err) { return static_cast<KomErr>(err); }

constexpr const char* KomErrName(word err) {
  switch (err) {
#define KOM_ERR_NAME(name, value, str) \
  case (value):                        \
    return (str);
    KOM_ERRORS(KOM_ERR_NAME)
#undef KOM_ERR_NAME
    default:
      return "unknown";
  }
}
constexpr const char* KomErrName(KomErr err) { return KomErrName(ToWord(err)); }

// --- Page types in the PageDB ----------------------------------------------------
enum class PageType : word {
  kFree = 0,
  kAddrspace = 1,
  kDispatcher = 2,  // "thread" in Table 1; Komodo's source calls it dispatcher
  kL1PTable = 3,
  kL2PTable = 4,
  kDataPage = 5,
  kSparePage = 6,
};

enum class AddrspaceState : word {
  kInit = 0,
  kFinal = 1,
  kStopped = 2,
};

// --- Mapping word ------------------------------------------------------------------
// Encodes the enclave virtual page and permissions for MapSecure/MapInsecure/
// MapData/UnmapData: bits[31:12] = VA page base, bit0 = R, bit1 = W, bit2 = X.
inline constexpr word kMapR = 1u << 0;
inline constexpr word kMapW = 1u << 1;
inline constexpr word kMapX = 1u << 2;
inline constexpr word kMapPermMask = kMapR | kMapW | kMapX;

inline word MakeMapping(vaddr va_page, word perms) {
  return (va_page & ~(arm::kPageSize - 1)) | (perms & kMapPermMask);
}
inline vaddr MappingVa(word mapping) { return mapping & ~(arm::kPageSize - 1); }
inline word MappingPerms(word mapping) { return mapping & kMapPermMask; }

// A mapping is well-formed if the VA lies below the 1 GB enclave limit and is
// at least readable.
inline bool MappingValid(word mapping) {
  return MappingVa(mapping) < arm::kEnclaveVaLimit && (mapping & kMapR) != 0 &&
         (mapping & ~(~(arm::kPageSize - 1) | kMapPermMask)) == 0;
}

// --- Measurement record opcodes (§4, Attestation) -----------------------------------
// The measurement is a SHA-256 over the sequence of enclave-layout-affecting
// operations; each record is (opcode, arg) plus page contents for MapSecure.
inline constexpr word kMeasureInitThread = 0x6b740001;
inline constexpr word kMeasureMapSecure = 0x6b740002;

}  // namespace komodo

#endif  // SRC_CORE_KOM_DEFS_H_
