// Normal-world OS model: the untrusted operating system of the paper's threat
// model (§3.1). It owns insecure RAM, tracks which secure pages it believes
// free, and drives the monitor through SMCs — the role played by the Linux
// kernel driver in the prototype (§8.1).
//
// Nothing here is trusted: the monitor revalidates everything. The adversary
// used by the security property tests subclasses the same SMC surface.
#ifndef SRC_OS_OS_H_
#define SRC_OS_OS_H_

#include <vector>

#include "src/arm/machine.h"
#include "src/core/monitor.h"
#include "src/os/expected.h"

namespace komodo::os {

struct SmcRet {
  word err;
  word val;
};

// A constructed enclave's handle (page numbers the OS used).
struct EnclaveHandle {
  PageNr addrspace = kInvalidPage;
  PageNr l1pt = kInvalidPage;
  std::vector<PageNr> l2pts;
  PageNr thread = kInvalidPage;
  std::vector<PageNr> data_pages;
  std::vector<PageNr> spare_pages;
  // Shared insecure page mapped RW at kEnclaveSharedVa (builder option).
  bool has_shared_page = false;
  word shared_insecure_pgnr = 0;

  // Resident secure-page footprint (what a serve-layer page budget charges).
  word SecurePageCount() const {
    return 2 + static_cast<word>(l2pts.size()) + 1 + static_cast<word>(data_pages.size()) +
           static_cast<word>(spare_pages.size());
  }
};

// Conventional enclave VA layout used by the examples and tests (all within
// the first 4 MB, i.e. one L2 table page).
inline constexpr vaddr kEnclaveCodeVa = 0x0000'8000;
inline constexpr vaddr kEnclaveDataVa = 0x0001'0000;
inline constexpr vaddr kEnclaveStackVa = 0x0002'0000;  // stack page (sp starts at top)
inline constexpr vaddr kEnclaveSharedVa = 0x0010'0000;

// How an Enter/Resume round-trip came back to the OS. The monitor's ABI
// packs this into r0 (error word) + r1 (value word); EnterResult is the
// OS-side typed view so callers never pattern-match raw words.
enum class EnclaveExit : word {
  kExited,       // enclave ran to SvcExit; payload = exit value
  kInterrupted,  // timer fired mid-run; Resume() continues the thread
  kFaulted,      // enclave took an abort/undef; payload = declassified code
  kDenied,       // monitor rejected the call itself (see err)
};

// Typed result of Os::Enter / Os::Resume. Raw ABI words exist only at the
// monitor's OnSmc epilogue (the PR 3 KomErr convention); everything OS-side
// consumes this struct.
struct EnterResult {
  EnclaveExit reason = EnclaveExit::kDenied;
  word payload = 0;                // r1: exit value / fault code / aux value
  KomErr err = KomErr::kSuccess;   // typed r0 (kSuccess iff kExited)

  bool exited() const { return reason == EnclaveExit::kExited; }
  bool interrupted() const { return reason == EnclaveExit::kInterrupted; }
  bool faulted() const { return reason == EnclaveExit::kFaulted; }
  bool denied() const { return reason == EnclaveExit::kDenied; }

  static EnterResult FromSmc(SmcRet r);

  bool operator==(const EnterResult&) const = default;
};

class Os;

// Value-returning enclave construction: stages code/data through insecure
// RAM and drives the InitAddrspace → … → Finalise SMC sequence, yielding
// either a complete EnclaveHandle or the first monitor error. Replaces the
// out-param construction API that predated it.
//
//   auto built = os.NewEnclave().Code(prog).SharedPage().Build();
//   if (!built.ok()) { ... built.error() ... }
//   EnclaveHandle e = std::move(built).value();
//
// On a monitor error the builder stops the half-built address space, removes
// every page it managed to assign, and returns the pages to the OS free
// lists, so a failed build does not strand secure pages (the serve layer's
// rebuild loop depends on this).
class EnclaveBuilder {
 public:
  explicit EnclaveBuilder(Os& os) : os_(os) {}

  EnclaveBuilder& Code(std::vector<word> code);
  EnclaveBuilder& Data(std::vector<word> data_init);
  // Map one shared insecure page RW at kEnclaveSharedVa. With no argument a
  // fresh insecure page is allocated; passing a page number reuses an
  // existing one (a rebuilt serve session keeps its client-visible buffer).
  EnclaveBuilder& SharedPage();
  EnclaveBuilder& SharedPage(word insecure_pgnr);

  Expected<EnclaveHandle, KomErr> Build();

 private:
  Os& os_;
  std::vector<word> code_;
  std::vector<word> data_init_;
  bool with_shared_page_ = false;
  bool shared_page_preallocated_ = false;
  word shared_insecure_pgnr_ = 0;
};

class Os {
 public:
  Os(arm::MachineState& m, Monitor& monitor);

  // Restores the OS model's own bookkeeping (secure-page free list,
  // insecure-page bump allocator) to its freshly constructed state. Called
  // by World::ResetTo when a world is recycled (fuzz pools, the model
  // checker).
  void ResetForReuse();

  // Issues an SMC: stages the call in r0-r4, traps to monitor mode, runs the
  // monitor, and reads back r0/r1 — the kernel-driver path.
  SmcRet Smc(word call, word a1 = 0, word a2 = 0, word a3 = 0, word a4 = 0);

  // --- Table 1 wrappers -------------------------------------------------------
  word GetPhysPages();
  SmcRet InitAddrspace(PageNr as_page, PageNr l1pt_page);
  SmcRet InitThread(PageNr as_page, PageNr thread_page, word entrypoint);
  SmcRet InitL2Table(PageNr as_page, PageNr l2pt_page, word l1index);
  SmcRet MapSecure(PageNr as_page, PageNr data_page, word mapping, word insecure_pgnr);
  SmcRet AllocSpare(PageNr as_page, PageNr spare_page);
  SmcRet MapInsecure(PageNr as_page, word mapping, word insecure_pgnr);
  SmcRet Remove(PageNr page);
  SmcRet Finalise(PageNr as_page);
  EnterResult Enter(PageNr thread_page, word arg1 = 0, word arg2 = 0, word arg3 = 0);
  EnterResult Resume(PageNr thread_page);
  SmcRet Stop(PageNr as_page);

  // --- OS-side resource management ---------------------------------------------
  // Next secure page the OS believes free (monitor still validates).
  PageNr AllocSecurePage();
  void FreeSecurePage(PageNr n) { free_secure_.push_back(n); }
  // Allocates an insecure physical page; returns its page number.
  word AllocInsecurePage();
  // Returns an insecure page to the allocator (serve-layer staging reuse;
  // contents are left as-is — insecure RAM is the OS's own memory).
  void FreeInsecurePage(word pgnr) { free_insecure_.push_back(pgnr); }
  // Direct access to insecure RAM (the OS can read/write it freely).
  void WriteInsecure(word pgnr, word word_offset, word value);
  word ReadInsecure(word pgnr, word word_offset) const;
  void WriteInsecurePage(word pgnr, const std::vector<word>& words);
  // Byte views of insecure RAM, little-endian within a word, starting
  // `byte_offset` bytes into page `pgnr` and running on into the following
  // pages. The write starts on a word boundary and stores whole words, so the
  // bytes past the end of `bytes` in its last word read back as zero.
  void WriteInsecureBytes(word pgnr, word byte_offset, const std::vector<uint8_t>& bytes);
  std::vector<uint8_t> ReadInsecureBytes(word pgnr, word byte_offset, size_t len) const;

  // --- Enclave construction / teardown -----------------------------------------
  // Starts a fluent enclave build (see EnclaveBuilder above).
  EnclaveBuilder NewEnclave() { return EnclaveBuilder(*this); }

  // Full teardown of a constructed enclave: stops the address space, removes
  // every secure page (thread, data, spares, page tables, then the address
  // space itself) and returns them to the OS free list. The shared insecure
  // page, if any, is NOT freed — the caller may still be reading it.
  // Returns the first monitor error, or kSuccess.
  KomErr DestroyEnclave(const EnclaveHandle& enclave);

  arm::MachineState& machine() { return machine_; }
  Monitor& monitor() { return monitor_; }

 private:
  arm::MachineState& machine_;
  Monitor& monitor_;
  std::vector<PageNr> free_secure_;
  std::vector<word> free_insecure_;
  word next_insecure_page_;
};

}  // namespace komodo::os

#endif  // SRC_OS_OS_H_
