// Physical memory for the machine model.
//
// Following the paper's Dafny model (§5.1), memory is a map from word-aligned
// physical addresses to 32-bit words; only aligned word accesses exist.
// Memory is split into the three regions of the physical map (insecure RAM,
// monitor image, secure pages) so that region predicates — which the monitor's
// validity checks depend on — are cheap and explicit. The insecure-page check
// that the monitor and the spec share (IsInsecurePage) takes a page number, so
// it range-checks the number before any caller multiplies it into an address.
//
// Hot-path design: the three regions are flat word arrays and the word
// accessors are inline single-branch span lookups (DESIGN.md §8). Each region
// lives in an anonymous mapping of its own, so the kernel's zero fill replaces
// a 17 MB memset per world and untouched pages stay non-resident (DESIGN.md
// §11). Every page carries a generation counter bumped on any store into it;
// the interpreter's decode cache and micro-TLB validate their entries against
// these generations, which makes them coherent against *any* writer
// (interpreted stores, monitor C++ code, or test-harness pokes) without
// explicit invalidation hooks. A page whose generation is 0 was never written
// and reads zero, so a copy copies only the pages with a non-zero generation.
// MemoryCompare leans on the same counters, and on the dirty lists below, to
// compare two memories in O(pages written) rather than O(memory).
//
// Snapshot-reset (DESIGN.md §11): every store also records the containing
// page in a dirty list (once per page), which only ResetTo empties, so
// ResetTo(snapshot) can restore the memory to a previously copied state by
// rewriting only the pages written since — O(pages actually dirtied) instead
// of O(total memory). The fuzz campaign's per-worker world pools lean on this
// to replace a ~17 MB zero-and-reconstruct per trace with a copy of the
// handful of pages the previous trace touched. The JIT's inline stores skip
// the list, so they go only to pages already on it (DESIGN.md §13).
#ifndef SRC_ARM_MEMORY_H_
#define SRC_ARM_MEMORY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/arm/types.h"

namespace komodo::arm {

// Identifies which physical region an address falls in.
enum class MemRegion { kInsecure, kMonitor, kSecurePages, kUnmapped };

// A zero-initialised array of whole pages of words in an anonymous mapping of
// its own, unmapped on destruction. The kernel zero-fills a page on first
// touch, so construction writes nothing and pages never written cost no
// resident memory. It is not copyable: PhysMemory copies the pages its
// generations say were written. The data starts kDataOffset bytes into the
// mapping, off page alignment: page-aligned regions measured slower on
// serve-resident (DESIGN.md §11).
class MappedWords {
 public:
  static constexpr size_t kDataOffset = 64;

  explicit MappedWords(size_t words);
  MappedWords(const MappedWords&) = delete;
  MappedWords(MappedWords&& o) noexcept
      : mapping_(o.mapping_), data_(o.data_), words_(o.words_) {
    o.mapping_ = nullptr;
    o.data_ = nullptr;
    o.words_ = 0;
  }
  MappedWords& operator=(const MappedWords&) = delete;
  MappedWords& operator=(MappedWords&&) = delete;
  ~MappedWords();

  word* data() { return data_; }
  const word* data() const { return data_; }
  const word& operator[](size_t i) const { return data_[i]; }

 private:
  // Kept at three words: with a two-word handle MachineState's later fields
  // moved and verify-small ran 2-4% slower.
  void* mapping_;  // what mmap returned; null once moved from
  word* data_;
  size_t words_;
};

// A PhysMemory is copied (snapshots, test fixtures) but never assigned:
// assignment would swap contents under generations that no store bumped,
// which the interpreter caches and MemoryCompare both rule out.
class PhysMemory {
 public:
  // `nsecure_pages` is the bootloader-configured size of the secure page
  // region (GetPhysPages returns it).
  explicit PhysMemory(word nsecure_pages = kDefaultSecurePages);
  // Deep, and O(pages ever written): a page with generation 0 is left to the
  // fresh mapping's zero fill.
  PhysMemory(const PhysMemory& o);
  PhysMemory(PhysMemory&&) = default;
  PhysMemory& operator=(const PhysMemory&) = delete;
  PhysMemory& operator=(PhysMemory&&) = delete;

  word nsecure_pages() const { return nsecure_pages_; }

  MemRegion RegionOf(paddr addr) const {
    // Regions are disjoint; unsigned wraparound makes each test one compare.
    if (addr - kInsecureBase < kInsecureSize) {
      return MemRegion::kInsecure;
    }
    if (addr - kMonitorBase < kMonitorSize) {
      return MemRegion::kMonitor;
    }
    if (addr - kSecurePagesBase < nsecure_pages_ * kPageSize) {
      return MemRegion::kSecurePages;
    }
    return MemRegion::kUnmapped;
  }
  bool IsValidPhys(paddr addr) const { return RegionOf(addr) != MemRegion::kUnmapped; }

  // Word access. Addresses must be word-aligned and mapped; the model treats a
  // violation as a programming error in the caller (the interpreter raises an
  // architectural fault *before* calling these).
  word Read(paddr addr) const {
    assert(IsWordAligned(addr));
    const word* p = WordPtr(addr);
    assert(p != nullptr);
    return *p;
  }
  void Write(paddr addr, word value) {
    assert(IsWordAligned(addr));
    size_t page_index = 0;
    word* p = WordPtr(addr, &page_index);
    assert(p != nullptr);
    *p = value;
    ++page_gen_[page_index];
    MarkDirty(page_index);
  }

  // Generation bookkeeping for the interpreter caches: every store bumps the
  // containing page's counter. Generation 0 means no store ever reached the
  // page, in this memory or in any memory it was copied from, so the page
  // reads zero (a page would have to take a multiple of 2^32 stores for its
  // counter to read 0 again). Unmapped addresses report the constant
  // generation 0 (they can never be written). `PageIndexOf` resolves an
  // address to its stable global page index once, so cache entries revalidate
  // with a single indexed load (`PageGenAt`) instead of a region decode.
  static constexpr size_t kNoPage = static_cast<size_t>(-1);
  size_t PageIndexOf(paddr addr) const {
    size_t page_index = kNoPage;
    (void)WordPtr(addr & ~3u, &page_index);
    return page_index;
  }
  uint32_t PageGenAt(size_t page_index) const {
    return page_index == kNoPage ? 0 : page_gen_[page_index];
  }
  uint32_t PageGen(paddr addr) const { return PageGenAt(PageIndexOf(addr)); }

  // Raw views for the JIT's probe stubs (DESIGN.md §13), which serve a load
  // or store from emitted code, and for the spec's view of MapSecure's source
  // page: the first word of page `page_index` in host memory (null for
  // kNoPage), the generation array, which an inline store bumps exactly as
  // Write does, and the dirty map (one byte per page, non-zero while the page
  // is on the dirty list), which an inline store requires set instead of
  // setting it.
  const word* PageHost(size_t page_index) const {
    return page_index == kNoPage ? nullptr : PageWords(page_index);
  }
  uint32_t* page_gens() { return page_gen_.data(); }
  const uint8_t* dirty_map() const { return dirty_map_.data(); }

  // Bulk helpers used by loaders, page initialisation and hashing.
  void ReadPage(paddr page_base, word out[kWordsPerPage]) const;
  void WritePage(paddr page_base, const word in[kWordsPerPage]);
  void ZeroPage(paddr page_base);

  // Byte-oriented view over one page (for measurement hashing). `bytes_out`
  // must hold kPageSize bytes; words are serialised little-endian.
  void ReadPageBytes(paddr page_base, uint8_t* bytes_out) const;

  // --- Snapshot-reset support (DESIGN.md §11) --------------------------------
  // Pages written since construction or the last ResetTo, as global page
  // indices (the PageIndexOf/PageGenAt space). A copy starts with its
  // original's list.
  const std::vector<uint32_t>& dirty_pages() const { return dirty_list_; }
  // Adds pages (in the same index space) to the dirty set without writing
  // them, so the next ResetTo restores them too.
  void MarkPagesDirty(const std::vector<uint32_t>& pages) {
    for (const uint32_t page_index : pages) {
      MarkDirty(page_index);
    }
  }

  // Restores this memory to `snapshot` by copying back only the dirty pages,
  // then clears the dirty set. That is exact when every page where the two
  // differ is listed: `snapshot` is a copy of this memory taken since its
  // last ResetTo, or the target of that ResetTo, and the caller has marked
  // any other page that differs with MarkPagesDirty. Each restored page's
  // generation is bumped — never rolled back — so decode cache and micro-TLB
  // entries can never mistake pre-reset contents for post-reset contents
  // (the caller must still invalidate caches whose entries embed generation
  // *indices* that stay valid; MachineState::ResetTo does). Geometries must
  // match. Returns the number of pages restored.
  size_t ResetTo(const PhysMemory& snapshot);

  // Architectural equality: contents only (a fresh MemoryCompare). Page
  // generations are cache bookkeeping and must not distinguish
  // observably-equal memories.
  bool operator==(const PhysMemory& o) const;

 private:
  friend class MemoryCompare;

  // Pointer to the backing word, or nullptr if unmapped. The non-const form
  // also yields the global page index (for the generation bump) so the region
  // decode happens once per access.
  const word* WordPtr(paddr addr, size_t* page_index = nullptr) const;
  word* WordPtr(paddr addr, size_t* page_index = nullptr) {
    return const_cast<word*>(static_cast<const PhysMemory*>(this)->WordPtr(addr, page_index));
  }

  // Region backing a page-aligned address, with the word index of `addr` in
  // it; non-const overload for writers (no const_cast at call sites).
  const MappedWords* BackingFor(paddr addr, size_t* index) const;
  MappedWords* BackingFor(paddr addr, size_t* index) {
    return const_cast<MappedWords*>(static_cast<const PhysMemory*>(this)->BackingFor(addr, index));
  }

  // First word of the page with global index `page_index` (which must be a
  // mapped page). Inverse of PageIndexOf's region layout.
  word* PageWords(size_t page_index);
  const word* PageWords(size_t page_index) const {
    return const_cast<PhysMemory*>(this)->PageWords(page_index);
  }

  void MarkDirty(size_t page_index) {
    if (!dirty_map_[page_index]) {
      dirty_map_[page_index] = 1;
      dirty_list_.push_back(static_cast<uint32_t>(page_index));
    }
  }

  word nsecure_pages_;
  // ResetTo calls: each restarts the dirty list, so a MemoryCompare carry
  // taken before one may miss pages it no longer lists.
  // Sits in the padding after nsecure_pages_, so MachineState's field offsets,
  // which the JIT bakes into emitted code, do not move.
  uint32_t resets_ = 0;
  MappedWords insecure_;
  MappedWords monitor_;
  MappedWords secure_;
  // One generation counter per mapped page, across all three regions in
  // layout order (insecure, monitor, secure).
  std::vector<uint32_t> page_gen_;
  // Dirty-page recording for snapshot-reset.
  std::vector<uint8_t> dirty_map_;    // one flag per mapped page
  std::vector<uint32_t> dirty_list_;  // insertion-ordered dirty page indices
};

inline const word* PhysMemory::WordPtr(paddr addr, size_t* page_index) const {
  if (addr - kInsecureBase < kInsecureSize) {
    const paddr off = addr - kInsecureBase;
    if (page_index != nullptr) {
      *page_index = off / kPageSize;
    }
    return &insecure_[off / kWordSize];
  }
  if (addr - kMonitorBase < kMonitorSize) {
    const paddr off = addr - kMonitorBase;
    if (page_index != nullptr) {
      *page_index = kInsecureSize / kPageSize + off / kPageSize;
    }
    return &monitor_[off / kWordSize];
  }
  if (addr - kSecurePagesBase < nsecure_pages_ * kPageSize) {
    const paddr off = addr - kSecurePagesBase;
    if (page_index != nullptr) {
      *page_index = (kInsecureSize + kMonitorSize) / kPageSize + off / kPageSize;
    }
    return &secure_[off / kWordSize];
  }
  return nullptr;
}

// The one memory comparison (DESIGN.md §10): the lowest word at which two
// memories differ, in O(pages written) rather than O(memory). A page whose
// generation is 0 on both sides was never written, so it reads zero on both
// and a fresh compare skips it. After a call that finds the two memories
// equal the compare carries both sides' page generations, and the next call
// for the same pair rescans only the pages whose generation has moved in
// either memory since. That is sound because every store into a PhysMemory
// bumps its page's generation and a PhysMemory is never assigned, so a page
// whose generations have not moved still holds what compared equal. When
// neither memory was reset since the carry was taken, every page written
// since is on one of the two dirty lists, so the call walks those lists
// instead of every generation; otherwise it scans the generations. A
// MemoryCompare handed a different pair of memories starts afresh; the
// memories must outlive it. Generations are 32-bit: a page would have to
// take 2^32 stores between two calls for the carry to miss one.
class MemoryCompare {
 public:
  // The pages compared: all of memory, or insecure RAM only (the OS's view).
  enum class Scope { kAll, kInsecure };

  explicit MemoryCompare(Scope scope = Scope::kAll) : scope_(scope) {}

  Scope scope() const { return scope_; }

  // Index of the lowest in-scope word at which `a` and `b` differ, counting
  // words in the PageIndexOf layout (insecure RAM, monitor image, secure
  // pages), or nullopt when they agree. A page that exists in one memory only
  // (secure regions of different sizes) differs at its first word.
  std::optional<size_t> FirstDifference(const PhysMemory& a, const PhysMemory& b);

 private:
  size_t PagesInScope(const PhysMemory& m) const {
    return scope_ == Scope::kInsecure ? kInsecureSize / kPageSize : m.page_gen_.size();
  }

  Scope scope_;
  // The pair the carried generations belong to, each side's reset count, and
  // each side's generation of every in-scope page when they last compared
  // equal; empty until then.
  const PhysMemory* a_ = nullptr;
  const PhysMemory* b_ = nullptr;
  uint32_t resets_a_ = 0;
  uint32_t resets_b_ = 0;
  std::vector<uint32_t> gen_a_;
  std::vector<uint32_t> gen_b_;
};

// True iff page number `pgnr` names a page of insecure RAM — i.e. neither
// the monitor image nor the secure page region, and not a number whose byte
// address does not fit in 32 bits and so would wrap onto some other page.
// This is exactly the check §9.1 reports the unverified prototype got wrong.
bool IsInsecurePage(const PhysMemory& mem, word pgnr);

}  // namespace komodo::arm

#endif  // SRC_ARM_MEMORY_H_
