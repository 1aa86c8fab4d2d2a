// Physical memory for the machine model.
//
// Following the paper's Dafny model (§5.1), memory is a map from word-aligned
// physical addresses to 32-bit words; only aligned word accesses exist.
// Memory is split into the three regions of the physical map (insecure RAM,
// monitor image, secure pages) so that region predicates — which the monitor's
// validity checks depend on — are cheap and explicit.
//
// Hot-path design: the three regions are flat vectors and the word accessors
// are inline single-branch span lookups (DESIGN.md §8). Every page carries a
// generation counter bumped on any store into it; the interpreter's decode
// cache and micro-TLB validate their entries against these generations, which
// makes them coherent against *any* writer (interpreted stores, monitor C++
// code, or test-harness pokes) without explicit invalidation hooks.
//
// Snapshot-reset (DESIGN.md §11): with dirty tracking enabled, every store
// also records the containing page in a dirty list (once per page), so
// ResetTo(snapshot) can restore the memory to a previously copied state by
// rewriting only the pages written since tracking began — O(pages actually
// dirtied) instead of O(total memory). The fuzz campaign's per-worker world
// pools lean on this to replace a ~17 MB zero-and-reconstruct per trace with
// a copy of the handful of pages the previous trace touched.
#ifndef SRC_ARM_MEMORY_H_
#define SRC_ARM_MEMORY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/arm/types.h"

namespace komodo::arm {

// Identifies which physical region an address falls in.
enum class MemRegion { kInsecure, kMonitor, kSecurePages, kUnmapped };

class PhysMemory {
 public:
  // `nsecure_pages` is the bootloader-configured size of the secure page
  // region (GetPhysPages returns it).
  explicit PhysMemory(word nsecure_pages = kDefaultSecurePages);

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
    if (track_dirty_) {
      MarkDirty(page_index);
    }
  }

  // Generation bookkeeping for the interpreter caches: every store bumps the
  // containing page's counter. Unmapped addresses report the constant
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

  // Bulk helpers used by loaders, page initialisation and hashing.
  void ReadPage(paddr page_base, word out[kWordsPerPage]) const;
  void WritePage(paddr page_base, const word in[kWordsPerPage]);
  void ZeroPage(paddr page_base);

  // Byte-oriented view over one page (for measurement hashing). `bytes_out`
  // must hold kPageSize bytes; words are serialised little-endian.
  void ReadPageBytes(paddr page_base, uint8_t* bytes_out) const;

  // --- Snapshot-reset support (DESIGN.md §11) --------------------------------
  // Starts recording which pages are written from this point on (clears any
  // previously recorded dirty set). Tracking is off by default; nothing in a
  // normal run pays more than one predictable branch per store.
  void EnableDirtyTracking();
  bool dirty_tracking() const { return track_dirty_; }
  // Pages written since EnableDirtyTracking / the last ResetTo, as global
  // page indices (the PageIndexOf/PageGenAt space).
  const std::vector<uint32_t>& dirty_pages() const { return dirty_list_; }
  // Adds pages (in the same index space) to the dirty set without writing
  // them, so the next ResetTo restores them too.
  void MarkPagesDirty(const std::vector<uint32_t>& pages) {
    assert(track_dirty_);
    for (const uint32_t page_index : pages) {
      MarkDirty(page_index);
    }
  }

  // Restores this memory to `snapshot` (a copy taken when the dirty set was
  // last empty, i.e. at EnableDirtyTracking or right after a ResetTo) by
  // copying back only the dirty pages, then clears the dirty set. Each
  // restored page's generation is bumped — never rolled back — so decode
  // cache and micro-TLB entries can never mistake pre-reset contents for
  // post-reset contents (the caller must still invalidate caches whose
  // entries embed generation *indices* that stay valid; MachineState::ResetTo
  // does). Geometries must match. Returns the number of pages restored.
  size_t ResetTo(const PhysMemory& snapshot);

  // Architectural equality: contents only. Page generations are cache
  // bookkeeping and must not distinguish observably-equal memories.
  bool operator==(const PhysMemory& o) const {
    return nsecure_pages_ == o.nsecure_pages_ && insecure_ == o.insecure_ &&
           monitor_ == o.monitor_ && secure_ == o.secure_;
  }

  // Whole-region views for the equivalence relations (fast comparison of all
  // insecure memory without per-word region lookups).
  const std::vector<word>& insecure_words() const { return insecure_; }
  const std::vector<word>& secure_words() const { return secure_; }

 private:
  // Pointer to the backing word, or nullptr if unmapped. The non-const form
  // also yields the global page index (for the generation bump) so the region
  // decode happens once per access.
  const word* WordPtr(paddr addr, size_t* page_index = nullptr) const;
  word* WordPtr(paddr addr, size_t* page_index = nullptr) {
    return const_cast<word*>(static_cast<const PhysMemory*>(this)->WordPtr(addr, page_index));
  }

  // Region backing a page-aligned address, with the word index of `addr` in
  // it; non-const overload for writers (no const_cast at call sites).
  const std::vector<word>* BackingFor(paddr addr, size_t* index) const;
  std::vector<word>* BackingFor(paddr addr, size_t* index) {
    return const_cast<std::vector<word>*>(
        static_cast<const PhysMemory*>(this)->BackingFor(addr, index));
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
  std::vector<word> insecure_;
  std::vector<word> monitor_;
  std::vector<word> secure_;
  // One generation counter per mapped page, across all three regions in
  // layout order (insecure, monitor, secure).
  std::vector<uint32_t> page_gen_;
  // Dirty-page recording for snapshot-reset; empty/disabled unless
  // EnableDirtyTracking was called.
  bool track_dirty_ = false;
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

// True iff the page-aligned physical address `page_base` lies entirely in
// insecure RAM — i.e. it overlaps neither the monitor image nor the secure
// page region. This is exactly the check §9.1 reports the unverified
// prototype got wrong.
bool IsInsecurePageAddr(const PhysMemory& mem, paddr page_base);

}  // namespace komodo::arm

#endif  // SRC_ARM_MEMORY_H_
