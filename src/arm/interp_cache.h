// Interpreter fast-path caches (DESIGN.md §8).
//
// Three side structures remove the per-step interpretive overhead of the ARM
// model while staying architecturally invisible — same MachineState results,
// same cycle charges, checked by the cached-vs-uncached differential suite:
//
//  * Decode cache: a direct-mapped cache of Decode() results keyed by the
//    instruction's physical address, validated against the backing page's
//    generation counter (PhysMemory::PageGen). Self-modifying code and page
//    reuse (InstallL2/Remove) bump the generation and force a re-decode.
//  * Micro-TLB: a direct-mapped cache of WalkPageTable results per virtual
//    page, tagged with the TTBR0 it was walked under and the generations of
//    the L1/L2 descriptor pages the walk read. Any store into those pages —
//    interpreted, monitor C++, or test-harness poke — invalidates the entry
//    by construction, so TLBIALL, TTBR writes and world switches (the events
//    §5.1's tlb_consistent discipline names) leave it warm. Translated code
//    reads the entries too: the JIT's probe stubs apply TlbWalk's hit rule
//    in emitted x64 (DESIGN.md §13), so the entry layout is part of the
//    JIT's contract.
//  * Live-page-table footprints: per address space, the byte ranges occupied
//    by its L1 table and the L2 tables it references, in a small table
//    indexed by a hash of TTBR0. An entry is rebuilt only when it belongs to
//    another TTBR0 or its L1 page's generation moved, so switching between
//    resident enclaves reuses each one's footprint. Replaces the O(L1
//    entries) AddrInLivePageTable scan on every secure-world store with a
//    binary search.
//
// All caches are bookkeeping: they are excluded from state equality, and
// copying a MachineState yields fresh (empty) caches. The KOMODO_INTERP_CACHE
// environment variable ("off"/"0"/"false") disables them, restoring the
// pre-cache interpreter byte for byte.
#ifndef SRC_ARM_INTERP_CACHE_H_
#define SRC_ARM_INTERP_CACHE_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/arm/isa.h"
#include "src/arm/memory.h"
#include "src/arm/page_table.h"
#include "src/arm/types.h"
#include "src/fuzz/inject.h"
#include "src/obs/counters.h"

namespace komodo::arm {

// Generated from KOMODO_INTERP_CACHE_COUNTERS, so every field reaches the
// per-call metrics.
using InterpCacheStats = obs::InterpCacheCounters;

class InterpCaches {
 public:
  static constexpr uint32_t kNoTag = 0xffff'ffff;  // unaligned: never matches
  static constexpr size_t kDecodeEntries = 4096;  // power of two; 16 kB of code
  static constexpr size_t kTlbEntries = 128;      // power of two; 512 kB of VA
  static constexpr unsigned kFootprintBits = 8;    // 256 address spaces
  static constexpr size_t kFootprintEntries = size_t{1} << kFootprintBits;

  InterpCaches();
  // Copies carry the enabled flag but start cold: caches are bookkeeping, not
  // state, and cloned machines (differential tests, spec extraction) must not
  // pay for or depend on the donor's cache contents.
  InterpCaches(const InterpCaches& o);
  InterpCaches& operator=(const InterpCaches& o);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
    InvalidateAll();
  }

  // Decoded instruction at physical address `phys` (which must be mapped and
  // word-aligned). Returns nullptr if the word does not decode — the cache
  // remembers undefined encodings too. The pointer is valid until the next
  // LookupDecode call. Hit path inline: tag compare plus one indexed
  // generation load.
  const Instruction* LookupDecode(const PhysMemory& mem, paddr phys) {
    DecodeEntry& e = decode_[(phys >> 2) & (kDecodeEntries - 1)];
    // The generation check is what keeps the cache coherent with stores into
    // code pages; the fuzz harness can disable it (stale-decode injection) to
    // prove the cached-vs-uncached oracle catches the resulting divergence.
    // The epoch check is explicit invalidation (set_enabled / InvalidateAll),
    // not coherence, so the injection deliberately cannot bypass it.
    if (e.addr == phys && e.epoch == decode_epoch_ &&
        (mem.PageGenAt(e.gen_idx) == e.gen || fuzz::Inject().stale_decode)) {
      ++stats_.decode_hits;
      return e.decode_ok ? &e.insn : nullptr;
    }
    return FillDecode(mem, phys, e);
  }

  // One micro-TLB entry. The JIT's probe stubs (src/jit) read these fields
  // from emitted code at the offsets jit_internal.h takes with offsetof:
  // reorder or retype a field only together with the stubs. 64 bytes, so an
  // entry's index scales by a shift.
  struct TlbEntry {
    vaddr vpn = kNoTag;  // va >> 12; kNoTag = empty
    paddr ttbr0 = 0;
    uint64_t epoch = 0;  // valid only when equal to tlb_epoch_
    // Pages whose contents the walk read (as generation-array indices), with
    // their generations at fill time; a mismatch on either means the
    // descriptors may have changed.
    size_t l1_gen_idx = PhysMemory::kNoPage;
    size_t l2_gen_idx = PhysMemory::kNoPage;
    uint32_t l1_gen = 0;
    uint32_t l2_gen = 0;
    // The mapped page's first word in host memory (null if the descriptor
    // names no mapped page) and its generation index. The JIT's store stub
    // writes through `host`: the memory is the machine's own, which is only
    // const here because a walk never changes it.
    const word* host = nullptr;
    size_t gen_idx = PhysMemory::kNoPage;
    paddr page_base = 0;
    bool user_write = false;
    bool executable = false;
    // A user store to this page needs no NoteStore: the mapping is writable
    // and the page lies outside the live page-table footprint. Recorded only
    // when TTBR0 is page-aligned, because then the L1 table is exactly the
    // page whose generation l1_gen checks, so the footprint (a function of
    // the L1 table alone) cannot change while the entry stays valid.
    bool inline_store = false;
  };
  static_assert(sizeof(TlbEntry) == 64, "the JIT's probe stubs scale the TLB index by 64");

  // What the JIT's probe stubs need of the micro-TLB: the entry array, the
  // epoch that validates an entry, and the hit counter a probe hit bumps.
  struct TlbProbe {
    const TlbEntry* entries;
    uint64_t epoch;
    uint64_t* hits;
  };
  TlbProbe Probe() { return {tlb_.data(), tlb_epoch_, &stats_.tlb_hits}; }

  // WalkPageTable(mem, ttbr0, va) through the micro-TLB. Bit-identical to an
  // uncached walk; only successful (user-readable) walks are cached.
  WalkResult TlbWalk(const PhysMemory& mem, paddr ttbr0, vaddr va) {
    const vaddr vpn = va >> 12;
    TlbEntry& e = tlb_[vpn & (kTlbEntries - 1)];
    if (e.vpn == vpn && e.ttbr0 == ttbr0 && e.epoch == tlb_epoch_ &&
        mem.PageGenAt(e.l1_gen_idx) == e.l1_gen &&
        mem.PageGenAt(e.l2_gen_idx) == e.l2_gen) {
      ++stats_.tlb_hits;
      WalkResult res;
      res.ok = true;
      res.phys = e.page_base | (va & (kPageSize - 1));
      res.user_read = true;  // only readable mappings are cached
      res.user_write = e.user_write;
      res.executable = e.executable;
      return res;
    }
    return FillTlb(mem, ttbr0, va, e);
  }

  // AddrInLivePageTable(mem, ttbr0, addr) through the footprint table.
  bool StoreHitsLivePageTable(const PhysMemory& mem, paddr ttbr0, paddr addr) {
    ++stats_.pt_filter_fast;
    return Footprint(mem, ttbr0).Contains(addr);
  }

  // Drops every micro-TLB translation.
  void InvalidateTlb() { ++tlb_epoch_; }
  // Drops every entry of every cache.
  void InvalidateAll();

  // Physical word addresses with a live decode-cache entry (current epoch;
  // generation staleness is irrelevant — the address was decoded during this
  // epoch either way). Sorted and duplicate-free. This is a coverage signal
  // for the fuzzer's evolve mode (DESIGN.md §15), not part of the cache's
  // architectural contract.
  std::vector<paddr> ResidentDecodeAddrs() const;

  const InterpCacheStats& stats() const { return stats_; }

 private:
  struct DecodeEntry {
    paddr addr = kNoTag;    // exact physical word address; kNoTag = empty
    uint64_t epoch = 0;     // valid only when equal to decode_epoch_
    uint32_t gen = 0;       // backing page generation at decode time
    size_t gen_idx = PhysMemory::kNoPage;  // its index in the gen array
    bool decode_ok = false;
    Instruction insn;
  };

  struct PtFootprint {
    uint64_t epoch = 0;  // valid only when equal to footprint_epoch_
    paddr ttbr0 = 0;
    // The footprint derives from the L1 table's contents alone; the
    // generations of the first/last page the 4 kB table touches gate reuse.
    size_t l1_first_idx = PhysMemory::kNoPage;
    size_t l1_last_idx = PhysMemory::kNoPage;
    uint32_t l1_first_gen = 0;
    uint32_t l1_last_gen = 0;
    std::vector<std::pair<paddr, paddr>> ranges;  // sorted, merged [start,end)

    bool Contains(paddr addr) const;
    bool Overlaps(paddr lo, paddr hi) const;  // any byte of [lo, hi)
  };

  // The valid footprint of `ttbr0`, rebuilt first if stale.
  const PtFootprint& Footprint(const PhysMemory& mem, paddr ttbr0) {
    PtFootprint& f = footprints_[FootprintSlot(ttbr0)];
    if (f.epoch != footprint_epoch_ || f.ttbr0 != ttbr0 ||
        mem.PageGenAt(f.l1_first_idx) != f.l1_first_gen ||
        mem.PageGenAt(f.l1_last_idx) != f.l1_last_gen) {
      RebuildFootprint(mem, ttbr0, f);
    }
    return f;
  }

  const Instruction* FillDecode(const PhysMemory& mem, paddr phys, DecodeEntry& e);
  WalkResult FillTlb(const PhysMemory& mem, paddr ttbr0, vaddr va, TlbEntry& e);
  void RebuildFootprint(const PhysMemory& mem, paddr ttbr0, PtFootprint& f);

  // L1 tables fill page-aligned secure pages, so the index hashes the page
  // number (the entry's tag is the full TTBR0); the multiplicative hash
  // spreads address spaces built at a fixed page stride.
  static size_t FootprintSlot(paddr ttbr0) {
    return static_cast<uint32_t>((ttbr0 >> 12) * 0x9e37'79b1u) >> (32 - kFootprintBits);
  }

  bool enabled_;
  // Invalidation is O(1): entries carry the epoch they were filled under and
  // a bumped epoch orphans them all at once. The model checker and the fuzz
  // pool reset the machine (which invalidates) once or twice per probed
  // transition, so wiping the 4096-entry decode array each time dominated
  // their runtime before this.
  uint64_t decode_epoch_ = 1;
  uint64_t tlb_epoch_ = 1;
  uint64_t footprint_epoch_ = 1;
  std::vector<DecodeEntry> decode_;
  std::vector<TlbEntry> tlb_;
  std::vector<PtFootprint> footprints_;
  InterpCacheStats stats_;
};

}  // namespace komodo::arm

#endif  // SRC_ARM_INTERP_CACHE_H_
