#include "src/arm/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

namespace komodo::arm {

namespace {

size_t MappingBytes(size_t words) { return MappedWords::kDataOffset + words * kWordSize; }

void* MapZeroed(size_t words) {
  assert(words % kWordsPerPage == 0);
  void* mapping = mmap(nullptr, MappingBytes(words), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    std::abort();  // simulated RAM is not optional
  }
  return mapping;
}

}  // namespace

MappedWords::MappedWords(size_t words)
    : mapping_(MapZeroed(words)),
      data_(reinterpret_cast<word*>(static_cast<char*>(mapping_) + kDataOffset)),
      words_(words) {}

MappedWords::~MappedWords() {
  if (mapping_ != nullptr) {
    munmap(mapping_, MappingBytes(words_));
  }
}

PhysMemory::PhysMemory(word nsecure_pages)
    : nsecure_pages_(nsecure_pages),
      insecure_(kInsecureSize / kWordSize),
      monitor_(kMonitorSize / kWordSize),
      secure_(static_cast<size_t>(nsecure_pages) * kWordsPerPage),
      page_gen_((kInsecureSize + kMonitorSize) / kPageSize + nsecure_pages, 0),
      dirty_map_(page_gen_.size(), 0) {
  assert(nsecure_pages >= 1 && nsecure_pages <= kMaxSecurePages);
}

PhysMemory::PhysMemory(const PhysMemory& o) : PhysMemory(o.nsecure_pages_) {
  resets_ = o.resets_;
  page_gen_ = o.page_gen_;
  dirty_map_ = o.dirty_map_;
  dirty_list_ = o.dirty_list_;
  // A page with generation 0 was never written, so the fresh mapping's zeros
  // already match it.
  for (size_t p = 0; p < page_gen_.size(); ++p) {
    if (page_gen_[p] != 0) {
      std::memcpy(PageWords(p), o.PageWords(p), kPageSize);
    }
  }
}

bool PhysMemory::operator==(const PhysMemory& o) const {
  return !MemoryCompare().FirstDifference(*this, o).has_value();
}

const MappedWords* PhysMemory::BackingFor(paddr addr, size_t* index) const {
  switch (RegionOf(addr)) {
    case MemRegion::kInsecure:
      *index = (addr - kInsecureBase) / kWordSize;
      return &insecure_;
    case MemRegion::kMonitor:
      *index = (addr - kMonitorBase) / kWordSize;
      return &monitor_;
    case MemRegion::kSecurePages:
      *index = (addr - kSecurePagesBase) / kWordSize;
      return &secure_;
    case MemRegion::kUnmapped:
      return nullptr;
  }
  return nullptr;
}

void PhysMemory::ReadPage(paddr page_base, word out[kWordsPerPage]) const {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  const MappedWords* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  std::memcpy(out, backing->data() + index, kPageSize);
}

void PhysMemory::WritePage(paddr page_base, const word in[kWordsPerPage]) {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  MappedWords* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  std::memcpy(backing->data() + index, in, kPageSize);
  const size_t page_index = PageIndexOf(page_base);
  ++page_gen_[page_index];
  MarkDirty(page_index);
}

void PhysMemory::ZeroPage(paddr page_base) {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  MappedWords* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  std::fill_n(backing->data() + index, kWordsPerPage, 0u);
  const size_t page_index = PageIndexOf(page_base);
  ++page_gen_[page_index];
  MarkDirty(page_index);
}

word* PhysMemory::PageWords(size_t page_index) {
  constexpr size_t kInsecurePages = kInsecureSize / kPageSize;
  constexpr size_t kMonitorPages = kMonitorSize / kPageSize;
  if (page_index < kInsecurePages) {
    return insecure_.data() + page_index * kWordsPerPage;
  }
  if (page_index < kInsecurePages + kMonitorPages) {
    return monitor_.data() + (page_index - kInsecurePages) * kWordsPerPage;
  }
  assert(page_index < kInsecurePages + kMonitorPages + nsecure_pages_);
  return secure_.data() + (page_index - kInsecurePages - kMonitorPages) * kWordsPerPage;
}

size_t PhysMemory::ResetTo(const PhysMemory& snapshot) {
  assert(nsecure_pages_ == snapshot.nsecure_pages_);
  const size_t restored = dirty_list_.size();
  for (const uint32_t page_index : dirty_list_) {
    std::memcpy(PageWords(page_index), snapshot.PageWords(page_index), kPageSize);
    ++page_gen_[page_index];
    dirty_map_[page_index] = 0;
  }
  dirty_list_.clear();
  ++resets_;
  return restored;
}

void PhysMemory::ReadPageBytes(paddr page_base, uint8_t* bytes_out) const {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  const MappedWords* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(bytes_out, backing->data() + index, kPageSize);
  } else {
    for (word i = 0; i < kWordsPerPage; ++i) {
      const word w = (*backing)[index + i];
      bytes_out[i * 4 + 0] = static_cast<uint8_t>(w & 0xff);
      bytes_out[i * 4 + 1] = static_cast<uint8_t>((w >> 8) & 0xff);
      bytes_out[i * 4 + 2] = static_cast<uint8_t>((w >> 16) & 0xff);
      bytes_out[i * 4 + 3] = static_cast<uint8_t>((w >> 24) & 0xff);
    }
  }
}

std::optional<size_t> MemoryCompare::FirstDifference(const PhysMemory& a, const PhysMemory& b) {
  const size_t pages = std::min(PagesInScope(a), PagesInScope(b));
  const bool carried = &a == a_ && &b == b_ && gen_a_.size() == pages;
  // With a carry, a page can differ only if a store reached it on either side
  // since; without one, only if a store ever reached it.
  const auto moved = [&](size_t p) {
    return carried ? a.page_gen_[p] != gen_a_[p] || b.page_gen_[p] != gen_b_[p]
                   : (a.page_gen_[p] | b.page_gen_[p]) != 0;
  };
  const auto differs = [&](size_t p) {
    return std::memcmp(a.PageWords(p), b.PageWords(p), kPageSize) != 0;
  };
  // Every page written since the carry is on a dirty list unless a reset
  // restarted one of the lists since.
  const bool listed = carried && a.resets_ == resets_a_ && b.resets_ == resets_b_;
  // Calls `f` once for each in-scope page on either dirty list.
  const auto for_each_listed = [&](const auto& f) {
    for (const PhysMemory* m : {&a, &b}) {
      for (const uint32_t p : m->dirty_list_) {
        if (p < pages && (m == &a || !a.dirty_map_[p])) {
          f(p);
        }
      }
    }
  };
  size_t lowest = pages;  // the lowest differing page, if below `pages`
  if (listed) {
    // The lists are in store order, so every listed page is checked.
    for_each_listed([&](size_t p) {
      if (p < lowest && moved(p) && differs(p)) {
        lowest = p;
      }
    });
  } else {
    for (size_t p = 0; p < pages; ++p) {
      if (moved(p) && differs(p)) {
        lowest = p;
        break;
      }
    }
  }
  if (lowest < pages) {
    const word* wa = a.PageWords(lowest);
    const word* first = std::mismatch(wa, wa + kWordsPerPage, b.PageWords(lowest)).first;
    return lowest * kWordsPerPage + static_cast<size_t>(first - wa);
  }
  if (PagesInScope(a) != PagesInScope(b)) {
    return pages * kWordsPerPage;
  }
  if (listed) {
    for_each_listed([&](size_t p) {
      gen_a_[p] = a.page_gen_[p];
      gen_b_[p] = b.page_gen_[p];
    });
  } else {
    a_ = &a;
    b_ = &b;
    gen_a_.assign(a.page_gen_.begin(), a.page_gen_.begin() + static_cast<ptrdiff_t>(pages));
    gen_b_.assign(b.page_gen_.begin(), b.page_gen_.begin() + static_cast<ptrdiff_t>(pages));
  }
  resets_a_ = a.resets_;
  resets_b_ = b.resets_;
  return std::nullopt;
}

bool IsInsecurePage(const PhysMemory& mem, word pgnr) {
  // Range first: the multiply below wraps for a number of 2^20 or more.
  if (pgnr >= (uint64_t{1} << 32) / kPageSize) {
    return false;
  }
  // The whole page must fall in insecure RAM. Regions are page-aligned, so
  // checking the base suffices, but we check the last word as well to stay
  // robust if the map constants ever change.
  const paddr base = pgnr * kPageSize;
  return mem.RegionOf(base) == MemRegion::kInsecure &&
         mem.RegionOf(base + kPageSize - kWordSize) == MemRegion::kInsecure;
}

}  // namespace komodo::arm
