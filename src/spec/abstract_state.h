// Abstract PageDB — the state space of the paper's functional specification
// (§5.2). Pure value types: spec functions read a PageDb and their arguments
// and return an error and, when the call writes the database, its successor
// (spec_calls.h), with no machine in sight. The refinement tests extract this
// representation from the monitor's in-memory state and compare.
#ifndef SRC_SPEC_ABSTRACT_STATE_H_
#define SRC_SPEC_ABSTRACT_STATE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "src/arm/types.h"
#include "src/core/kom_defs.h"
#include "src/crypto/sha256.h"

namespace komodo::spec {

using arm::word;

// --- Abstract page-table views -------------------------------------------------

// One leaf mapping in an enclave's second-level table.
struct SecureMapping {
  PageNr data_page;
  bool writable;
  bool executable;
  bool operator==(const SecureMapping&) const = default;
};

struct InsecureMapping {
  word insecure_pgnr;  // physical page number in insecure RAM
  bool writable;
  bool operator==(const InsecureMapping&) const = default;
};

using L2Entry = std::variant<std::monostate, SecureMapping, InsecureMapping>;

// --- PageDB entries ---------------------------------------------------------------

struct FreePage {
  bool operator==(const FreePage&) const = default;
};

struct AddrspacePage {
  PageNr l1pt_page = kInvalidPage;
  word refcount = 0;
  AddrspaceState state = AddrspaceState::kInit;
  // In-progress measurement stream (meaningful in kInit) and the final
  // measurement (meaningful from kFinal on).
  std::array<uint32_t, crypto::Sha256::kExportWords> measurement_stream{};
  crypto::DigestWords measurement{};
  bool operator==(const AddrspacePage&) const = default;
};

struct DispatcherPage {
  bool entered = false;
  word entrypoint = 0;
  // Saved user context, meaningful when entered.
  std::array<word, 13> regs{};
  word sp = 0;
  word lr = 0;
  word pc = 0;
  word psr = 0;
  bool operator==(const DispatcherPage&) const = default;
};

// The occupied slots of a page-table page, as a list of (slot, entry) pairs
// in ascending slot order behind Get/Set. Tables are mostly empty (a verify
// world maps a handful of an L2 table's 1,024 slots), so a PageDb copy or
// compare touches only what is installed. `Entry{}` is the empty slot: Get
// returns it for a slot the list lacks, and Set erases on it.
template <typename Entry, word kSlots>
class SlotTable {
 public:
  using Slot = std::pair<word, Entry>;

  Entry Get(word slot) const {
    const auto it = LowerBound(slot);
    return it != slots_.end() && it->first == slot ? it->second : Entry{};
  }
  void Set(word slot, Entry e) {
    assert(slot < kSlots);
    const auto it = LowerBound(slot);
    const bool present = it != slots_.end() && it->first == slot;
    if (e == Entry{}) {
      if (present) {
        slots_.erase(it);
      }
    } else if (present) {
      slots_[static_cast<size_t>(it - slots_.begin())].second = std::move(e);
    } else {
      slots_.insert(it, Slot{slot, std::move(e)});
    }
  }
  // The non-empty slots, ascending.
  const std::vector<Slot>& slots() const { return slots_; }
  bool operator==(const SlotTable&) const = default;

 private:
  typename std::vector<Slot>::const_iterator LowerBound(word slot) const {
    return std::partition_point(slots_.begin(), slots_.end(),
                                [slot](const Slot& s) { return s.first < slot; });
  }

  std::vector<Slot> slots_;
};

// One slot per 4 MB region (kL1Entries / kL2TablesPerPage): the L2PTable page
// serving it, if installed.
using L1PTablePage = SlotTable<std::optional<PageNr>, 256>;

// 1024 leaf slots (four 256-entry hardware tables per page).
using L2PTablePage = SlotTable<L2Entry, arm::kWordsPerPage>;

// A data page's 4 KB, in an immutable buffer that copies of the page share:
// copying a PageDb copies one pointer per data page, and two pages holding
// the same buffer compare equal without reading it. A default DataPage is
// zero-filled and holds no buffer.
class DataPage {
 public:
  using Words = std::array<word, arm::kWordsPerPage>;

  DataPage() = default;
  // Copies a page's words, e.g. from a view of a machine page.
  explicit DataPage(std::span<const word, arm::kWordsPerPage> words) {
    auto copy = std::make_shared_for_overwrite<Words>();
    std::copy(words.begin(), words.end(), copy->begin());
    words_ = std::move(copy);
  }

  const Words& contents() const { return words_ != nullptr ? *words_ : kZero; }
  bool operator==(const DataPage& o) const {
    return words_ == o.words_ || contents() == o.contents();
  }

 private:
  static inline const Words kZero{};
  std::shared_ptr<const Words> words_;
};

struct SparePage {
  bool operator==(const SparePage&) const = default;
};

struct PageDbEntry {
  PageNr owner = kInvalidPage;  // owning address space (self for Addrspace)
  std::variant<FreePage, AddrspacePage, DispatcherPage, L1PTablePage, L2PTablePage, DataPage,
               SparePage>
      page;

  bool operator==(const PageDbEntry&) const = default;

  PageType type() const {
    return static_cast<PageType>(page.index());  // variant order matches PageType
  }
  bool IsFree() const { return type() == PageType::kFree; }

  template <typename T>
  T& As() {
    return std::get<T>(page);
  }
  template <typename T>
  const T& As() const {
    return std::get<T>(page);
  }
};

struct PageDb {
  std::vector<PageDbEntry> pages;

  explicit PageDb(size_t npages = 0) : pages(npages) {}
  size_t NPages() const { return pages.size(); }
  bool ValidPageNr(PageNr n) const { return n < pages.size(); }
  PageDbEntry& operator[](PageNr n) { return pages[n]; }
  const PageDbEntry& operator[](PageNr n) const { return pages[n]; }
  bool operator==(const PageDb&) const = default;
};

// Helpers shared by the spec functions and invariants.
inline bool IsAddrspace(const PageDb& d, PageNr n) {
  return d.ValidPageNr(n) && d[n].type() == PageType::kAddrspace;
}

// Resolves the L2 slot index for a mapping within an address space; returns
// the (l2_page, slot_index) if the L2 table exists.
std::optional<std::pair<PageNr, word>> SpecL2Slot(const PageDb& d, PageNr as_page, word mapping);

}  // namespace komodo::spec

#endif  // SRC_SPEC_ABSTRACT_STATE_H_
