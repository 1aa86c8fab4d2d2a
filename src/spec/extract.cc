#include "src/spec/extract.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/arm/page_table.h"
#include "src/core/pagedb.h"

namespace komodo::spec {

namespace {

word ReadGlobal(const arm::MachineState& m, word offset) {
  return m.mem.Read(arm::kMonitorBase + offset);
}

word ReadDbField(const arm::MachineState& m, PageNr n, word field) {
  return m.mem.Read(arm::kMonitorBase + kPageDbOffset + n * kPageDbEntryWords * arm::kWordSize +
                    field * arm::kWordSize);
}

word ReadPageWord(const arm::MachineState& m, PageNr page, word word_offset) {
  return m.mem.Read(PagePaddr(page) + word_offset * arm::kWordSize);
}

std::string HexWord(word w) {
  std::ostringstream out;
  out << "0x" << std::hex << w;
  return out.str();
}

// Decode context: carries the machine, the world size and the first
// structural failure. Every helper bails out cheaply once an error is
// recorded; the caller checks `failed` after each page.
struct Extraction {
  const arm::MachineState& m;
  word npages;
  bool failed = false;
  ExtractError err{};

  void Fail(PageNr page, std::string detail) {
    if (!failed) {
      failed = true;
      err = ExtractError{page, std::move(detail)};
    }
  }

  // Maps a physical address inside the secure region back to its page number;
  // fails if the address lies outside the world's secure pages.
  bool SecurePageNrOf(paddr addr, PageNr decoding, const char* what, PageNr* out) {
    if (addr < arm::kSecurePagesBase ||
        addr >= arm::kSecurePagesBase + static_cast<paddr>(npages) * arm::kPageSize) {
      Fail(decoding, std::string(what) + " target " + HexWord(addr) +
                         " lies outside the secure region");
      return false;
    }
    *out = (addr - arm::kSecurePagesBase) / arm::kPageSize;
    return true;
  }
};

AddrspacePage ExtractAddrspace(const Extraction& x, PageNr page) {
  AddrspacePage as;
  as.l1pt_page = ReadPageWord(x.m, page, kAsL1PtPage);
  as.refcount = ReadPageWord(x.m, page, kAsRefcount);
  as.state = static_cast<AddrspaceState>(ReadPageWord(x.m, page, kAsState));
  for (word i = 0; i < 8; ++i) {
    as.measurement[i] = ReadPageWord(x.m, page, kAsMeasurementDigest + i);
  }
  for (word i = 0; i < crypto::Sha256::kExportWords; ++i) {
    as.measurement_stream[i] = ReadPageWord(x.m, page, kAsMeasurementStream + i);
  }
  return as;
}

DispatcherPage ExtractDispatcher(const Extraction& x, PageNr page) {
  DispatcherPage disp;
  disp.entered = ReadPageWord(x.m, page, kDispEntered) != 0;
  disp.entrypoint = ReadPageWord(x.m, page, kDispEntrypoint);
  for (word i = 0; i < 13; ++i) {
    disp.regs[i] = ReadPageWord(x.m, page, kDispSavedRegs + i);
  }
  disp.sp = ReadPageWord(x.m, page, kDispSavedSp);
  disp.lr = ReadPageWord(x.m, page, kDispSavedLr);
  disp.pc = ReadPageWord(x.m, page, kDispSavedPc);
  disp.psr = ReadPageWord(x.m, page, kDispSavedPsr);
  return disp;
}

L1PTablePage ExtractL1PTable(Extraction& x, PageNr page) {
  L1PTablePage l1;
  for (word group = 0; group < 256; ++group) {
    // The four hardware descriptors of one group must agree: either all
    // faults, or the four quarters of one L2PTable page.
    const word desc0 = x.m.mem.Read(PagePaddr(page) + group * 4 * arm::kWordSize);
    if (desc0 == arm::kL1FaultDesc) {
      continue;
    }
    if (!arm::IsL1PageTableDesc(desc0)) {
      x.Fail(page, "L1 slot " + std::to_string(group) + ": descriptor " + HexWord(desc0) +
                       " is neither fault nor page-table");
      return l1;
    }
    const paddr base = arm::L1DescTableBase(desc0);
    if (!arm::IsPageAligned(base)) {
      x.Fail(page, "L1 slot " + std::to_string(group) + ": table base " + HexWord(base) +
                       " is not page-aligned");
      return l1;
    }
    PageNr l2 = kInvalidPage;
    if (!x.SecurePageNrOf(base, page, "L1 descriptor", &l2)) {
      return l1;
    }
    l1.Set(group, l2);
  }
  return l1;
}

L2PTablePage ExtractL2PTable(Extraction& x, PageNr page) {
  L2PTablePage l2;
  for (word i = 0; i < 1024; ++i) {
    const word desc = x.m.mem.Read(PagePaddr(page) + i * arm::kWordSize);
    if (desc == arm::kL2FaultDesc) {
      continue;
    }
    if (!arm::IsL2SmallPageDesc(desc)) {
      x.Fail(page, "L2 slot " + std::to_string(i) + ": descriptor " + HexWord(desc) +
                       " is neither fault nor small-page");
      return l2;
    }
    const arm::L2Perms perms = arm::L2DescPerms(desc);
    const paddr base = arm::L2DescPageBase(desc);
    if (perms.ns) {
      l2.Set(i, InsecureMapping{base / arm::kPageSize, perms.user_write});
    } else {
      PageNr data = kInvalidPage;
      if (!x.SecurePageNrOf(base, page, "L2 descriptor", &data)) {
        return l2;
      }
      l2.Set(i, SecureMapping{data, perms.user_write, perms.executable});
    }
  }
  return l2;
}

DataPage ExtractData(const Extraction& x, PageNr page) {
  DataPage::Words words;
  x.m.mem.ReadPage(PagePaddr(page), words.data());
  return DataPage(words);
}

// Decodes one page from its PageDB type and owner words and its contents.
PageDbEntry ExtractPage(Extraction& x, PageNr n, word type_word, PageNr owner) {
  PageDbEntry entry;
  entry.owner = owner;
  switch (static_cast<PageType>(type_word)) {
    case PageType::kFree:
      entry.page = FreePage{};
      break;
    case PageType::kAddrspace:
      entry.page = ExtractAddrspace(x, n);
      break;
    case PageType::kDispatcher:
      entry.page = ExtractDispatcher(x, n);
      break;
    case PageType::kL1PTable:
      entry.page = ExtractL1PTable(x, n);
      break;
    case PageType::kL2PTable:
      entry.page = ExtractL2PTable(x, n);
      break;
    case PageType::kDataPage:
      entry.page = ExtractData(x, n);
      break;
    case PageType::kSparePage:
      entry.page = SparePage{};
      break;
    default:
      x.Fail(n, "PageDB type word " + HexWord(type_word) + " names no page type");
      break;
  }
  return entry;
}

}  // namespace

const PageDb* ExtractCache::Extract(const arm::MachineState& m, ExtractError* err) {
  Extraction x{m, ReadGlobal(m, kGlobalNPages)};
  const bool warm = mem_ == &m.mem && db_.NPages() == x.npages;
  if (!warm) {
    stamps_.assign(x.npages, {});
    db_ = PageDb(x.npages);
  }
  for (PageNr n = 0; n < x.npages && !x.failed; ++n) {
    const Stamp stamp{m.mem.PageGen(PagePaddr(n)), ReadDbField(m, n, 0), ReadDbField(m, n, 1)};
    if (warm && stamp == stamps_[n]) {
      continue;
    }
    db_[n] = ExtractPage(x, n, stamp.type, stamp.owner);
    stamps_[n] = stamp;
  }
  if (x.failed) {
    mem_ = nullptr;
    if (err != nullptr) {
      *err = std::move(x.err);
    }
    return nullptr;
  }
  mem_ = &m.mem;
  return &db_;
}

std::optional<PageDb> TryExtractPageDb(const arm::MachineState& m, ExtractError* err) {
  // An uncached extraction is one into a fresh cache, so both take one path.
  ExtractCache fresh;
  if (fresh.Extract(m, err) == nullptr) {
    return std::nullopt;
  }
  return std::move(fresh.db_);
}

PageDb ExtractPageDb(const arm::MachineState& m) {
  ExtractError err{};
  std::optional<PageDb> d = TryExtractPageDb(m, &err);
  if (!d.has_value()) {
    std::fprintf(stderr, "komodo: spec extraction failed at page %u: %s\n",
                 static_cast<unsigned>(err.page), err.detail.c_str());
    std::abort();
  }
  return std::move(*d);
}

}  // namespace komodo::spec
