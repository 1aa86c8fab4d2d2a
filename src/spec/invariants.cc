#include "src/spec/invariants.h"

namespace komodo::spec {

namespace {

std::string PageStr(PageNr n) { return "page " + std::to_string(n); }

}  // namespace

std::vector<std::string> PageDbViolations(const PageDb& d) {
  std::vector<std::string> out;
  const auto fail = [&out](const std::string& msg) { out.push_back(msg); };

  // Tallies indexed by page number.
  std::vector<word> owned_counts(d.NPages());  // non-addrspace pages per addrspace
  std::vector<bool> l2_seen(d.NPages());       // each L2 table appears in at most one L1 slot
  std::vector<bool> data_mapped(d.NPages());   // each data page is mapped at most once

  for (PageNr n = 0; n < d.NPages(); ++n) {
    const PageDbEntry& e = d[n];
    switch (e.type()) {
      case PageType::kFree:
        if (e.owner != kInvalidPage) {
          fail(PageStr(n) + ": free page has an owner");
        }
        break;
      case PageType::kAddrspace: {
        if (e.owner != n) {
          fail(PageStr(n) + ": addrspace page must own itself");
        }
        const AddrspacePage& as = e.As<AddrspacePage>();
        // A stopped addrspace may have had its L1 table removed already.
        if (as.state != AddrspaceState::kStopped) {
          if (!d.ValidPageNr(as.l1pt_page) || d[as.l1pt_page].type() != PageType::kL1PTable) {
            fail(PageStr(n) + ": l1pt reference is not an L1 table");
          } else if (d[as.l1pt_page].owner != n) {
            fail(PageStr(n) + ": l1pt owned by a different addrspace");
          }
        }
        break;
      }
      default: {
        if (!IsAddrspace(d, e.owner)) {
          fail(PageStr(n) + ": owner is not a valid addrspace");
        } else {
          owned_counts[e.owner] += 1;
        }
        break;
      }
    }
  }

  // Reference counts: every addrspace's refcount equals the number of
  // non-addrspace pages it owns.
  for (PageNr n = 0; n < d.NPages(); ++n) {
    if (d[n].type() != PageType::kAddrspace) {
      continue;
    }
    const word expected = owned_counts[n];
    if (d[n].As<AddrspacePage>().refcount != expected) {
      fail(PageStr(n) + ": refcount " + std::to_string(d[n].As<AddrspacePage>().refcount) +
           " != owned pages " + std::to_string(expected));
    }
  }

  // Page-table referential integrity. Stopped address spaces are exempt
  // entirely: their pages may have been removed and even reallocated to other
  // enclaves, and a stopped enclave can never execute again (§5.2).
  for (PageNr n = 0; n < d.NPages(); ++n) {
    if (d[n].type() != PageType::kL1PTable) {
      continue;
    }
    const PageNr as_page = d[n].owner;
    const bool stopped = IsAddrspace(d, as_page) &&
                         d[as_page].As<AddrspacePage>().state == AddrspaceState::kStopped;
    if (stopped) {
      continue;
    }
    const L1PTablePage& l1 = d[n].As<L1PTablePage>();
    for (const auto& [i, slot] : l1.slots()) {
      const PageNr l2 = *slot;
      if (!d.ValidPageNr(l2)) {
        fail(PageStr(n) + ": L1 slot " + std::to_string(i) + " references invalid page");
        continue;
      }
      if (d[l2].type() != PageType::kL2PTable) {
        fail(PageStr(n) + ": L1 slot " + std::to_string(i) + " references non-L2 " + PageStr(l2));
        continue;
      }
      if (d[l2].owner != as_page) {
        fail(PageStr(n) + ": L1 slot " + std::to_string(i) + " references foreign L2 table");
      }
      if (l2_seen[l2]) {
        fail(PageStr(l2) + ": L2 table referenced from multiple L1 slots");
      }
      l2_seen[l2] = true;
    }
  }

  // Leaf mappings: secure mappings must point at data pages of the same
  // addrspace; each data page is mapped at most once.
  for (PageNr n = 0; n < d.NPages(); ++n) {
    if (d[n].type() != PageType::kL2PTable) {
      continue;
    }
    const PageNr as_page = d[n].owner;
    const bool stopped = IsAddrspace(d, as_page) &&
                         d[as_page].As<AddrspacePage>().state == AddrspaceState::kStopped;
    if (stopped) {
      continue;
    }
    const L2PTablePage& l2 = d[n].As<L2PTablePage>();
    for (const auto& [i, entry] : l2.slots()) {
      const SecureMapping* sm = std::get_if<SecureMapping>(&entry);
      if (sm == nullptr) {
        continue;
      }
      if (!d.ValidPageNr(sm->data_page)) {
        fail(PageStr(n) + ": L2 slot " + std::to_string(i) + " references invalid page");
        continue;
      }
      if (d[sm->data_page].type() != PageType::kDataPage) {
        fail(PageStr(n) + ": L2 slot " + std::to_string(i) + " maps non-data " +
             PageStr(sm->data_page));
        continue;
      }
      if (d[sm->data_page].owner != as_page) {
        fail(PageStr(n) + ": L2 slot " + std::to_string(i) + " maps foreign data page");
      }
      if (data_mapped[sm->data_page]) {
        fail(PageStr(sm->data_page) + ": data page mapped more than once");
      }
      data_mapped[sm->data_page] = true;
    }
  }

  // Every data page of a non-stopped addrspace is reachable from its page
  // table (data pages only come into being with a mapping).
  for (PageNr n = 0; n < d.NPages(); ++n) {
    if (d[n].type() != PageType::kDataPage) {
      continue;
    }
    const PageNr as_page = d[n].owner;
    if (!IsAddrspace(d, as_page) ||
        d[as_page].As<AddrspacePage>().state == AddrspaceState::kStopped) {
      continue;
    }
    if (!data_mapped[n]) {
      fail(PageStr(n) + ": data page not mapped anywhere");
    }
  }

  return out;
}

}  // namespace komodo::spec
