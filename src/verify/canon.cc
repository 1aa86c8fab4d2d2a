#include "src/verify/canon.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/crypto/sha256.h"

namespace komodo::verify {

namespace {

using spec::AddrspacePage;
using spec::DataPage;
using spec::DispatcherPage;
using spec::InsecureMapping;
using spec::L1PTablePage;
using spec::L2PTablePage;
using spec::PageDb;
using spec::PageDbEntry;
using spec::SecureMapping;

// Remaps a page reference through the permutation; values outside the world
// (kInvalidPage owners, stale pointers) are preserved verbatim.
PageNr Map(const Perm& perm, PageNr n) {
  return n < perm.size() ? perm[n] : n;
}

void AppendNum(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  out->append(buf);
}

// Serializes one page record under `perm`. `with_refs` distinguishes the full
// record (key material) from the permutation-invariant signature used to
// group interchangeable pages: the signature must not mention any page
// number, so it drops the owner and every cross-page reference while keeping
// reference-free structure (slot indices, permissions, contents).
void AppendRecord(std::string* out, const PageDb& d, PageNr n, const Perm& perm, bool with_refs) {
  const PageDbEntry& e = d[n];
  const auto ref = [&](PageNr r) {
    if (with_refs) {
      out->push_back(':');
      AppendNum(out, Map(perm, r));
    }
  };
  out->push_back('0' + static_cast<char>(e.type()));
  ref(e.owner);
  switch (e.type()) {
    case PageType::kFree:
    case PageType::kSparePage:
      break;
    case PageType::kAddrspace: {
      const AddrspacePage& as = e.As<AddrspacePage>();
      out->append("|as,");
      AppendNum(out, static_cast<word>(as.state));
      out->push_back(',');
      AppendNum(out, as.refcount);
      ref(as.l1pt_page);
      break;  // measurement_stream/measurement deliberately excluded
    }
    case PageType::kDispatcher: {
      const DispatcherPage& disp = e.As<DispatcherPage>();
      out->append("|d,");
      out->push_back(disp.entered ? '1' : '0');
      out->push_back(',');
      AppendNum(out, disp.entrypoint);
      for (word r : disp.regs) {
        out->push_back(',');
        AppendNum(out, r);
      }
      for (word r : {disp.sp, disp.lr, disp.pc, disp.psr}) {
        out->push_back(',');
        AppendNum(out, r);
      }
      break;
    }
    case PageType::kL1PTable: {
      const L1PTablePage& l1 = e.As<L1PTablePage>();
      out->append("|l1");
      for (const auto& [i, l2] : l1.slots()) {
        out->push_back(',');
        AppendNum(out, i);
        ref(*l2);
      }
      break;
    }
    case PageType::kL2PTable: {
      const L2PTablePage& l2 = e.As<L2PTablePage>();
      out->append("|l2");
      for (const auto& [i, entry] : l2.slots()) {
        if (const SecureMapping* sm = std::get_if<SecureMapping>(&entry)) {
          out->push_back(',');
          AppendNum(out, i);
          out->push_back('s');
          out->push_back(sm->writable ? 'w' : '-');
          out->push_back(sm->executable ? 'x' : '-');
          ref(sm->data_page);
        } else if (const InsecureMapping* im = std::get_if<InsecureMapping>(&entry)) {
          out->push_back(',');
          AppendNum(out, i);
          out->push_back('i');
          out->push_back(im->writable ? 'w' : '-');
          out->push_back('@');
          AppendNum(out, im->insecure_pgnr);  // not a secure page: never remapped
        }
      }
      break;
    }
    case PageType::kDataPage: {
      // Contents are permutation-invariant; hash them so data pages stay
      // cheap to compare and the key stays small.
      const DataPage& data = e.As<DataPage>();
      crypto::Sha256 h;
      for (word w : data.contents()) {
        h.UpdateWordLe(w);
      }
      out->append("|data,");
      out->append(crypto::DigestToHex(h.Finalize()));
      break;
    }
  }
}

std::string SerializeUnder(const PageDb& d, const Perm& perm) {
  // Pages appear in their *new* (post-permutation) index order.
  std::vector<PageNr> old_of_new(d.NPages());
  for (PageNr n = 0; n < d.NPages(); ++n) {
    old_of_new[perm[n]] = n;
  }
  std::string out;
  out.reserve(64 * d.NPages());
  for (PageNr i = 0; i < d.NPages(); ++i) {
    AppendRecord(&out, d, old_of_new[i], perm, /*with_refs=*/true);
    out.push_back(';');
  }
  return out;
}

// Pages with identical reference-free signatures are interchangeable
// candidates; only permutations that keep each signature class together (with
// classes ordered by signature) can produce the minimal serialization,
// because the signature is a prefix of every page record.
struct SigClasses {
  // Page numbers grouped by signature, groups sorted by signature string.
  std::vector<std::vector<PageNr>> groups;
};

SigClasses ClassifyPages(const PageDb& d) {
  const Perm id;  // unused by signature records (no refs)
  std::vector<std::pair<std::string, PageNr>> sigs;
  sigs.reserve(d.NPages());
  for (PageNr n = 0; n < d.NPages(); ++n) {
    std::string s;
    AppendRecord(&s, d, n, id, /*with_refs=*/false);
    sigs.emplace_back(std::move(s), n);
  }
  std::sort(sigs.begin(), sigs.end());
  SigClasses out;
  for (size_t i = 0; i < sigs.size(); ++i) {
    if (i == 0 || sigs[i].first != sigs[i - 1].first) {
      out.groups.emplace_back();
    }
    out.groups.back().push_back(sigs[i].second);
  }
  return out;
}

// Invokes fn(perm) for every candidate permutation: each signature class is
// assigned a contiguous block of new indices (blocks in signature order) and
// all orderings within each class are enumerated.
template <typename Fn>
void ForEachCandidate(const SigClasses& classes, size_t npages, Fn&& fn) {
  std::vector<std::vector<PageNr>> orders = classes.groups;  // mutated in place
  Perm perm(npages);
  const auto emit = [&] {
    PageNr next = 0;
    for (const auto& group : orders) {
      for (PageNr old : group) {
        perm[old] = next++;
      }
    }
    fn(perm);
  };
  // Odometer over per-group permutations (each group's page list starts
  // sorted, so std::next_permutation cycles through all orderings).
  for (bool more = true; more;) {
    emit();
    more = false;
    for (auto& group : orders) {
      if (std::next_permutation(group.begin(), group.end())) {
        more = true;
        break;
      }
      // wrapped: group is sorted again, carry into the next group
    }
  }
}

}  // namespace

spec::PageDb ApplyPermutation(const spec::PageDb& d, const Perm& perm) {
  PageDb out(d.NPages());
  for (PageNr n = 0; n < d.NPages(); ++n) {
    PageDbEntry e = d[n];
    e.owner = Map(perm, e.owner);
    switch (e.type()) {
      case PageType::kAddrspace: {
        AddrspacePage& as = e.As<AddrspacePage>();
        as.l1pt_page = Map(perm, as.l1pt_page);
        break;
      }
      case PageType::kL1PTable: {
        L1PTablePage& l1 = e.As<L1PTablePage>();
        for (const auto& [i, l2] : d[n].As<L1PTablePage>().slots()) {
          l1.Set(i, Map(perm, *l2));
        }
        break;
      }
      case PageType::kL2PTable: {
        L2PTablePage& l2 = e.As<L2PTablePage>();
        for (const auto& [i, entry] : d[n].As<L2PTablePage>().slots()) {
          if (const SecureMapping* sm = std::get_if<SecureMapping>(&entry)) {
            l2.Set(i, SecureMapping{Map(perm, sm->data_page), sm->writable, sm->executable});
          }
        }
        break;
      }
      default:
        break;
    }
    out[Map(perm, n)] = std::move(e);
  }
  return out;
}

std::string Serialize(const spec::PageDb& d) {
  Perm id(d.NPages());
  for (PageNr n = 0; n < d.NPages(); ++n) {
    id[n] = n;
  }
  return SerializeUnder(d, id);
}

std::string CanonicalKey(const spec::PageDb& d) {
  std::string best;
  ForEachCandidate(ClassifyPages(d), d.NPages(), [&](const Perm& perm) {
    std::string s = SerializeUnder(d, perm);
    if (best.empty() || s < best) {
      best = std::move(s);
    }
  });
  return best;
}

}  // namespace komodo::verify
