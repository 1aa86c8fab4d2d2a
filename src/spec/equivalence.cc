#include "src/spec/equivalence.h"

#include <cassert>

namespace komodo::spec {

namespace {

std::string PageStr(PageNr n) { return "page " + std::to_string(n); }

}  // namespace

bool WeakEquivPage(const PageDbEntry& e1, const PageDbEntry& e2) {
  if (e1.type() != e2.type()) {
    return false;
  }
  switch (e1.type()) {
    case PageType::kDataPage:
    case PageType::kSparePage:
    case PageType::kFree:
      return true;  // contents unobservable from outside
    case PageType::kDispatcher:
      // Only the entered flag is observable (the OS sees Resume/Enter succeed
      // or fail); the saved context is enclave-private.
      return e1.As<DispatcherPage>().entered == e2.As<DispatcherPage>().entered &&
             e1.owner == e2.owner;
    case PageType::kAddrspace:
    case PageType::kL1PTable:
    case PageType::kL2PTable:
      return e1 == e2;
  }
  return false;
}

std::vector<std::string> EncEquivViolations(const PageDb& d1, const PageDb& d2, PageNr enc) {
  std::vector<std::string> out;
  if (d1.NPages() != d2.NPages()) {
    out.push_back("page counts differ");
    return out;
  }
  for (PageNr n = 0; n < d1.NPages(); ++n) {
    // F(d1) = F(d2): the free sets agree.
    if (d1[n].IsFree() != d2[n].IsFree()) {
      out.push_back(PageStr(n) + ": free in one state only");
      continue;
    }
    const bool in_a1 = !d1[n].IsFree() && enc != kInvalidPage && d1[n].owner == enc;
    const bool in_a2 = !d2[n].IsFree() && enc != kInvalidPage && d2[n].owner == enc;
    // A_enc(d1) = A_enc(d2): the observer owns the same pages.
    if (in_a1 != in_a2) {
      out.push_back(PageStr(n) + ": owned by observer in one state only");
      continue;
    }
    if (in_a1) {
      // Owned pages must be fully equal.
      if (!(d1[n] == d2[n])) {
        out.push_back(PageStr(n) + ": observer-owned page differs");
      }
    } else {
      // Outside pages must be weakly equal (Definition 1).
      if (!WeakEquivPage(d1[n], d2[n])) {
        out.push_back(PageStr(n) + ": weak equivalence violated");
      }
    }
  }
  return out;
}

std::vector<std::string> AdvEquivViolations(const arm::MachineState& m1, const PageDb& d1,
                                            const arm::MachineState& m2, const PageDb& d2,
                                            PageNr enc, arm::MemoryCompare* insecure_ram) {
  std::vector<std::string> out = EncEquivViolations(d1, d2, enc);

  for (int i = 0; i < 13; ++i) {
    if (m1.r[i] != m2.r[i]) {
      out.push_back("r" + std::to_string(i) + " differs");
    }
  }
  if (!(m1.cpsr == m2.cpsr)) {
    out.push_back("cpsr differs");
  }
  for (int mi = 0; mi < arm::kNumModes; ++mi) {
    const arm::Mode mode = static_cast<arm::Mode>(mi);
    if (mode == arm::Mode::kMonitor) {
      continue;  // monitor bank is secure state, invisible to the OS
    }
    if (m1.sp_banked[mi] != m2.sp_banked[mi]) {
      out.push_back(std::string("sp_") + arm::ModeName(mode) + " differs");
    }
    if (m1.lr_banked[mi] != m2.lr_banked[mi]) {
      out.push_back(std::string("lr_") + arm::ModeName(mode) + " differs");
    }
    if (mode != arm::Mode::kUser && !(m1.spsr_banked[mi] == m2.spsr_banked[mi])) {
      out.push_back(std::string("spsr_") + arm::ModeName(mode) + " differs");
    }
  }

  // All of insecure memory; the lowest differing word is the witness.
  arm::MemoryCompare fresh(arm::MemoryCompare::Scope::kInsecure);
  arm::MemoryCompare& compare = insecure_ram != nullptr ? *insecure_ram : fresh;
  assert(compare.scope() == arm::MemoryCompare::Scope::kInsecure);
  if (const std::optional<size_t> w = compare.FirstDifference(m1.mem, m2.mem)) {
    out.push_back("insecure memory differs at word " + std::to_string(*w));
  }
  return out;
}

RefinementStep CheckRefinement(const PageDb& pre, bool is_svc, word call, Result expected,
                               word impl_err, const PageDb* post, const std::string& post_error) {
  RefinementStep step;
  const bool enterish = !is_svc && (call == kSmcEnter || call == kSmcResume);
  const bool havoc = is_svc ? call == kSvcExit || call == kSvcAttest || call == kSvcVerify
                            : enterish && expected.err == kErrSuccess;
  const auto label = [&] { return (is_svc ? "svc " : "smc ") + std::to_string(call); };
  if (enterish && havoc && impl_err != kErrSuccess && impl_err != kErrInterrupted &&
      impl_err != kErrFault) {
    step.failure = std::string("enter/resume guard passed in spec but impl says ") +
                   KomErrName(impl_err);
    return step;
  }
  if (!havoc && impl_err != expected.err) {
    step.failure =
        label() + " impl=" + KomErrName(impl_err) + " spec=" + KomErrName(expected.err);
    return step;
  }
  if (!post_error.empty()) {
    step.failure = post_error;
    return step;
  }
  if (havoc) {
    if (post != nullptr) {
      step.successor = *post;
    }
    return step;
  }
  // A failed call's post-state is the pre-state, and so is a success's that
  // the spec did not write, or the implementation's when it wrote no memory.
  // When both sides are the pre-state there is nothing to compare.
  const PageDb* want = expected.db.has_value() ? &*expected.db : &pre;
  const PageDb* have = post != nullptr ? post : &pre;
  if (have == want || *have == *want) {
    step.successor = std::move(expected.db);
  } else if (expected.err != kErrSuccess) {
    step.failure = label() + " failed with " + KomErrName(impl_err) + " but mutated the pagedb";
  } else {
    step.failure = label() + " pagedb diverges from spec";
  }
  return step;
}

}  // namespace komodo::spec
