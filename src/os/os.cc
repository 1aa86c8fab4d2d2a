#include "src/os/os.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace komodo::os {

using arm::Mode;

EnterResult EnterResult::FromSmc(SmcRet r) {
  EnterResult res;
  res.err = ErrFromWord(r.err);
  res.payload = r.val;
  switch (r.err) {
    case kErrSuccess:
      res.reason = EnclaveExit::kExited;
      break;
    case kErrInterrupted:
      res.reason = EnclaveExit::kInterrupted;
      break;
    case kErrFault:
      res.reason = EnclaveExit::kFaulted;
      break;
    default:
      res.reason = EnclaveExit::kDenied;
      break;
  }
  return res;
}

Os::Os(arm::MachineState& m, Monitor& monitor)
    : machine_(m), monitor_(monitor) {
  ResetForReuse();
}

void Os::ResetForReuse() {
  next_insecure_page_ = 16;
  free_insecure_.clear();
  // Free-list is kept so pages are handed out in ascending order (the
  // monitor doesn't care; tests like stable numbering).
  const word npages = machine_.mem.nsecure_pages();
  free_secure_.clear();
  for (PageNr n = 0; n < npages; ++n) {
    free_secure_.push_back(npages - 1 - n);
  }
}

SmcRet Os::Smc(word call, word a1, word a2, word a3, word a4) {
  assert(machine_.cpsr.mode != Mode::kUser && machine_.CurrentWorld() == arm::World::kNormal);
  machine_.r[0] = call;
  machine_.r[1] = a1;
  machine_.r[2] = a2;
  machine_.r[3] = a3;
  machine_.r[4] = a4;
  const word return_pc = machine_.pc + 4;
  machine_.cycles.Charge(arm::kCortexA7Costs.svc_smc_issue);
  machine_.TakeException(arm::Exception::kSmc, return_pc);
  monitor_.OnSmc();
  // The monitor has returned to normal world.
  assert(machine_.CurrentWorld() == arm::World::kNormal);
  return {machine_.r[0], machine_.r[1]};
}

word Os::GetPhysPages() { return Smc(kSmcGetPhysPages).val; }

SmcRet Os::InitAddrspace(PageNr as_page, PageNr l1pt_page) {
  return Smc(kSmcInitAddrspace, as_page, l1pt_page);
}
SmcRet Os::InitThread(PageNr as_page, PageNr thread_page, word entrypoint) {
  return Smc(kSmcInitThread, as_page, thread_page, entrypoint);
}
SmcRet Os::InitL2Table(PageNr as_page, PageNr l2pt_page, word l1index) {
  return Smc(kSmcInitL2Table, as_page, l2pt_page, l1index);
}
SmcRet Os::MapSecure(PageNr as_page, PageNr data_page, word mapping, word insecure_pgnr) {
  return Smc(kSmcMapSecure, as_page, data_page, mapping, insecure_pgnr);
}
SmcRet Os::AllocSpare(PageNr as_page, PageNr spare_page) {
  return Smc(kSmcAllocSpare, as_page, spare_page);
}
SmcRet Os::MapInsecure(PageNr as_page, word mapping, word insecure_pgnr) {
  return Smc(kSmcMapInsecure, as_page, mapping, insecure_pgnr);
}
SmcRet Os::Remove(PageNr page) { return Smc(kSmcRemove, page); }
SmcRet Os::Finalise(PageNr as_page) { return Smc(kSmcFinalise, as_page); }
EnterResult Os::Enter(PageNr thread_page, word arg1, word arg2, word arg3) {
  return EnterResult::FromSmc(Smc(kSmcEnter, thread_page, arg1, arg2, arg3));
}
EnterResult Os::Resume(PageNr thread_page) {
  return EnterResult::FromSmc(Smc(kSmcResume, thread_page));
}
SmcRet Os::Stop(PageNr as_page) { return Smc(kSmcStop, as_page); }

PageNr Os::AllocSecurePage() {
  if (free_secure_.empty()) {
    // Out of pages: hand back an out-of-range number. The OS is untrusted —
    // the monitor rejects it with kErrInvalidPageNo, which is exactly how a
    // buggy or hostile kernel driver would fail.
    return machine_.mem.nsecure_pages();
  }
  const PageNr n = free_secure_.back();
  free_secure_.pop_back();
  return n;
}

word Os::AllocInsecurePage() {
  if (!free_insecure_.empty()) {
    const word pgnr = free_insecure_.back();
    free_insecure_.pop_back();
    return pgnr;
  }
  const word pgnr = next_insecure_page_++;
  assert(pgnr * arm::kPageSize < arm::kInsecureSize);
  return pgnr;
}

void Os::WriteInsecure(word pgnr, word word_offset, word value) {
  machine_.mem.Write(pgnr * arm::kPageSize + word_offset * arm::kWordSize, value);
}

word Os::ReadInsecure(word pgnr, word word_offset) const {
  return machine_.mem.Read(pgnr * arm::kPageSize + word_offset * arm::kWordSize);
}

void Os::WriteInsecurePage(word pgnr, const std::vector<word>& words) {
  assert(words.size() <= arm::kWordsPerPage);
  word page[arm::kWordsPerPage] = {};
  std::copy(words.begin(), words.end(), page);
  machine_.mem.WritePage(pgnr * arm::kPageSize, page);
}

void Os::WriteInsecureBytes(word pgnr, word byte_offset, const std::vector<uint8_t>& bytes) {
  assert(byte_offset % arm::kWordSize == 0);
  const paddr base = pgnr * arm::kPageSize + byte_offset;
  for (size_t i = 0; i < bytes.size(); i += arm::kWordSize) {
    word v = 0;
    for (size_t j = 0; j < arm::kWordSize && i + j < bytes.size(); ++j) {
      v |= static_cast<word>(bytes[i + j]) << (8 * j);
    }
    machine_.mem.Write(base + static_cast<word>(i), v);
  }
}

std::vector<uint8_t> Os::ReadInsecureBytes(word pgnr, word byte_offset, size_t len) const {
  const paddr base = pgnr * arm::kPageSize + byte_offset;
  std::vector<uint8_t> bytes(len);
  for (size_t i = 0; i < len; ++i) {
    const paddr addr = base + static_cast<word>(i);
    bytes[i] = static_cast<uint8_t>(machine_.mem.Read(addr & ~3u) >> ((addr & 3u) * 8));
  }
  return bytes;
}

KomErr Os::DestroyEnclave(const EnclaveHandle& enclave) {
  KomErr first_err = KomErr::kSuccess;
  const auto note = [&first_err](SmcRet r) {
    if (r.err != kErrSuccess && first_err == KomErr::kSuccess) {
      first_err = ErrFromWord(r.err);
    }
    return r.err == kErrSuccess;
  };
  // A running or suspended enclave cannot be dismantled page by page; Stop
  // forces the address space into kStopped so Remove accepts everything.
  if (enclave.addrspace != kInvalidPage) {
    note(Stop(enclave.addrspace));
  }
  const auto remove_and_free = [this, &note](PageNr page) {
    if (page == kInvalidPage) {
      return;
    }
    if (note(Remove(page))) {
      FreeSecurePage(page);
    }
  };
  remove_and_free(enclave.thread);
  for (PageNr page : enclave.data_pages) {
    remove_and_free(page);
  }
  for (PageNr page : enclave.spare_pages) {
    remove_and_free(page);
  }
  for (PageNr page : enclave.l2pts) {
    remove_and_free(page);
  }
  remove_and_free(enclave.l1pt);
  remove_and_free(enclave.addrspace);
  return first_err;
}

EnclaveBuilder& EnclaveBuilder::Code(std::vector<word> code) {
  code_ = std::move(code);
  return *this;
}

EnclaveBuilder& EnclaveBuilder::Data(std::vector<word> data_init) {
  data_init_ = std::move(data_init);
  return *this;
}

EnclaveBuilder& EnclaveBuilder::SharedPage() {
  with_shared_page_ = true;
  shared_page_preallocated_ = false;
  return *this;
}

EnclaveBuilder& EnclaveBuilder::SharedPage(word insecure_pgnr) {
  with_shared_page_ = true;
  shared_page_preallocated_ = true;
  shared_insecure_pgnr_ = insecure_pgnr;
  return *this;
}

Expected<EnclaveHandle, KomErr> EnclaveBuilder::Build() {
  assert(code_.size() <= arm::kWordsPerPage);
  EnclaveHandle enclave;
  // Staging pages are scratch: the monitor copies their contents into secure
  // pages during MapSecure, so they go straight back to the allocator.
  std::vector<word> staging;
  const auto fail = [this, &enclave, &staging](word err) -> Expected<EnclaveHandle, KomErr> {
    for (word pg : staging) {
      os_.FreeInsecurePage(pg);
    }
    os_.DestroyEnclave(enclave);
    return ErrFromWord(err);
  };

  enclave.addrspace = os_.AllocSecurePage();
  enclave.l1pt = os_.AllocSecurePage();
  if (const SmcRet r = os_.InitAddrspace(enclave.addrspace, enclave.l1pt);
      r.err != kErrSuccess) {
    // InitAddrspace assigns both pages or neither; hand them straight back.
    os_.FreeSecurePage(enclave.addrspace);
    os_.FreeSecurePage(enclave.l1pt);
    enclave.addrspace = kInvalidPage;
    enclave.l1pt = kInvalidPage;
    return fail(r.err);
  }
  // One L2 table covers the low 4 MB (code/data/stack); the shared page at
  // 1 MB < 4 MB also fits in it.
  const PageNr l2 = os_.AllocSecurePage();
  if (const SmcRet r = os_.InitL2Table(enclave.addrspace, l2, 0); r.err != kErrSuccess) {
    os_.FreeSecurePage(l2);
    return fail(r.err);
  }
  enclave.l2pts.push_back(l2);

  // Stage and map the code page (read+execute).
  const word code_staging = os_.AllocInsecurePage();
  staging.push_back(code_staging);
  os_.WriteInsecurePage(code_staging, code_);
  PageNr page = os_.AllocSecurePage();
  if (const SmcRet r = os_.MapSecure(enclave.addrspace, page,
                                     MakeMapping(kEnclaveCodeVa, kMapR | kMapX), code_staging);
      r.err != kErrSuccess) {
    os_.FreeSecurePage(page);
    return fail(r.err);
  }
  enclave.data_pages.push_back(page);

  // Data page (read+write), with caller-supplied initial contents.
  const word data_staging = os_.AllocInsecurePage();
  staging.push_back(data_staging);
  os_.WriteInsecurePage(data_staging, data_init_);
  page = os_.AllocSecurePage();
  if (const SmcRet r = os_.MapSecure(enclave.addrspace, page,
                                     MakeMapping(kEnclaveDataVa, kMapR | kMapW), data_staging);
      r.err != kErrSuccess) {
    os_.FreeSecurePage(page);
    return fail(r.err);
  }
  enclave.data_pages.push_back(page);

  // Stack page (read+write, zeroed).
  const word stack_staging = os_.AllocInsecurePage();
  staging.push_back(stack_staging);
  os_.WriteInsecurePage(stack_staging, {});
  page = os_.AllocSecurePage();
  if (const SmcRet r = os_.MapSecure(enclave.addrspace, page,
                                     MakeMapping(kEnclaveStackVa, kMapR | kMapW), stack_staging);
      r.err != kErrSuccess) {
    os_.FreeSecurePage(page);
    return fail(r.err);
  }
  enclave.data_pages.push_back(page);

  if (with_shared_page_) {
    if (!shared_page_preallocated_) {
      shared_insecure_pgnr_ = os_.AllocInsecurePage();
    }
    if (const SmcRet r =
            os_.MapInsecure(enclave.addrspace, MakeMapping(kEnclaveSharedVa, kMapR | kMapW),
                            shared_insecure_pgnr_);
        r.err != kErrSuccess) {
      if (!shared_page_preallocated_) {
        os_.FreeInsecurePage(shared_insecure_pgnr_);
      }
      return fail(r.err);
    }
    enclave.has_shared_page = true;
    enclave.shared_insecure_pgnr = shared_insecure_pgnr_;
  }

  enclave.thread = os_.AllocSecurePage();
  if (const SmcRet r = os_.InitThread(enclave.addrspace, enclave.thread, kEnclaveCodeVa);
      r.err != kErrSuccess) {
    os_.FreeSecurePage(enclave.thread);
    enclave.thread = kInvalidPage;
    return fail(r.err);
  }
  if (const SmcRet r = os_.Finalise(enclave.addrspace); r.err != kErrSuccess) {
    return fail(r.err);
  }
  for (word pg : staging) {
    os_.FreeInsecurePage(pg);
  }
  return enclave;
}

}  // namespace komodo::os
