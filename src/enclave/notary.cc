#include "src/enclave/notary.h"

#include <cassert>

#include "src/os/os.h"

namespace komodo::enclave {

NotaryCore::NotaryCore(uint64_t key_seed, const NotaryCosts& costs)
    : drbg_(key_seed), costs_(costs) {}

uint64_t NotaryCore::Init() {
  if (key_ready_) {
    return 0;
  }
  key_ = crypto::RsaGenerateKey(&drbg_, 1024);
  key_ready_ = true;
  counter_ = 0;
  return costs_.rsa_keygen_cycles;
}

std::vector<uint8_t> NotaryCore::Notarize(const uint8_t* doc, size_t len, uint64_t* cycles_out) {
  // message = document || counter (little-endian), as the Ironclad notary
  // hashes the document with the current counter value before signing.
  std::vector<uint8_t> message(doc, doc + len);
  message.push_back(static_cast<uint8_t>(counter_));
  message.push_back(static_cast<uint8_t>(counter_ >> 8));
  message.push_back(static_cast<uint8_t>(counter_ >> 16));
  message.push_back(static_cast<uint8_t>(counter_ >> 24));
  std::vector<uint8_t> sig = crypto::RsaSignSha256(key_, message.data(), message.size());
  ++counter_;
  *cycles_out = costs_.sha_cycles_per_byte * message.size() + costs_.rsa_sign_cycles;
  return sig;
}

UserAction NotaryProgram::Run(UserContext& ctx) {
  const word cmd = ctx.Reg(0);
  switch (cmd) {
    case kNotaryCmdInit: {
      ctx.ChargeCycles(core_.Init());
      // Publish the modulus to the shared page following the document region.
      const std::vector<uint8_t> n_bytes = core_.public_key().n.ToBytesBe(128);
      const vaddr out_va = os::kEnclaveSharedVa + kNotaryPubkeyOffset;
      if (!ctx.WriteBytes(out_va, n_bytes.data(), n_bytes.size())) {
        return UserAction::Fault();
      }
      return UserAction::Exit(0);
    }
    case kNotaryCmdNotarize: {
      const word len = ctx.Reg(1);
      if (len == 0 || len > kNotaryMaxDocBytes) {
        return UserAction::Exit(0);  // 0 = rejected (counters start at 1 below)
      }
      // Copy the document in through the enclave page table (the charged
      // loads model the enclave's copy-in of untrusted input).
      std::vector<uint8_t> doc(len);
      if (!ctx.ReadBytes(os::kEnclaveSharedVa, doc.data(), len)) {
        return UserAction::Fault();
      }
      uint64_t cycles = 0;
      const std::vector<uint8_t> sig = core_.Notarize(doc.data(), doc.size(), &cycles);
      ctx.ChargeCycles(cycles);
      const vaddr out_va = os::kEnclaveSharedVa + kNotarySigOffset;
      if (!ctx.WriteBytes(out_va, sig.data(), sig.size())) {
        return UserAction::Fault();
      }
      return UserAction::Exit(core_.counter());  // counter after increment >= 1
    }
    default:
      return UserAction::Exit(0);
  }
}

std::vector<uint8_t> NotaryNative::Notarize(const std::vector<uint8_t>& doc) {
  // A native process reads the document from its own memory: model the same
  // copy-in traffic with plain loads.
  cycles_ += doc.size() / 4 * arm::kCortexA7Costs.load;
  uint64_t work = 0;
  std::vector<uint8_t> sig = core_.Notarize(doc.data(), doc.size(), &work);
  cycles_ += work;
  return sig;
}

NotaryHost::NotaryHost(uint64_t key_seed)
    : program(std::make_shared<NotaryProgram>(key_seed)) {}

KomErr NotaryHost::Build() {
  os::Os& os = world.os;
  KomErr err = KomErr::kSuccess;
  const auto ok = [&err](os::SmcRet r) {
    err = ErrFromWord(r.err);
    return err == KomErr::kSuccess;
  };
  const PageNr as = os.AllocSecurePage();
  const PageNr l1pt = os.AllocSecurePage();
  const PageNr l2 = os.AllocSecurePage();
  if (!ok(os.InitAddrspace(as, l1pt)) || !ok(os.InitL2Table(as, l2, 0))) {
    return err;
  }
  // The program runs natively, so the code page is a stub; it is still
  // measured.
  const word staging = os.AllocInsecurePage();
  os.WriteInsecurePage(staging, {0xe3a00001, 0xef000000});
  const PageNr code = os.AllocSecurePage();
  if (!ok(os.MapSecure(as, code, MakeMapping(os::kEnclaveCodeVa, kMapR | kMapX), staging))) {
    return err;
  }
  doc_pg0 = os.AllocInsecurePage();
  for (word i = 1; i < kNotarySharedPages + 1; ++i) {
    [[maybe_unused]] const word pg = os.AllocInsecurePage();
    assert(pg == doc_pg0 + i);  // a fresh world allocates insecure pages in order
  }
  for (word i = 0; i < kNotarySharedPages + 1; ++i) {
    const word mapping = MakeMapping(os::kEnclaveSharedVa + i * arm::kPageSize, kMapR | kMapW);
    if (!ok(os.MapInsecure(as, mapping, doc_pg0 + i))) {
      return err;
    }
  }
  thread = os.AllocSecurePage();
  if (!ok(os.InitThread(as, thread, os::kEnclaveCodeVa)) || !ok(os.Finalise(as))) {
    return err;
  }
  runtime.Register(l1pt, program);
  return KomErr::kSuccess;
}

void NotaryHost::StageDocument(const std::vector<uint8_t>& doc) {
  world.os.WriteInsecureBytes(doc_pg0, 0, doc);
}

std::vector<uint8_t> NotaryHost::Signature() const {
  return world.os.ReadInsecureBytes(doc_pg0, kNotarySigOffset, 128);
}

}  // namespace komodo::enclave
