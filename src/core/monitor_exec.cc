// The enclave execution path: Enter/Resume, the exception-handler state
// machine of Figure 3, and the SVC handlers available to running enclaves.
#include <cassert>

#include "src/arm/page_table.h"
#include "src/core/monitor.h"
#include "src/crypto/hmac.h"

namespace komodo {

using arm::Exception;
using arm::Mode;
using arm::Psr;
using arm::Reg;

namespace {

constexpr paddr FrameAddr(word index) {
  return arm::kMonitorBase + 0x800 + index * arm::kWordSize;
}

// Frame slots for the OS state saved across enclave execution.
constexpr word kFrameOsLr = 0;
constexpr word kFrameOsSpsr = 1;
constexpr word kFrameUsrSp = 2;
constexpr word kFrameUsrLr = 3;
// Three slots (sp, lr, spsr) per exception mode, in this order.
constexpr Mode kSavedModes[] = {Mode::kSupervisor, Mode::kAbort, Mode::kUndefined, Mode::kIrq,
                                Mode::kFiq};
constexpr word kFrameBanked = 4;

word ExceptionBit(Exception e) { return 1u << static_cast<word>(e); }

// The declassified exception-type code reported to the OS on a faulting
// enclave (§6.2: the OS learns only the kind of exception).
word FaultCode(Exception e) {
  switch (e) {
    case Exception::kPrefetchAbort:
      return 1;
    case Exception::kDataAbort:
      return 2;
    case Exception::kUndefined:
      return 3;
    default:
      return 0;
  }
}

}  // namespace

void Monitor::SaveOsBankedState() {
  ops_.StorePhys(FrameAddr(kFrameUsrSp), ops_.GetBanked(Reg::SP, Mode::kUser));
  ops_.StorePhys(FrameAddr(kFrameUsrLr), ops_.GetBanked(Reg::LR, Mode::kUser));
  word slot = kFrameBanked;
  for (Mode m : kSavedModes) {
    const bool lazy_skip = config_.opt_lazy_banked_regs &&
                           (m == Mode::kAbort || m == Mode::kUndefined || m == Mode::kFiq);
    if (!lazy_skip) {
      ops_.StorePhys(FrameAddr(slot), ops_.GetBanked(Reg::SP, m));
      ops_.StorePhys(FrameAddr(slot + 1), ops_.GetBanked(Reg::LR, m));
      ops_.ChargeAlu();  // mrs spsr
      ops_.StorePhys(FrameAddr(slot + 2), machine_.spsr_banked[static_cast<size_t>(m)].Encode());
    }
    slot += 3;
  }
}

void Monitor::RestoreOsBankedState() {
  ops_.SetBanked(Reg::SP, ops_.LoadPhys(FrameAddr(kFrameUsrSp)), Mode::kUser);
  ops_.SetBanked(Reg::LR, ops_.LoadPhys(FrameAddr(kFrameUsrLr)), Mode::kUser);
  word slot = kFrameBanked;
  for (Mode m : kSavedModes) {
    const bool lazy_skip = config_.opt_lazy_banked_regs &&
                           (m == Mode::kAbort || m == Mode::kUndefined || m == Mode::kFiq);
    if (!lazy_skip) {
      ops_.SetBanked(Reg::SP, ops_.LoadPhys(FrameAddr(slot)), m);
      ops_.SetBanked(Reg::LR, ops_.LoadPhys(FrameAddr(slot + 1)), m);
      ops_.ChargeAlu();
      machine_.spsr_banked[static_cast<size_t>(m)] =
          Psr::Decode(ops_.LoadPhys(FrameAddr(slot + 2)));
    } else {
      // Lazy ablation slow path: if the enclave's execution touched this
      // bank (by taking the corresponding exception), its contents now
      // derive from enclave state; scrub rather than leak. The fast path —
      // bank untouched — legitimately skips the save/restore, which is the
      // optimisation the paper sketches in §8.1.
      const bool touched =
          (m == Mode::kAbort &&
           (exceptions_seen_ & (ExceptionBit(Exception::kDataAbort) |
                                ExceptionBit(Exception::kPrefetchAbort))) != 0) ||
          (m == Mode::kUndefined &&
           (exceptions_seen_ & ExceptionBit(Exception::kUndefined)) != 0) ||
          (m == Mode::kFiq && (exceptions_seen_ & ExceptionBit(Exception::kFiq)) != 0);
      if (touched) {
        ops_.SetBanked(Reg::SP, 0, m);
        ops_.SetBanked(Reg::LR, 0, m);
        machine_.spsr_banked[static_cast<size_t>(m)] = Psr{};
        ops_.ChargeAlu();
      }
    }
    slot += 3;
  }
}

arm::Exception Monitor::RunUser() {
  if (user_runner_) {
    return user_runner_(machine_);
  }
  std::optional<Exception> exc = arm::RunUntilException(machine_, config_.max_enclave_steps);
  if (exc.has_value()) {
    return *exc;
  }
  // Step budget exhausted: the environment's timer interrupt fires (user mode
  // cannot mask IRQs, so it is taken on the next step).
  machine_.pending_irq = true;
  exc = arm::RunUntilException(machine_, 2);
  assert(exc.has_value());
  return *exc;
}

void Monitor::ObsInstant(obs::EventKind kind, word code, const char* name, KomErr err) {
  if (obs_.enabled()) {
    obs_.Instant(kind, code, name, arm::ObsSnap(machine_), ToWord(err));
  }
}

Monitor::CallResult Monitor::TeardownToOs(KomErr err, word val) {
  // No PageDb reads in the trace event: obs must never charge simulated
  // cycles, and every ops_ accessor does.
  ObsInstant(obs::EventKind::kEnclaveExit, 0, "EnclaveExit", err);
  ops_.ChargeAlu();  // cps #monitor
  machine_.cpsr.mode = Mode::kMonitor;
  machine_.cpsr.irq_masked = true;
  machine_.cpsr.fiq_masked = true;
  db_.SetCurDispatcher(kInvalidPage);
  RestoreOsBankedState();
  machine_.SetScrNs(true);
  machine_.lr_banked[static_cast<size_t>(Mode::kMonitor)] = ops_.LoadPhys(FrameAddr(kFrameOsLr));
  machine_.spsr_banked[static_cast<size_t>(Mode::kMonitor)] =
      Psr::Decode(ops_.LoadPhys(FrameAddr(kFrameOsSpsr)));
  return {err, val};
}

std::optional<KomErr> Monitor::SwitchToEnclave(PageNr disp_page, bool resume, PageNr* as_page) {
  if (!db_.ValidPageNr(disp_page) || db_.TypeOf(disp_page) != PageType::kDispatcher) {
    return KomErr::kInvalidPageNo;
  }
  *as_page = db_.OwnerOf(disp_page);
  if (db_.AsState(*as_page) != AddrspaceState::kFinal) {
    return KomErr::kNotFinal;
  }
  // Enter needs a thread that is not mid-run; Resume needs one that is.
  if (db_.DispEntered(disp_page) != resume) {
    return resume ? KomErr::kNotEntered : KomErr::kAlreadyEntered;
  }

  // Save the OS return state and banked registers (conservatively, §8.1).
  ops_.StorePhys(FrameAddr(kFrameOsLr), machine_.lr_banked[static_cast<size_t>(Mode::kMonitor)]);
  ops_.StorePhys(FrameAddr(kFrameOsSpsr),
                 machine_.spsr_banked[static_cast<size_t>(Mode::kMonitor)].Encode());
  SaveOsBankedState();
  machine_.SetScrNs(false);
  exceptions_seen_ = 0;

  // Load the enclave page table; flush unless provably still consistent.
  const paddr l1pt = PagePaddr(db_.AsL1Pt(*as_page));
  if (config_.opt_skip_redundant_tlb_flush && machine_.ttbr0 == l1pt &&
      machine_.tlb_consistent) {
    ops_.ChargeAlu(2);
  } else {
    machine_.WriteTtbr0(l1pt);
    machine_.FlushTlb();
    ObsInstant(obs::EventKind::kTlbFlush, 0, "TlbFlush");
  }
  return std::nullopt;
}

Monitor::CallResult Monitor::SmcEnter(PageNr disp_page, word arg1, word arg2, word arg3) {
  PageNr as_page = kInvalidPage;
  if (const auto err = SwitchToEnclave(disp_page, /*resume=*/false, &as_page)) {
    return {*err, 0};
  }
  // Stage the architectural entry state (§5.2): parameters in r0-r2, every
  // other user-visible register zeroed.
  for (int i = 0; i < 13; ++i) {
    ops_.SetReg(static_cast<Reg>(i), 0);
  }
  ops_.SetReg(Reg::R0, arg1);
  ops_.SetReg(Reg::R1, arg2);
  ops_.SetReg(Reg::R2, arg3);
  ops_.SetBanked(Reg::SP, 0, Mode::kUser);
  ops_.SetBanked(Reg::LR, 0, Mode::kUser);

  Psr user_psr;
  user_psr.mode = Mode::kUser;
  user_psr.irq_masked = false;
  user_psr.fiq_masked = false;
  machine_.spsr_banked[static_cast<size_t>(Mode::kMonitor)] = user_psr;
  ops_.ChargeAlu(2);  // msr spsr
  return RunEnclave(disp_page, as_page, db_.DispEntrypoint(disp_page), /*resume=*/false);
}

Monitor::CallResult Monitor::SmcResume(PageNr disp_page) {
  PageNr as_page = kInvalidPage;
  if (const auto err = SwitchToEnclave(disp_page, /*resume=*/true, &as_page)) {
    return {*err, 0};
  }
  word resume_pc = 0;
  Psr user_psr;
  RestoreEnclaveContext(disp_page, &resume_pc, &user_psr);
  db_.SetDispEntered(disp_page, false);
  machine_.spsr_banked[static_cast<size_t>(Mode::kMonitor)] = user_psr;
  ops_.ChargeAlu(2);  // msr spsr
  return RunEnclave(disp_page, as_page, resume_pc, /*resume=*/true);
}

Monitor::CallResult Monitor::RunEnclave(PageNr disp_page, PageNr as_page, word pc, bool resume) {
  db_.SetCurDispatcher(disp_page);
  ObsInstant(resume ? obs::EventKind::kEnclaveResume : obs::EventKind::kEnclaveEnter, disp_page,
             resume ? "EnclaveResume" : "EnclaveEnter");
  machine_.ExceptionReturn(pc);  // MOVS PC, LR into user mode
  for (;;) {
    const Exception exc = RunUser();
    exceptions_seen_ |= ExceptionBit(exc);
    if (exc != Exception::kSvc) {
      ObsInstant(obs::EventKind::kException, static_cast<word>(exc), arm::ExceptionName(exc));
    }
    switch (exc) {
      case Exception::kSvc: {
        // The machine is now in (secure) supervisor mode; user registers are
        // live in the shared register file.
        const SvcResult res = HandleSvc(as_page);
        if (res.exits) {
          // Exit does not save context: the thread stays re-enterable (§4).
          return TeardownToOs(KomErr::kSuccess, res.exit_retval);
        }
        ops_.SetReg(Reg::R0, ToWord(res.err));
        ops_.SetReg(Reg::R1, res.val);
        if (!machine_.tlb_consistent) {
          machine_.FlushTlb();  // an SVC may have edited the live page table
          ObsInstant(obs::EventKind::kTlbFlush, 0, "TlbFlush");
        }
        machine_.ExceptionReturn(machine_.lr_banked[static_cast<size_t>(Mode::kSupervisor)]);
        continue;
      }
      case Exception::kIrq:
      case Exception::kFiq: {
        const Mode m = (exc == Exception::kIrq) ? Mode::kIrq : Mode::kFiq;
        ops_.ChargeAlu();
        const word resume_pc = machine_.lr_banked[static_cast<size_t>(m)] - 4;
        const Psr user_psr = machine_.spsr_banked[static_cast<size_t>(m)];
        SaveEnclaveContext(disp_page, resume_pc, user_psr);
        db_.SetDispEntered(disp_page, true);
        return TeardownToOs(KomErr::kInterrupted, 0);
      }
      case Exception::kPrefetchAbort:
      case Exception::kDataAbort:
      case Exception::kUndefined:
        // The thread exits with an error code but no further information
        // (§4): the OS cannot observe the faulting address or context.
        return TeardownToOs(KomErr::kFault, FaultCode(exc));
      case Exception::kSmc:
        // Unreachable: SMC from user mode is an undefined instruction.
        assert(false && "SMC exception during enclave execution");
        return TeardownToOs(KomErr::kFault, 0);
    }
  }
}

void Monitor::SaveEnclaveContext(PageNr disp_page, word resume_pc, const Psr& user_psr) {
  for (word i = 0; i < 13; ++i) {
    db_.StorePageWord(disp_page, kDispSavedRegs + i, machine_.r[i]);
    ops_.ChargeAlu();
  }
  db_.StorePageWord(disp_page, kDispSavedSp, ops_.GetBanked(Reg::SP, Mode::kUser));
  db_.StorePageWord(disp_page, kDispSavedLr, ops_.GetBanked(Reg::LR, Mode::kUser));
  db_.StorePageWord(disp_page, kDispSavedPc, resume_pc);
  db_.StorePageWord(disp_page, kDispSavedPsr, user_psr.Encode());
}

void Monitor::RestoreEnclaveContext(PageNr disp_page, word* resume_pc, Psr* user_psr) {
  for (word i = 0; i < 13; ++i) {
    machine_.r[i] = db_.LoadPageWord(disp_page, kDispSavedRegs + i);
    ops_.ChargeAlu();
  }
  ops_.SetBanked(Reg::SP, db_.LoadPageWord(disp_page, kDispSavedSp), Mode::kUser);
  ops_.SetBanked(Reg::LR, db_.LoadPageWord(disp_page, kDispSavedLr), Mode::kUser);
  *resume_pc = db_.LoadPageWord(disp_page, kDispSavedPc);
  Psr psr = Psr::Decode(db_.LoadPageWord(disp_page, kDispSavedPsr));
  // Whatever was saved, execution resumes in user mode with interrupts
  // enabled — the PSR is enclave-influenced data, not a capability.
  psr.mode = Mode::kUser;
  psr.irq_masked = false;
  psr.fiq_masked = false;
  *user_psr = psr;
}

// --- SVC handlers -------------------------------------------------------------------

Monitor::SvcResult Monitor::HandleSvc(PageNr as_page) {
  ops_.ChargeAlu(8);  // dispatch chain
  SvcCtx ctx;
  ctx.call = ops_.GetReg(Reg::R0);
  ctx.args = {ops_.GetReg(Reg::R1), ops_.GetReg(Reg::R2), ops_.GetReg(Reg::R3)};
  ctx.as_page = as_page;
  // Per-call dispatch is table-driven (src/core/call_table.*); DispatchSvc
  // also attaches the tracer when enabled.
  return DispatchSvc(ctx);
}

Monitor::SvcResult Monitor::SvcExit(word retval) {
  // Exit carries no error path: the retval is handed to the OS verbatim.
  SvcResult res;
  res.exits = true;
  res.exit_retval = retval;
  return res;
}

Monitor::SvcResult Monitor::SvcGetRandom() {
  // Models the latency of a read from the SoC's hardware RNG FIFO.
  machine_.cycles.Charge(200);
  return {KomErr::kSuccess, entropy_.NextWord(), false, 0};
}

Monitor::SvcResult Monitor::SvcAttest(PageNr as_page, vaddr data_va, vaddr mac_out_va) {
  word data[8];
  for (word i = 0; i < 8; ++i) {
    if (!ReadUserWord(as_page, data_va + i * arm::kWordSize, &data[i])) {
      return {KomErr::kInvalidArgument, 0, false, 0};
    }
  }
  const crypto::DigestWords measurement = db_.AsMeasurement(as_page);
  // MAC over (measurement || enclave-provided data) — §4.
  crypto::HmacSha256Stream mac(db_.AttestKey());
  for (word w : measurement) {
    mac.UpdateWordLe(w);
  }
  for (word w : data) {
    mac.UpdateWordLe(w);
  }
  ops_.ChargeSha256Blocks(5);  // ipad + 1 message block + padding; opad + digest
  const crypto::DigestWords out = crypto::DigestToWords(mac.Finalize());
  for (word i = 0; i < 8; ++i) {
    if (!WriteUserWord(as_page, mac_out_va + i * arm::kWordSize, out[i])) {
      return {KomErr::kInvalidArgument, 0, false, 0};
    }
  }
  return {KomErr::kSuccess, 0, false, 0};
}

Monitor::SvcResult Monitor::SvcVerify(PageNr as_page, vaddr data_va, vaddr measure_va,
                                      vaddr mac_va) {
  word data[8];
  word measure[8];
  word mac_in[8];
  for (word i = 0; i < 8; ++i) {
    if (!ReadUserWord(as_page, data_va + i * arm::kWordSize, &data[i]) ||
        !ReadUserWord(as_page, measure_va + i * arm::kWordSize, &measure[i]) ||
        !ReadUserWord(as_page, mac_va + i * arm::kWordSize, &mac_in[i])) {
      return {KomErr::kInvalidArgument, 0, false, 0};
    }
  }
  crypto::HmacSha256Stream mac(db_.AttestKey());
  for (word w : measure) {
    mac.UpdateWordLe(w);
  }
  for (word w : data) {
    mac.UpdateWordLe(w);
  }
  ops_.ChargeSha256Blocks(5);
  const crypto::DigestWords expected = crypto::DigestToWords(mac.Finalize());
  // Constant-time comparison: the result must not depend on how many words
  // matched.
  word acc = 0;
  for (word i = 0; i < 8; ++i) {
    acc |= expected[i] ^ mac_in[i];
    ops_.ChargeAlu(2);
  }
  return {KomErr::kSuccess, acc == 0 ? 1u : 0u, false, 0};
}

Monitor::SvcResult Monitor::SvcInitL2Table(PageNr as_page, PageNr spare_page, word l1index) {
  if (!db_.ValidPageNr(spare_page) || db_.TypeOf(spare_page) != PageType::kSparePage ||
      db_.OwnerOf(spare_page) != as_page) {
    return {KomErr::kNotSpare, 0, false, 0};
  }
  const KomErr err = InstallL2Table(as_page, spare_page, l1index);
  if (err != KomErr::kSuccess) {
    return {err, 0, false, 0};
  }
  db_.SetType(spare_page, PageType::kL2PTable);
  return {KomErr::kSuccess, 0, false, 0};
}

Monitor::SvcResult Monitor::SvcMapData(PageNr as_page, PageNr spare_page, word mapping) {
  if (!db_.ValidPageNr(spare_page) || db_.TypeOf(spare_page) != PageType::kSparePage ||
      db_.OwnerOf(spare_page) != as_page) {
    return {KomErr::kNotSpare, 0, false, 0};
  }
  if (!MappingValid(mapping)) {
    return {KomErr::kInvalidMapping, 0, false, 0};
  }
  const paddr slot = L2SlotAddr(as_page, mapping);
  if (slot == 0) {
    return {KomErr::kPageTableMissing, 0, false, 0};
  }
  if (ops_.LoadPhys(slot) != arm::kL2FaultDesc) {
    return {KomErr::kAddrInUse, 0, false, 0};
  }
  // Dynamic data pages are zero-filled (§4): their contents are not part of
  // the measurement, so they must not carry stale state.
  ops_.ZeroPage(PagePaddr(spare_page));
  InstallMapping(as_page, mapping, PagePaddr(spare_page), /*ns=*/false);
  db_.SetType(spare_page, PageType::kDataPage);
  return {KomErr::kSuccess, 0, false, 0};
}

Monitor::SvcResult Monitor::SvcUnmapData(PageNr as_page, PageNr data_page, word mapping) {
  if (!db_.ValidPageNr(data_page) || db_.TypeOf(data_page) != PageType::kDataPage ||
      db_.OwnerOf(data_page) != as_page) {
    return {KomErr::kInvalidPageNo, 0, false, 0};
  }
  if (!MappingValid(mapping)) {
    return {KomErr::kInvalidMapping, 0, false, 0};
  }
  const paddr slot = L2SlotAddr(as_page, mapping);
  if (slot == 0) {
    return {KomErr::kPageTableMissing, 0, false, 0};
  }
  const word desc = ops_.LoadPhys(slot);
  if (!arm::IsL2SmallPageDesc(desc) || arm::L2DescPageBase(desc) != PagePaddr(data_page)) {
    return {KomErr::kInvalidMapping, 0, false, 0};
  }
  ops_.StorePhys(slot, arm::kL2FaultDesc);
  machine_.NoteTlbStale();
  db_.SetType(data_page, PageType::kSparePage);
  return {KomErr::kSuccess, 0, false, 0};
}

}  // namespace komodo
