// Monitor boot, SMC dispatch, and the enclave-construction /
// memory-management calls. The execution path (Enter/Resume/SVC) lives in
// monitor_exec.cc.
#include "src/core/monitor.h"

#include <cassert>

#include "src/arm/page_table.h"
#include "src/fuzz/inject.h"

namespace komodo {

using arm::MachineState;
using arm::Mode;
using arm::Reg;

Monitor::Monitor(MachineState& m, const Config& config)
    : machine_(m), config_(config), ops_(m), db_(ops_), entropy_(config.entropy_seed) {}

void Monitor::Boot() {
  // Monitor globals.
  machine_.mem.Write(arm::kMonitorBase + kGlobalNPages, machine_.mem.nsecure_pages());
  machine_.mem.Write(arm::kMonitorBase + kGlobalCurDispatcher, kInvalidPage);
  // Attestation key from the hardware entropy source (§4, Attestation).
  for (word i = 0; i < 8; ++i) {
    machine_.mem.Write(arm::kMonitorBase + kGlobalAttestKey + i * arm::kWordSize,
                       entropy_.NextWord());
  }
  // PageDB: every secure page starts free with no owner.
  for (PageNr n = 0; n < machine_.mem.nsecure_pages(); ++n) {
    machine_.mem.Write(arm::kMonitorBase + kPageDbOffset + n * kPageDbEntryWords * arm::kWordSize,
                       static_cast<word>(PageType::kFree));
    machine_.mem.Write(
        arm::kMonitorBase + kPageDbOffset + n * kPageDbEntryWords * arm::kWordSize + 4,
        kInvalidPage);
  }
  // Exception vector bases: the monitor's handlers live in its image, reached
  // through the secure direct map.
  machine_.vbar_monitor = arm::kDirectMapVbase + arm::kMonitorBase + 0xf000;
  machine_.vbar_secure = arm::kDirectMapVbase + arm::kMonitorBase + 0xf100;
  // Hand off to the normal-world OS (bootloader epilogue).
  machine_.cpsr.mode = Mode::kMonitor;
  machine_.SetScrNs(true);
  machine_.cpsr.mode = Mode::kSupervisor;
  machine_.cpsr.irq_masked = false;
  machine_.cycles.Reset();
  boot_entropy_ = entropy_;
}

void Monitor::ResetForReuse() {
  assert(boot_entropy_.has_value());
  entropy_ = *boot_entropy_;
  exceptions_seen_ = 0;
  obs_.Reset();
}

void Monitor::ChargeSmcPrologue() {
  // Push of the non-volatile registers the handlers may use (r5-r11; r0-r4
  // carry the call number and arguments) plus a stack frame and the
  // call-number dispatch chain. The prototype does this unconditionally, even
  // for trivial SMCs (§8.1).
  ops_.ChargeAlu(2);
  for (int i = 0; i < 7; ++i) {
    ops_.StorePhys(arm::kMonitorBase + kFrameOffset + 0x100 + i * 4, machine_.r[5 + i]);
  }
  // PSR/SCR bookkeeping on the way in (mrs spsr_mon, scr read, masks) and the
  // call-number dispatch chain of the inlined handler table.
  machine_.cycles.Charge(2 * arm::kCortexA7Costs.msr_mrs + 2 * arm::kCortexA7Costs.cp15_access);
  ops_.ChargeAlu(16);  // dispatch compare chain
}

void Monitor::ChargeSmcEpilogue() {
  for (int i = 0; i < 7; ++i) {
    machine_.r[5 + i] = ops_.LoadPhys(arm::kMonitorBase + kFrameOffset + 0x100 + i * 4);
  }
  // Zero the non-return volatile registers to avoid leaking monitor or
  // enclave state (the "other non-return registers are zeroed" invariant of
  // §5.2). Skippable under fault injection so the noninterference oracle can
  // be shown to catch the leak.
  if (!fuzz::Inject().skip_scratch_clear) {
    ops_.SetReg(Reg::R2, 0);
    ops_.SetReg(Reg::R3, 0);
    ops_.SetReg(Reg::R4, 0);
    ops_.SetReg(Reg::R12, 0);
  }
}

void Monitor::OnSmc() {
  assert(machine_.cpsr.mode == Mode::kMonitor);
  ChargeSmcPrologue();
  CallCtx ctx;
  ctx.call = ops_.GetReg(Reg::R0);
  ctx.args = {ops_.GetReg(Reg::R1), ops_.GetReg(Reg::R2), ops_.GetReg(Reg::R3),
              ops_.GetReg(Reg::R4)};

  // Per-call dispatch is table-driven (src/core/call_table.*); Dispatch also
  // attaches the tracer when enabled.
  const CallResult res = Dispatch(ctx);

  ChargeSmcEpilogue();
  ops_.SetReg(Reg::R0, ToWord(res.err));
  ops_.SetReg(Reg::R1, res.val);
  machine_.ExceptionReturn(machine_.lr_banked[static_cast<size_t>(Mode::kMonitor)]);
}

// --- Shared validation ---------------------------------------------------------

std::optional<KomErr> Monitor::CheckAddrspaceForInit(PageNr as_page) {
  if (!db_.ValidPageNr(as_page) || db_.TypeOf(as_page) != PageType::kAddrspace) {
    return KomErr::kInvalidAddrspace;
  }
  if (db_.AsState(as_page) != AddrspaceState::kInit) {
    return KomErr::kAlreadyFinal;
  }
  return std::nullopt;
}

paddr Monitor::L2SlotAddr(PageNr as_page, word mapping) {
  const vaddr va = MappingVa(mapping);
  const paddr l1pt = PagePaddr(db_.AsL1Pt(as_page));
  const word l1_index = va >> 20;
  ops_.ChargeAlu(2);
  const word l1_desc = ops_.LoadPhys(l1pt + l1_index * arm::kWordSize);
  if (!arm::IsL1PageTableDesc(l1_desc)) {
    return 0;
  }
  const paddr l2_table = arm::L1DescTableBase(l1_desc);
  ops_.ChargeAlu(2);
  return l2_table + ((va >> 12) & 0xff) * arm::kWordSize;
}

KomErr Monitor::InstallL2Table(PageNr as_page, PageNr l2pt_page, word l1index) {
  if (l1index >= arm::kL1Entries / arm::kL2TablesPerPage) {
    return KomErr::kInvalidMapping;
  }
  const paddr l1pt = PagePaddr(db_.AsL1Pt(as_page));
  // All four L1 slots this page will fill must be empty.
  for (word k = 0; k < arm::kL2TablesPerPage; ++k) {
    const word desc = ops_.LoadPhys(l1pt + (l1index * arm::kL2TablesPerPage + k) * arm::kWordSize);
    if (desc != arm::kL1FaultDesc) {
      return KomErr::kAddrInUse;
    }
  }
  // Zero the new table page, then install the four descriptors.
  ops_.ZeroPage(PagePaddr(l2pt_page));
  for (word k = 0; k < arm::kL2TablesPerPage; ++k) {
    ops_.StorePhys(l1pt + (l1index * arm::kL2TablesPerPage + k) * arm::kWordSize,
                   arm::MakeL1PageTableDesc(PagePaddr(l2pt_page) + k * arm::kL2TableBytes));
  }
  // If this is the live table, the TLB may now be stale.
  if (machine_.ttbr0 == l1pt) {
    machine_.NoteTlbStale();
  }
  return KomErr::kSuccess;
}

KomErr Monitor::InstallMapping(PageNr as_page, word mapping, paddr target, bool ns) {
  const paddr slot = L2SlotAddr(as_page, mapping);
  assert(slot != 0);  // caller validated the table exists
  const word perms = MappingPerms(mapping);
  ops_.StorePhys(slot, arm::MakeL2SmallPageDesc(target, (perms & kMapW) != 0,
                                                (perms & kMapX) != 0, ns));
  if (machine_.ttbr0 == PagePaddr(db_.AsL1Pt(as_page))) {
    machine_.NoteTlbStale();
  }
  return KomErr::kSuccess;
}

bool Monitor::ReadUserWord(PageNr as_page, vaddr va, word* out) {
  if (!arm::IsWordAligned(va)) {
    return false;
  }
  ops_.ChargeAlu(2);
  const paddr l1pt = PagePaddr(db_.AsL1Pt(as_page));
  ops_.ChargeAlu(2);  // walk address computation; descriptor loads charged below
  machine_.cycles.Charge(2 * arm::kCortexA7Costs.load);
  const arm::WalkResult w = arm::WalkPageTable(machine_.mem, l1pt, va);
  if (!w.ok || !w.user_read) {
    return false;
  }
  *out = ops_.LoadPhys(w.phys);
  return true;
}

bool Monitor::WriteUserWord(PageNr as_page, vaddr va, word value) {
  if (!arm::IsWordAligned(va)) {
    return false;
  }
  ops_.ChargeAlu(2);
  const paddr l1pt = PagePaddr(db_.AsL1Pt(as_page));
  machine_.cycles.Charge(2 * arm::kCortexA7Costs.load);
  const arm::WalkResult w = arm::WalkPageTable(machine_.mem, l1pt, va);
  if (!w.ok || !w.user_write) {
    return false;
  }
  ops_.StorePhys(w.phys, value);
  return true;
}

// --- SMC handlers -----------------------------------------------------------------

Monitor::CallResult Monitor::SmcQuery() { return {KomErr::kSuccess, kMagic}; }

Monitor::CallResult Monitor::SmcGetPhysPages() { return {KomErr::kSuccess, db_.NPages()}; }

Monitor::CallResult Monitor::SmcInitAddrspace(PageNr as_page, PageNr l1pt_page) {
  if (!db_.ValidPageNr(as_page) || !db_.ValidPageNr(l1pt_page)) {
    return {KomErr::kInvalidPageNo, 0};
  }
  // The two arguments naming the same page is exactly the bug the paper's
  // verification found in the unverified prototype (§9.1). The fuzz harness
  // can re-introduce the bug to prove the refinement oracle catches it.
  if (as_page == l1pt_page && !fuzz::Inject().initaddrspace_alias) {
    return {KomErr::kInvalidPageNo, 0};
  }
  if (!db_.IsFree(as_page) || !db_.IsFree(l1pt_page)) {
    return {KomErr::kPageInUse, 0};
  }

  // Zero the L1 table (all fault descriptors) and the address-space header.
  ops_.ZeroPage(PagePaddr(l1pt_page));
  db_.SetType(as_page, PageType::kAddrspace);
  db_.SetOwner(as_page, as_page);
  db_.SetType(l1pt_page, PageType::kL1PTable);
  db_.SetOwner(l1pt_page, as_page);
  db_.SetAsL1Pt(as_page, l1pt_page);
  db_.SetAsRefcount(as_page, 1);  // the L1 table
  db_.SetAsState(as_page, AddrspaceState::kInit);
  db_.StoreMeasurementStream(as_page, crypto::Sha256());
  db_.SetAsMeasurement(as_page, crypto::DigestWords{});
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcInitThread(PageNr as_page, PageNr disp_page, word entrypoint) {
  if (const auto err = CheckAddrspaceForInit(as_page)) {
    return {*err, 0};
  }
  if (!db_.ValidPageNr(disp_page)) {
    return {KomErr::kInvalidPageNo, 0};
  }
  if (!db_.IsFree(disp_page)) {
    return {KomErr::kPageInUse, 0};
  }
  db_.SetType(disp_page, PageType::kDispatcher);
  db_.SetOwner(disp_page, as_page);
  db_.SetDispEntered(disp_page, false);
  db_.SetDispEntrypoint(disp_page, entrypoint);
  db_.SetAsRefcount(as_page, db_.AsRefcount(as_page) + 1);
  // Measurement records the thread's entry point (§4, Attestation).
  crypto::Sha256 stream = db_.LoadMeasurementStream(as_page);
  stream.UpdateWordLe(kMeasureInitThread);
  stream.UpdateWordLe(entrypoint);
  ops_.ChargeSha256Blocks(1);
  db_.StoreMeasurementStream(as_page, stream);
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcInitL2Table(PageNr as_page, PageNr l2pt_page, word l1index) {
  if (const auto err = CheckAddrspaceForInit(as_page)) {
    return {*err, 0};
  }
  if (!db_.ValidPageNr(l2pt_page)) {
    return {KomErr::kInvalidPageNo, 0};
  }
  if (!db_.IsFree(l2pt_page)) {
    return {KomErr::kPageInUse, 0};
  }
  const KomErr err = InstallL2Table(as_page, l2pt_page, l1index);
  if (err != KomErr::kSuccess) {
    return {err, 0};
  }
  db_.SetType(l2pt_page, PageType::kL2PTable);
  db_.SetOwner(l2pt_page, as_page);
  db_.SetAsRefcount(as_page, db_.AsRefcount(as_page) + 1);
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcMapSecure(PageNr as_page, PageNr data_page, word mapping,
                                          word insecure_pgnr) {
  if (const auto err = CheckAddrspaceForInit(as_page)) {
    return {*err, 0};
  }
  if (!db_.ValidPageNr(data_page)) {
    return {KomErr::kInvalidPageNo, 0};
  }
  if (!db_.IsFree(data_page)) {
    return {KomErr::kPageInUse, 0};
  }
  if (!MappingValid(mapping)) {
    return {KomErr::kInvalidMapping, 0};
  }
  // The source of the initial contents must be genuinely insecure memory —
  // not the monitor image nor a secure page (§9.1's second bug class).
  if (!arm::IsInsecurePage(machine_.mem, insecure_pgnr)) {
    return {KomErr::kInvalidArgument, 0};
  }
  const paddr src = insecure_pgnr * arm::kPageSize;
  const paddr slot = L2SlotAddr(as_page, mapping);
  if (slot == 0) {
    return {KomErr::kPageTableMissing, 0};
  }
  if (ops_.LoadPhys(slot) != arm::kL2FaultDesc) {
    return {KomErr::kAddrInUse, 0};
  }

  // Copy the initial contents into the secure page.
  ops_.CopyPage(PagePaddr(data_page), src);
  InstallMapping(as_page, mapping, PagePaddr(data_page), /*ns=*/false);
  db_.SetType(data_page, PageType::kDataPage);
  db_.SetOwner(data_page, as_page);
  db_.SetAsRefcount(as_page, db_.AsRefcount(as_page) + 1);

  // Measure (opcode, mapping, contents) — §4.
  crypto::Sha256 stream = db_.LoadMeasurementStream(as_page);
  stream.UpdateWordLe(kMeasureMapSecure);
  stream.UpdateWordLe(mapping);
  uint8_t page_bytes[arm::kPageSize];
  machine_.mem.ReadPageBytes(PagePaddr(data_page), page_bytes);
  stream.Update(page_bytes, sizeof(page_bytes));
  ops_.ChargeSha256Blocks(arm::kPageSize / crypto::kSha256BlockBytes + 1);
  db_.StoreMeasurementStream(as_page, stream);
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcAllocSpare(PageNr as_page, PageNr spare_page) {
  if (!db_.ValidPageNr(as_page) || db_.TypeOf(as_page) != PageType::kAddrspace) {
    return {KomErr::kInvalidAddrspace, 0};
  }
  if (db_.AsState(as_page) == AddrspaceState::kStopped) {
    return {KomErr::kInvalidAddrspace, 0};
  }
  if (!db_.ValidPageNr(spare_page)) {
    return {KomErr::kInvalidPageNo, 0};
  }
  if (!db_.IsFree(spare_page)) {
    return {KomErr::kPageInUse, 0};
  }
  db_.SetType(spare_page, PageType::kSparePage);
  db_.SetOwner(spare_page, as_page);
  db_.SetAsRefcount(as_page, db_.AsRefcount(as_page) + 1);
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcMapInsecure(PageNr as_page, word mapping, word insecure_pgnr) {
  if (const auto err = CheckAddrspaceForInit(as_page)) {
    return {*err, 0};
  }
  if (!MappingValid(mapping)) {
    return {KomErr::kInvalidMapping, 0};
  }
  if (!arm::IsInsecurePage(machine_.mem, insecure_pgnr)) {
    return {KomErr::kInvalidArgument, 0};
  }
  const paddr target = insecure_pgnr * arm::kPageSize;
  // Insecure pages must never be executable inside an enclave: the OS could
  // change their contents after measurement.
  if ((MappingPerms(mapping) & kMapX) != 0) {
    return {KomErr::kInvalidMapping, 0};
  }
  const paddr slot = L2SlotAddr(as_page, mapping);
  if (slot == 0) {
    return {KomErr::kPageTableMissing, 0};
  }
  if (ops_.LoadPhys(slot) != arm::kL2FaultDesc) {
    return {KomErr::kAddrInUse, 0};
  }
  InstallMapping(as_page, mapping, target, /*ns=*/true);
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcRemove(PageNr page) {
  if (!db_.ValidPageNr(page)) {
    return {KomErr::kInvalidPageNo, 0};
  }
  const PageType type = db_.TypeOf(page);
  if (type == PageType::kFree) {
    return {KomErr::kSuccess, 0};
  }
  if (type == PageType::kAddrspace) {
    if (db_.AsRefcount(page) != 0 && !fuzz::Inject().remove_skip_refcount) {
      return {KomErr::kPageInUse, 0};
    }
  } else {
    const PageNr owner = db_.OwnerOf(page);
    // Spare pages may be reclaimed from a live enclave (§4, Dynamic
    // allocation); anything else requires the enclave to be stopped.
    if (type != PageType::kSparePage && db_.AsState(owner) != AddrspaceState::kStopped) {
      return {KomErr::kNotStopped, 0};
    }
    db_.SetAsRefcount(owner, db_.AsRefcount(owner) - 1);
  }
  // Scrub contents before the page can be reallocated.
  ops_.ZeroPage(PagePaddr(page));
  db_.SetType(page, PageType::kFree);
  db_.SetOwner(page, kInvalidPage);
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcFinalise(PageNr as_page) {
  if (const auto err = CheckAddrspaceForInit(as_page)) {
    return {*err, 0};
  }
  crypto::Sha256 stream = db_.LoadMeasurementStream(as_page);
  ops_.ChargeSha256Blocks(2);  // padding + length block
  const crypto::Digest digest = stream.Finalize();
  db_.SetAsMeasurement(as_page, crypto::DigestToWords(digest));
  db_.SetAsState(as_page, AddrspaceState::kFinal);
  return {KomErr::kSuccess, 0};
}

Monitor::CallResult Monitor::SmcStop(PageNr as_page) {
  if (!db_.ValidPageNr(as_page) || db_.TypeOf(as_page) != PageType::kAddrspace) {
    return {KomErr::kInvalidAddrspace, 0};
  }
  db_.SetAsState(as_page, AddrspaceState::kStopped);
  return {KomErr::kSuccess, 0};
}

}  // namespace komodo
