// The Komodo monitor (§4): a reference monitor for enclave construction and
// execution, running in TrustZone secure/monitor modes over the hardware
// primitives of §3.2. Implements every SMC and SVC of Table 1, including the
// SGXv2-style dynamic memory management, measurement, and HMAC-based local
// attestation.
//
// Control-flow mirrors Figure 3: the OS traps in via SMC; Enter/Resume drop
// to secure user mode with MOVS-PC-LR semantics; enclave exceptions (SVC,
// interrupts, aborts, undefined instructions) land back in the monitor's
// handler state machine, which either services an SVC and resumes the
// enclave, or tears down and returns to the OS.
#ifndef SRC_CORE_MONITOR_H_
#define SRC_CORE_MONITOR_H_

#include <array>
#include <functional>
#include <optional>

#include "src/arm/execute.h"
#include "src/arm/machine.h"
#include "src/core/kom_defs.h"
#include "src/core/monitor_ops.h"
#include "src/core/pagedb.h"
#include "src/crypto/drbg.h"
#include "src/obs/trace.h"

namespace komodo {

class Monitor {
 public:
  struct Config {
    // Seed for the simulated hardware entropy source (§3.2). The attestation
    // key is derived from it at boot.
    uint64_t entropy_seed = 0x6b6f6d6f646f2121ull;
    // Interpreter step budget per enclave dispatch before the environment's
    // timer interrupt fires (models the OS tick).
    uint64_t max_enclave_steps = 50'000'000;
    // §8.1 ablations: the prototype "conservatively saves and restores every
    // non-volatile register" and "flushes the TLB although this could be
    // avoided for repeated invocation of the same enclave". Setting these
    // enables the optimisations the paper says it intends to verify.
    bool opt_skip_redundant_tlb_flush = false;
    bool opt_lazy_banked_regs = false;
  };

  // A user-execution engine: runs enclave code in user mode until an
  // exception is taken (which it must apply to the machine via
  // TakeException) and returns that exception. The default engine is the
  // A32 interpreter; the enclave runtime installs native programs here
  // (mirroring the paper's havoc model of user execution, §5.1).
  using UserRunner = std::function<arm::Exception(arm::MachineState&)>;

  explicit Monitor(arm::MachineState& m, const Config& config);
  explicit Monitor(arm::MachineState& m) : Monitor(m, Config{}) {}

  // Simulated secure boot (§7.2's bootloader): initialises the monitor
  // globals, marks every secure page free, derives and stores the
  // attestation key, and configures exception vector bases.
  void Boot();

  // Re-arms the monitor's C++-side state to match a machine that has just
  // been restored to its post-Boot() snapshot (MachineState::ResetTo): the
  // entropy source rewinds to its state right after Boot()'s key derivation,
  // the exception bookkeeping clears, and the per-monitor tracer resets its
  // ring/counters (keeping its enabled state). Everything else the monitor
  // "knows" — the PageDB, globals, attestation key — lives in simulated
  // monitor RAM and is already restored by the machine reset. Must only be
  // called after Boot().
  void ResetForReuse();

  // Entry from the SMC vector: the machine has just taken an SMC exception
  // from the OS with the call number in r0 and arguments in r1-r4. Handles
  // the call (possibly running enclave code) and performs the exception
  // return to normal world with r0 = error and r1 = value.
  void OnSmc();

  void SetUserRunner(UserRunner runner) { user_runner_ = std::move(runner); }

  const Config& config() const { return config_; }
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  // --- Registry-driven dispatch (src/core/call_table.*) -----------------------
  // One SMC as staged by OnSmc: call number from r0, arguments from r1-r4.
  struct CallCtx {
    word call = 0;
    std::array<word, 4> args{};
  };
  // Typed handler result; converted to the ABI encoding (r0 = ToWord(err),
  // r1 = val) only in the OnSmc epilogue.
  struct CallResult {
    KomErr err = KomErr::kSuccess;
    word val = 0;
  };
  // Uniform entry point for every Table 1 SMC: routes through the call
  // registry (call_table.cc) and attaches observability around the handler.
  // Public so tests and harnesses can drive individual calls without staging
  // machine registers, though the architectural path is OnSmc.
  CallResult Dispatch(const CallCtx& ctx);

  // One SVC from enclave code: call number from r0, arguments from r1-r3,
  // plus the current dispatcher/address-space context.
  struct SvcCtx {
    word call = 0;
    std::array<word, 3> args{};
    PageNr as_page = kInvalidPage;
  };
  // Return err/val written to the enclave's r0/r1; `exit_retval` is set when
  // the SVC ends enclave execution.
  struct SvcResult {
    KomErr err = KomErr::kSuccess;
    word val = 0;
    bool exits = false;
    word exit_retval = 0;
  };
  SvcResult DispatchSvc(const SvcCtx& ctx);

 private:

  // Registry-generated dispatch bodies (call_table.cc expands
  // call_list.inc); Dispatch/DispatchSvc wrap these with tracing.
  CallResult DispatchImpl(const CallCtx& ctx);
  SvcResult DispatchSvcImpl(const SvcCtx& ctx);
  // Records a tracer instant; takes no snapshot while tracing is off.
  void ObsInstant(obs::EventKind kind, word code, const char* name,
                  KomErr err = KomErr::kSuccess);

  // --- SMC handlers (Table 1, top half) ---------------------------------------
  CallResult SmcQuery();
  CallResult SmcGetPhysPages();
  CallResult SmcInitAddrspace(PageNr as_page, PageNr l1pt_page);
  CallResult SmcInitThread(PageNr as_page, PageNr disp_page, word entrypoint);
  CallResult SmcInitL2Table(PageNr as_page, PageNr l2pt_page, word l1index);
  CallResult SmcMapSecure(PageNr as_page, PageNr data_page, word mapping, word insecure_pgnr);
  CallResult SmcAllocSpare(PageNr as_page, PageNr spare_page);
  CallResult SmcMapInsecure(PageNr as_page, word mapping, word insecure_pgnr);
  CallResult SmcRemove(PageNr page);
  CallResult SmcFinalise(PageNr as_page);
  CallResult SmcEnter(PageNr disp_page, word arg1, word arg2, word arg3);
  CallResult SmcResume(PageNr disp_page);
  CallResult SmcStop(PageNr as_page);

  // --- SVC handlers (Table 1, bottom half) --------------------------------------
  // Stages the SvcCtx from the live user registers and dispatches it.
  SvcResult HandleSvc(PageNr as_page);
  SvcResult SvcExit(word retval);
  SvcResult SvcGetRandom();
  SvcResult SvcAttest(PageNr as_page, vaddr data_va, vaddr mac_out_va);
  SvcResult SvcVerify(PageNr as_page, vaddr data_va, vaddr measure_va, vaddr mac_va);
  SvcResult SvcInitL2Table(PageNr as_page, PageNr spare_page, word l1index);
  SvcResult SvcMapData(PageNr as_page, PageNr spare_page, word mapping);
  SvcResult SvcUnmapData(PageNr as_page, PageNr data_page, word mapping);

  // --- Enclave execution (Figure 3) -----------------------------------------------
  // Enter and Resume differ only in the entered-flag state they require and
  // in how they stage the user registers; the rest is written once.
  // Shared head: validates the dispatcher (Resume needs it entered, Enter
  // needs it not), sets `as_page`, saves the OS state and loads the enclave's
  // page table. Returns the call's error, if any.
  std::optional<KomErr> SwitchToEnclave(PageNr disp_page, bool resume, PageNr* as_page);
  // Shared tail: with the user state staged, marks the dispatcher current,
  // drops to user mode at `pc` and services the resulting exceptions until
  // control returns to the OS.
  CallResult RunEnclave(PageNr disp_page, PageNr as_page, word pc, bool resume);
  // Saves the interrupted enclave context into the dispatcher page.
  void SaveEnclaveContext(PageNr disp_page, word resume_pc, const arm::Psr& user_psr);
  // Restores r0-r12/sp/lr from the dispatcher page; returns the resume pc and
  // the saved user PSR via the out-parameters.
  void RestoreEnclaveContext(PageNr disp_page, word* resume_pc, arm::Psr* user_psr);
  // Common exit path from enclave execution back to monitor mode with the OS
  // state restored; the OnSmc epilogue then returns to normal world.
  CallResult TeardownToOs(KomErr err, word val);

  // --- Shared validation ------------------------------------------------------------
  // Checks that `as_page` is a valid address-space page in state kInit.
  std::optional<KomErr> CheckAddrspaceForInit(PageNr as_page);
  // Common L2-table installation used by both the SMC and SVC variants.
  KomErr InstallL2Table(PageNr as_page, PageNr l2pt_page, word l1index);
  // Common data-page mapping used by MapSecure and MapData. Writes the L2
  // descriptor; the caller has validated everything else.
  KomErr InstallMapping(PageNr as_page, word mapping, paddr target, bool ns);
  // Resolves the L2 descriptor slot for `mapping` in `as_page`'s table;
  // returns 0 on missing L2 table.
  paddr L2SlotAddr(PageNr as_page, word mapping);

  // Reads/writes a word in enclave user memory through its page table,
  // charging walk costs. Returns false on translation/permission failure.
  bool ReadUserWord(PageNr as_page, vaddr va, word* out);
  bool WriteUserWord(PageNr as_page, vaddr va, word value);

  // --- Monitor prologue/epilogue cycle accounting ------------------------------------
  void ChargeSmcPrologue();
  void ChargeSmcEpilogue();
  void SaveOsBankedState();
  void RestoreOsBankedState();

  arm::Exception RunUser();

  arm::MachineState& machine_;
  Config config_;
  MonitorOps ops_;
  PageDb db_;
  crypto::HashDrbg entropy_;
  // The entropy source as Boot() left it, captured so ResetForReuse can
  // rewind SvcGetRandom draws without replaying the boot key derivation.
  std::optional<crypto::HashDrbg> boot_entropy_;
  UserRunner user_runner_;
  // Per-monitor tracer/counters (DESIGN.md §9); env-activated, never charges
  // simulated cycles. Per-instance so concurrent Worlds trace independently.
  obs::Observability obs_;

  // OS return state while an enclave executes (the paper keeps this on the
  // monitor stack; we keep it in a frame in monitor RAM — see kFrameOffset).
  static constexpr word kFrameOffset = 0x800;

  // Bitmask (by arm::Exception value) of exceptions taken during the current
  // enclave execution — drives the lazy-banked-register ablation's slow path.
  word exceptions_seen_ = 0;
};

}  // namespace komodo

#endif  // SRC_CORE_MONITOR_H_
