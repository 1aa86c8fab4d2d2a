// Internals shared by the block compiler, the runtime helpers the emitted
// code calls back into, and the engine (code cache + dispatch). Not part of
// the public JIT surface.
#ifndef SRC_JIT_JIT_INTERNAL_H_
#define SRC_JIT_JIT_INTERNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/arm/machine.h"
#include "src/jit/jit.h"

namespace komodo::jit {

// --- Guest-state offsets ------------------------------------------------------
// Translated code addresses MachineState fields directly as [rbx + disp].
// MachineState is not standard-layout (PhysMemory holds vectors), but GCC and
// Clang implement offsetof for it; silence the conditionally-supported
// warning locally.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
inline constexpr int32_t kOffR = offsetof(arm::MachineState, r);
inline constexpr int32_t kOffPc = offsetof(arm::MachineState, pc);
inline constexpr int32_t kOffCpsr = offsetof(arm::MachineState, cpsr);
inline constexpr int32_t kOffSpBank = offsetof(arm::MachineState, sp_banked);
inline constexpr int32_t kOffLrBank = offsetof(arm::MachineState, lr_banked);
inline constexpr int32_t kOffCycles = offsetof(arm::MachineState, cycles);
inline constexpr int32_t kOffSteps = offsetof(arm::MachineState, steps_retired);
#pragma GCC diagnostic pop

inline constexpr int32_t kOffFlagN = kOffCpsr + offsetof(arm::Psr, n);
inline constexpr int32_t kOffFlagZ = kOffCpsr + offsetof(arm::Psr, z);
inline constexpr int32_t kOffFlagC = kOffCpsr + offsetof(arm::Psr, c);
inline constexpr int32_t kOffFlagV = kOffCpsr + offsetof(arm::Psr, v);
inline constexpr int32_t kOffMode = kOffCpsr + offsetof(arm::Psr, mode);

// The emitted code treats the cycle counter as a raw uint64 at kOffCycles and
// the flag fields as raw bytes holding 0/1.
static_assert(sizeof(arm::CycleCounter) == sizeof(uint64_t),
              "CycleCounter must be a bare uint64 for JIT cycle charges");
static_assert(sizeof(bool) == 1, "Psr flags must be single bytes");
static_assert(sizeof(arm::Mode) == 1, "Mode must be byte-indexable");
static_assert(sizeof(arm::word) == 4, "guest registers must be 32-bit");

// --- Block-call ABI -----------------------------------------------------------
// TryRunBlock enters translated code through the enter stub,
// `uint64_t enter(MachineState* m /*rdi*/, JitRt* rt /*rsi*/, entry /*rdx*/)`,
// which pushes the callee-saved registers, moves m -> rbx and rt + kRtBias ->
// rbp, zeroes r15 and jumps to the block's entry point. Every block runs in
// that one frame, so a block leaves it through the exit stubs (a jump, no
// epilogue of its own), and a chained transfer (DESIGN.md §13) jumps straight
// into the next block's entry point. Return value: 0 = block done (m->pc
// set), 0x100 | exc = exception taken (TakeException already applied by a
// runtime helper); a helper's restart exit returns kExitRestart.
//
// Memory accesses first call a probe stub through the JitRt (`call [rbp +
// disp8]`, 3 bytes): in esi the guest VA; out in rax the host address of the
// byte or word with ZF clear, or rax = 0 with ZF set when the access must
// take the runtime helper (a micro-TLB miss, a fault, or a store that needs
// NoteStore, a restart check or its page put on the dirty list). Besides rax
// the stubs clobber only rdi, and they keep rsi, so a miss hands the VA on to
// the helper unchanged. They count each hit in r15, which the exit stubs add
// to InterpCacheStats::tlb_hits.
//
// A helper is called through a call stub of its own (`call [rbp + disp8]`)
// with the VA in esi, a store's value in edi and the helper site (below) in
// rax. The stub keeps every register but rax and rdi, so the guest registers
// a block caches in host registers survive the call. When the helper leaves
// the block (an exception, or a restart), the stub does not return: it
// drops its return address and takes the exit itself.

// The stubs at the head of the code buffer, written once per engine.
// Blocks reach the first kNumBlockStubs through JitRt::stubs, in this order.
// Word probes fault-check alignment (a miss that the helper turns into the
// data abort); byte probes do not need to. Each probe's helper call stub is
// kCallFirst places after it.
enum StubKind : int {
  kProbeLoadWord,
  kProbeLoadByte,
  kProbeStoreWord,
  kProbeStoreByte,
  kCallLoadWord,
  kCallLoadByte,
  kCallStoreWord,
  kCallStoreByte,
  kCallDataAbort,  // an LDM/STM's misaligned lowest address
  kStubExit,       // returns 0 (m->pc is set)
  kStubUnlinked,   // an unlinked chain site: sets m->pc, reports the site
  kNumBlockStubs,
  kStubEnter = kNumBlockStubs,  // TryRunBlock's way in, not a block's
  kNumStubs,
};
inline constexpr int kCallFirst = kCallLoadWord - kProbeLoadWord;

// A chain site is an exit to a static target on the block's own page:
//   call [rbp + stubs[kStubUnlinked]]   3 bytes
//   jmp [rbp + stubs[kStubExit]]        3 bytes
//   .word target_va                     4 bytes, never executed
// The unlinked stub writes the target to m->pc, records its return address
// (the exit jump) in JitRt::exit_jump and returns there. Once the
// dispatcher has looked the target up, it overwrites the site's first five
// bytes with `jmp rel32` to the successor's entry point.
inline constexpr int32_t kChainCallBytes = 3;
inline constexpr int32_t kChainTargetOff = 6;  // of the target word in the site

// A helper site: the accessing instruction's address, whether a store that
// flags a restart ends the block at once (a single STR; an STM completes
// first and checks JitRt::restart itself), and the steps and cycles the
// block owes at the access, which the helper charges before it takes an
// exception or a restart exit. Word-aligned addresses leave bit 0 free.
inline constexpr uint64_t kSiteExitOnRestart = 1;

inline constexpr uint64_t PackSite(uint32_t insn_addr, bool exit_on_restart, uint64_t steps,
                                   uint64_t cycles) {
  return insn_addr | (exit_on_restart ? kSiteExitOnRestart : 0) | (steps << 32) |
         (cycles << 48);
}
inline constexpr uint32_t SiteInsnAddr(uint64_t site) {
  return static_cast<uint32_t>(site) & ~static_cast<uint32_t>(kSiteExitOnRestart);
}
inline constexpr bool SiteExitsOnRestart(uint64_t site) {
  return (site & kSiteExitOnRestart) != 0;
}
inline constexpr uint64_t SiteSteps(uint64_t site) { return (site >> 32) & 0xffff; }
inline constexpr uint64_t SiteCycles(uint64_t site) { return site >> 48; }

// The micro-TLB slot record of the probes' once-per-run validation
// (DESIGN.md §13). A probe that finds the slot's key equal to
// JitRt::stamp_key | vpn serves the access from host_bias alone; otherwise
// it applies TlbWalk's full hit rule to the micro-TLB entry and, if the
// access may hit, records the key. Within one stamp every recorded key
// names the one entry the slot then holds, so the load and store sides
// share host_bias.
struct ProbeSlot {
  uint64_t load_key;
  uint64_t store_key;
  uint64_t host_bias;  // the page's host address minus its VA: host byte = bias + va
  uint32_t* gen;       // the page's generation, which an inline store bumps
};
static_assert(sizeof(ProbeSlot) == 32, "the probe stubs scale the slot index by 32");

struct JitRt {
  // Read by block code through rbp = this + kRtBias, so each within an 8-bit
  // displacement of rbp.
  const uint8_t* stubs[kNumBlockStubs];
  uint32_t* code_gen;      // generation of the running code page (gens + code_gen_idx)
  uint64_t steps_left;     // step budget: each block entry subtracts its length
  uint64_t entries;        // blocks entered, the dispatched one included
  uint32_t block_phys_lo;  // physical range of the running block's code words:
  uint32_t block_phys_hi;  // a store landing here must end the block (the
                           // remaining translated tail is stale)
  uint32_t restart;        // set by store helpers: exit after this instruction
  uint32_t ttbr0;          // the TTBR0 a probe hit must have been walked under
  // Probe inputs (DESIGN.md §13). tlb is the live micro-TLB only when
  // TranslateAddress would take its cached secure-user walk, and otherwise
  // kMissTlb, on which every probe misses.
  const arm::InterpCaches::TlbEntry* tlb;
  uint64_t tlb_epoch;
  uint32_t* gens;         // PhysMemory's page generations
  // PhysMemory's dirty map: a store probe hits only a page already on the
  // dirty list, since an inline store does not list its page.
  const uint8_t* dirty;
  uint64_t* tlb_hits;     // InterpCacheStats::tlb_hits, which the exit stubs add r15 to
  size_t code_gen_idx;    // generation index of the running block's code page
  uint8_t* exit_jump;     // set by the unlinked stub: its site's exit jump
  arm::MachineState* m;
  // The current stamp, in the bits above every VPN. A new one orphans every
  // recorded key at once: at each dispatch, and in every runtime helper,
  // since a fill or a store there can change what a slot holds.
  uint64_t stamp_key;
  ProbeSlot probe[arm::InterpCaches::kTlbEntries];

  void NewStamp() {
    stamp_key += kStampUnit;
    if (stamp_key == 0) {  // 2^44 stamps later: let no old key match again
      for (ProbeSlot& p : probe) {
        p.load_key = p.store_key = 0;
      }
      stamp_key = kStampUnit;
    }
  }
  static constexpr uint64_t kStampUnit = uint64_t{1} << 20;  // VPNs are 20 bits
};

// A micro-TLB on which every probe misses: an empty entry's vpn (kNoTag) is
// not the page number of any 32-bit address.
extern const arm::InterpCaches::TlbEntry kMissTlb[arm::InterpCaches::kTlbEntries];

// rbp points this far into the JitRt, so that 8-bit displacements reach the
// 256 bytes around it; emitted code addresses a field at RtDisp(its offset).
inline constexpr int32_t kRtBias = 128;
inline constexpr int32_t RtDisp(size_t offset) {
  return static_cast<int32_t>(offset) - kRtBias;
}

inline constexpr int32_t kRtOffCodeGen = RtDisp(offsetof(JitRt, code_gen));
inline constexpr int32_t kRtOffStepsLeft = RtDisp(offsetof(JitRt, steps_left));
inline constexpr int32_t kRtOffEntries = RtDisp(offsetof(JitRt, entries));
inline constexpr int32_t kRtOffBlockPhysLo = RtDisp(offsetof(JitRt, block_phys_lo));
inline constexpr int32_t kRtOffBlockPhysHi = RtDisp(offsetof(JitRt, block_phys_hi));
inline constexpr int32_t kRtOffRestart = RtDisp(offsetof(JitRt, restart));
inline constexpr int32_t kRtOffTtbr0 = RtDisp(offsetof(JitRt, ttbr0));
inline constexpr int32_t kRtOffTlb = RtDisp(offsetof(JitRt, tlb));
inline constexpr int32_t kRtOffTlbEpoch = RtDisp(offsetof(JitRt, tlb_epoch));
inline constexpr int32_t kRtOffGens = RtDisp(offsetof(JitRt, gens));
inline constexpr int32_t kRtOffDirty = RtDisp(offsetof(JitRt, dirty));
inline constexpr int32_t kRtOffTlbHits = RtDisp(offsetof(JitRt, tlb_hits));
inline constexpr int32_t kRtOffCodeGenIdx = RtDisp(offsetof(JitRt, code_gen_idx));
inline constexpr int32_t kRtOffExitJump = RtDisp(offsetof(JitRt, exit_jump));
inline constexpr int32_t kRtOffStampKey = RtDisp(offsetof(JitRt, stamp_key));
inline constexpr int32_t kRtOffProbe = RtDisp(offsetof(JitRt, probe));

inline constexpr int32_t StubOff(StubKind k) { return RtDisp(offsetof(JitRt, stubs)) + 8 * k; }

static_assert(StubOff(kProbeLoadWord) >= -128 && kRtOffRestart <= 127,
              "block code reaches JitRt with 8-bit displacements");

inline constexpr uint64_t kExitExceptionBit = 0x100;
inline constexpr uint64_t kExitRestart = 0x200;

using EnterFn = uint64_t (*)(arm::MachineState*, JitRt*, const uint8_t* entry);

// Runtime helpers the call stubs call (System V ABI). Each returns
// (status << 32) | value: status 0 = ok, else the block's exit code, after
// the helper has charged the site's owed steps and cycles — 0x100 | exception
// (already taken against the machine, with the architecturally preferred
// return address for the site's instruction), or kExitRestart (m->pc set
// past a single STR whose store flagged a restart). Every helper starts a
// new probe stamp. Store helpers apply the live-page-table TLB side effect
// and set rt->restart when the block must not continue.
extern "C" uint64_t komodo_jit_load_word(JitRt* rt, uint32_t va, uint64_t site);
extern "C" uint64_t komodo_jit_load_byte(JitRt* rt, uint32_t va, uint64_t site);
extern "C" uint64_t komodo_jit_store_word(JitRt* rt, uint32_t va, uint32_t value,
                                          uint64_t site);
extern "C" uint64_t komodo_jit_store_byte(JitRt* rt, uint32_t va, uint32_t value,
                                          uint64_t site);
// Takes the data abort of an LDM/STM's misaligned lowest address.
extern "C" uint64_t komodo_jit_data_abort(JitRt* rt, uint64_t site);

// --- Block compiler -----------------------------------------------------------

// A compiled basic block: x64 bytes, the offset of its entry point in them,
// and how many A32 words it covers. len_words == 0 means the instruction at
// the head is outside the hot subset (the engine caches that verdict as a
// kInterpretOne entry).
struct CompiledBlock {
  std::vector<uint8_t> code;
  size_t entry = 0;
  uint32_t len_words = 0;
};

// Emits the stubs into `out` (once per engine, DESIGN.md §13) and records
// each entry point's offset in `entry`, in StubKind order.
void EmitStubs(std::vector<uint8_t>& out, size_t entry[kNumStubs]);

inline constexpr uint32_t kMaxBlockInsns = 64;

// Decodes and translates the straight-line block starting at phys/va. Reads
// code words directly from memory; never crosses a page boundary. The entry
// point checks the code page's generation against the one read here.
CompiledBlock CompileBlock(const arm::PhysMemory& mem, arm::vaddr va, arm::paddr phys);

// --- Engine (code cache) ------------------------------------------------------

enum class BlockKind : uint8_t { kEmpty = 0, kCompiled, kInterpretOne };

struct BlockEntry {
  arm::paddr phys = 0;
  arm::vaddr va = 0;  // blocks embed va-derived constants, so the key is both
  uint64_t epoch = 0;
  size_t gen_idx = arm::PhysMemory::kNoPage;
  uint32_t gen = 0;
  uint32_t len_words = 0;
  BlockKind kind = BlockKind::kEmpty;
  const uint8_t* entry = nullptr;  // entry point, for the enter stub and links
};

class Engine {
 public:
  static constexpr unsigned kTableBits = 12;
  static constexpr size_t kTableEntries = size_t{1} << kTableBits;
  static constexpr size_t kCodeBytes = 2 * 1024 * 1024;

  // nullptr if the executable mapping cannot be created.
  static std::unique_ptr<Engine> Create();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Valid entry for (phys, va) — translating on miss or generation staleness.
  // Returns nullptr only if translation cannot be stored (cache thrash).
  BlockEntry* LookupOrTranslate(const arm::MachineState& m, arm::paddr phys,
                                arm::vaddr va, JitStats& st);

  void InvalidateAll() { ++epoch_; }

  // Table slot of the block at `phys`: a multiplicative (Fibonacci) hash of
  // the word address. Block addresses are not uniform in their low bits —
  // every catalog enclave's entry block sits at offset 0 of its code page —
  // so a `(phys >> 2) & (kTableEntries - 1)` index repeats every 16 kB and
  // makes resident enclaves evict each other's entry blocks. The multiply
  // folds the page-number bits into the top bits the index keeps.
  static size_t Slot(arm::paddr phys) {
    return static_cast<uint32_t>((phys >> 2) * 0x9e37'79b1u) >> (32 - kTableBits);
  }

  // The runtime block the dispatcher fills in before each Enter; its stub
  // pointers are set once, at creation.
  JitRt& rt() { return rt_; }
  // Runs translated code from `e`'s entry point, and from there along any
  // chained transfers, until a block leaves through an exit stub.
  uint64_t Enter(arm::MachineState& m, const BlockEntry& e) {
    return enter_(&m, &rt_, e.entry);
  }

  // Lazy linking (DESIGN.md §13). After an Enter that left through an
  // unlinked chain site, the dispatcher notes the site with the physical
  // code page it ran on; the next dispatch takes the note and, once it has
  // looked up the block at m->pc, links the site to that block if
  //   - no flush or InvalidateAll has happened since (the epoch is the one
  //     noted), so the site's bytes still belong to the block that exited,
  //   - the block (compiled code) is the one at the site's target VA, and
  //   - it lies on the same physical page as the exiting block: between two
  //     runs the host may have remapped the virtual page.
  // Link reads nothing at the site before the epoch check: after a flush
  // its bytes may hold another block's code.
  struct PendingLink {
    uint8_t* site = nullptr;
    arm::vaddr target = 0;
    uint64_t epoch = 0;
    arm::paddr page = 0;
  };
  void NoteUnlinkedExit(uint8_t* exit_jump, arm::vaddr target, arm::paddr page) {
    pending_ = {exit_jump - kChainCallBytes, target, epoch_, page};
  }
  PendingLink TakePendingLink() {
    const PendingLink l = pending_;
    pending_ = {};
    return l;
  }
  void Link(const PendingLink& l, const BlockEntry& succ);

  // Code-buffer bytes left before the next translation flushes, for tests
  // that need a flush at a chosen translation.
  size_t free_bytes() const { return kCodeBytes - used_; }

  // Visits every live (current-epoch) table entry, in table order.
  template <typename Fn>
  void ForEachResident(Fn&& fn) const {
    for (const BlockEntry& e : table_) {
      if (e.kind != BlockKind::kEmpty && e.epoch == epoch_) {
        fn(e);
      }
    }
  }

 private:
  Engine() = default;

  uint8_t* buf_ = nullptr;
  // The stubs occupy buf_[0, stub_bytes_); a flush reclaims the rest.
  size_t stub_bytes_ = 0;
  size_t used_ = 0;
  EnterFn enter_ = nullptr;
  JitRt rt_{};
  PendingLink pending_;
  uint64_t epoch_ = 1;
  std::array<BlockEntry, kTableEntries> table_{};
};

}  // namespace komodo::jit

#endif  // SRC_JIT_JIT_INTERNAL_H_
