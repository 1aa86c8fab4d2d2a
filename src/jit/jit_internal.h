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
// Blocks are `uint64_t fn(MachineState* m /*rdi*/, JitRt* rt /*rsi*/)`.
// Prologue moves m -> rbx, rt -> rbp (both callee-saved); r12d/r13d/r14d are
// LDM/STM scratch. Return value: 0 = block done (m->pc set), 0x100 | exc =
// exception taken (TakeException already applied by a runtime helper).
//
// Memory accesses first call a probe stub through the JitRt (`call [rbp +
// disp8]`, 3 bytes): in esi the guest VA; out in rax the host address of the
// byte or word, or 0 when the access must take the runtime helper (a
// micro-TLB miss, a fault, or a store that needs NoteStore or a restart
// check). The stubs clobber rcx, rdx and rdi and keep rsi, so a miss hands
// the VA on to the helper unchanged.
struct JitRt {
  arm::MachineState* m;
  uint32_t block_phys_lo;  // physical range of the block's own code words:
  uint32_t block_phys_hi;  // a store landing here must end the block (the
                           // remaining translated tail is stale)
  uint32_t restart;        // set by store helpers: exit after this instruction
  uint32_t ttbr0;          // the TTBR0 a probe hit must have been walked under
  // Probe inputs (DESIGN.md §13). load_tlb is the live micro-TLB only when
  // TranslateAddress would take its cached secure-user walk, store_tlb only
  // when, in addition, a store may skip PhysMemory::Write's dirty tracking;
  // otherwise each is kMissTlb, on which every probe misses.
  const arm::InterpCaches::TlbEntry* load_tlb;
  const arm::InterpCaches::TlbEntry* store_tlb;
  uint64_t tlb_epoch;
  uint32_t* gens;         // PhysMemory's page generations
  uint64_t* tlb_hits;     // InterpCacheStats::tlb_hits
  size_t code_gen_idx;    // generation index of the running block's code page
  // Probe entry points, in ProbeKind order.
  const uint8_t* probes[4];
};

// The four probe entry points. Word probes fault-check alignment (a miss
// that the helper turns into the data abort); byte probes do not need to.
enum ProbeKind : int { kProbeLoadWord, kProbeLoadByte, kProbeStoreWord, kProbeStoreByte };

// A micro-TLB on which every probe misses: an empty entry's vpn (kNoTag) is
// not the page number of any 32-bit address.
extern const arm::InterpCaches::TlbEntry kMissTlb[arm::InterpCaches::kTlbEntries];

inline constexpr int32_t kRtOffRestart = offsetof(JitRt, restart);
inline constexpr int32_t kRtOffTtbr0 = offsetof(JitRt, ttbr0);
inline constexpr int32_t kRtOffLoadTlb = offsetof(JitRt, load_tlb);
inline constexpr int32_t kRtOffStoreTlb = offsetof(JitRt, store_tlb);
inline constexpr int32_t kRtOffTlbEpoch = offsetof(JitRt, tlb_epoch);
inline constexpr int32_t kRtOffGens = offsetof(JitRt, gens);
inline constexpr int32_t kRtOffTlbHits = offsetof(JitRt, tlb_hits);
inline constexpr int32_t kRtOffCodeGenIdx = offsetof(JitRt, code_gen_idx);
inline constexpr int32_t kRtOffProbes = offsetof(JitRt, probes);

static_assert(kRtOffProbes + 8 * kProbeStoreByte <= 127, "probe calls fit a disp8 operand");

inline constexpr uint64_t kExitExceptionBit = 0x100;

using BlockFn = uint64_t (*)(arm::MachineState*, JitRt*);

// Runtime helpers the emitted code calls (System V ABI). Each returns
// (status << 32) | value, status 0 = ok, else 0x100 | exception (already
// taken against the machine, with the architecturally preferred return
// address for `insn_addr`). Store helpers apply the live-page-table TLB
// side effect and set rt->restart when the block must not continue.
extern "C" uint64_t komodo_jit_load_word(JitRt* rt, uint32_t va, uint32_t insn_addr);
extern "C" uint64_t komodo_jit_store_word(JitRt* rt, uint32_t va, uint32_t value,
                                          uint32_t insn_addr);
extern "C" uint64_t komodo_jit_load_byte(JitRt* rt, uint32_t va, uint32_t insn_addr);
extern "C" uint64_t komodo_jit_store_byte(JitRt* rt, uint32_t va, uint32_t value,
                                          uint32_t insn_addr);
// Takes `exception` with the preferred return address and returns status<<32.
extern "C" uint64_t komodo_jit_fault(JitRt* rt, uint32_t exception, uint32_t insn_addr);

// --- Block compiler -----------------------------------------------------------

// A compiled basic block: x64 bytes plus how many A32 words it covers.
// len_words == 0 means the instruction at the head is outside the hot subset
// (the engine caches that verdict as a kInterpretOne entry).
struct CompiledBlock {
  std::vector<uint8_t> code;
  uint32_t len_words = 0;
};

// Emits the probe stubs into `out` (once per engine, DESIGN.md §13) and
// records each entry point's offset in `entry`, in ProbeKind order.
void EmitProbeStubs(std::vector<uint8_t>& out, size_t entry[4]);

inline constexpr uint32_t kMaxBlockInsns = 64;

// Decodes and translates the straight-line block starting at phys/va. Reads
// code words directly from memory; never crosses a page boundary.
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
  BlockFn fn = nullptr;
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

  // Probe entry points (ProbeKind order), at the head of the code buffer.
  const uint8_t* probe(int kind) const { return probes_[kind]; }

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
  // The probe stubs occupy buf_[0, stub_bytes_); a flush reclaims the rest.
  size_t stub_bytes_ = 0;
  size_t used_ = 0;
  const uint8_t* probes_[4] = {};
  uint64_t epoch_ = 1;
  std::array<BlockEntry, kTableEntries> table_{};
};

}  // namespace komodo::jit

#endif  // SRC_JIT_JIT_INTERNAL_H_
