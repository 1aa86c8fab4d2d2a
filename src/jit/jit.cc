// JIT engine: the executable code cache with generation-validated block
// lookup, and the dispatch entry the interpreter's RunUntilException loop
// calls.
#include "src/jit/jit.h"

#include <algorithm>
#include <cstring>

#include "src/arm/execute.h"
#include "src/arm/machine.h"
#include "src/jit/jit_internal.h"

#if defined(__x86_64__) && (defined(__linux__) || defined(__APPLE__))
#define KOMODO_JIT_HAVE_X64 1
#include <sys/mman.h>
#else
#define KOMODO_JIT_HAVE_X64 0
#endif

namespace komodo::jit {

bool Available() { return KOMODO_JIT_HAVE_X64 != 0; }

const arm::InterpCaches::TlbEntry kMissTlb[arm::InterpCaches::kTlbEntries] = {};

// Defined by scripts/pcsample when it is preloaded, and null otherwise: each
// region of the code buffer as it is written (the stubs once, with guest_va
// 0 and is_block 0, then every translated block), so that the sampler can
// attribute code-cache samples to guest blocks (EXPERIMENTS.md, "Tooling").
extern "C" void komodo_jit_code_region(const void* start, size_t bytes, uint64_t guest_va,
                                       int is_block) __attribute__((weak));

JitState::JitState() = default;

JitState::~JitState() = default;

void JitState::InvalidateAll() {
  if (engine_ != nullptr) {
    engine_->InvalidateAll();
  }
}

std::vector<ResidentBlock> JitState::ResidentBlocks() const {
  std::vector<ResidentBlock> out;
  if (engine_ == nullptr) {
    return out;
  }
  engine_->ForEachResident([&out](const BlockEntry& e) {
    out.push_back({e.phys, e.va, e.kind == BlockKind::kCompiled});
  });
  std::sort(out.begin(), out.end(), [](const ResidentBlock& a, const ResidentBlock& b) {
    if (a.phys != b.phys) return a.phys < b.phys;
    if (a.va != b.va) return a.va < b.va;
    return a.compiled < b.compiled;
  });
  return out;
}

Engine* JitState::GetEngine() {
  if (engine_ == nullptr) {
    engine_ = Engine::Create();
  }
  return engine_.get();
}

std::unique_ptr<Engine> Engine::Create() {
#if KOMODO_JIT_HAVE_X64
  void* p = mmap(nullptr, kCodeBytes, PROT_READ | PROT_WRITE | PROT_EXEC,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    return nullptr;
  }
  std::unique_ptr<Engine> eng(new Engine());
  eng->buf_ = static_cast<uint8_t*>(p);
  std::vector<uint8_t> stubs;
  size_t entry[kNumStubs];
  EmitStubs(stubs, entry);
  std::memcpy(eng->buf_, stubs.data(), stubs.size());
  for (int k = 0; k < kNumBlockStubs; ++k) {
    eng->rt_.stubs[k] = eng->buf_ + entry[k];
  }
  eng->enter_ = reinterpret_cast<EnterFn>(eng->buf_ + entry[kStubEnter]);
  // Blocks are written next to the stubs while the stubs run; keep them off
  // the stubs' cache lines.
  eng->stub_bytes_ = (stubs.size() + 63) & ~size_t{63};
  eng->used_ = eng->stub_bytes_;
  if (komodo_jit_code_region != nullptr) {
    komodo_jit_code_region(eng->buf_, stubs.size(), 0, 0);
  }
  return eng;
#else
  return nullptr;
#endif
}

Engine::~Engine() {
#if KOMODO_JIT_HAVE_X64
  if (buf_ != nullptr) {
    munmap(buf_, kCodeBytes);
  }
#endif
}

BlockEntry* Engine::LookupOrTranslate(const arm::MachineState& m, arm::paddr phys,
                                      arm::vaddr va, JitStats& st) {
  BlockEntry& e = table_[Slot(phys)];
  if (e.kind != BlockKind::kEmpty && e.epoch == epoch_ && e.phys == phys &&
      e.va == va) {
    if (m.mem.PageGenAt(e.gen_idx) == e.gen) {
      return &e;
    }
    ++st.block_invalidations;  // self-modifying code / page reuse
  }
  CompiledBlock cb = CompileBlock(m.mem, va, phys);
  e.phys = phys;
  e.va = va;
  e.epoch = epoch_;
  e.gen_idx = m.mem.PageIndexOf(phys);
  e.gen = m.mem.PageGenAt(e.gen_idx);
  if (cb.len_words == 0) {
    // Head instruction is outside the hot subset; cache that verdict so the
    // dispatcher declines in O(1) on repeats (e.g. a hot SVC loop).
    e.kind = BlockKind::kInterpretOne;
    e.len_words = 1;
    e.entry = nullptr;
    return &e;
  }
  if (used_ + cb.code.size() > kCodeBytes) {
    // Code buffer exhausted: orphan every block and start over after the
    // probe stubs, which stay.
    ++epoch_;
    e.epoch = epoch_;
    used_ = stub_bytes_;
    ++st.code_cache_flushes;
    if (stub_bytes_ + cb.code.size() > kCodeBytes) {
      e.kind = BlockKind::kEmpty;
      return nullptr;
    }
  }
  std::memcpy(buf_ + used_, cb.code.data(), cb.code.size());
  if (komodo_jit_code_region != nullptr) {
    komodo_jit_code_region(buf_ + used_, cb.code.size(), va, 1);
  }
  e.entry = buf_ + used_ + cb.entry;
  used_ += cb.code.size();
  e.kind = BlockKind::kCompiled;
  e.len_words = cb.len_words;
  ++st.blocks_translated;
  return &e;
}

void Engine::Link(const PendingLink& l, const BlockEntry& succ) {
  if (l.site == nullptr || l.epoch != epoch_ || succ.va != l.target ||
      arm::PageBase(succ.phys) != l.page) {
    return;
  }
  const int32_t rel = static_cast<int32_t>(succ.entry - (l.site + 5));
  l.site[0] = 0xe9;  // jmp rel32
  std::memcpy(l.site + 1, &rel, sizeof(rel));
}

RunOutcome TryRunBlock(arm::MachineState& m, uint64_t max_steps) {
  RunOutcome out;
  JitState& js = m.jit;
  JitStats& st = js.mutable_stats();
  Engine* eng = js.GetEngine();
  if (eng == nullptr) {
    // No executable mapping: the machine runs on the cached interpreter.
    m.SetExecMode(arm::ExecMode::kCached);
    ++st.fallback_steps;
    return out;
  }
  const Engine::PendingLink link = eng->TakePendingLink();
  // A deliverable interrupt preempts the fetch; let the interpreter take it.
  if ((m.pending_fiq && !m.cpsr.fiq_masked) ||
      (m.pending_irq && !m.cpsr.irq_masked)) {
    ++st.fallback_steps;
    return out;
  }
  const arm::word pc = m.pc;
  if (!arm::IsWordAligned(pc)) {
    ++st.fallback_steps;  // prefetch abort: interpreter path
    return out;
  }
  const arm::Translation fetch = arm::TranslateAddress(m, pc, arm::Access::kFetch);
  if (!fetch.ok) {
    ++st.fallback_steps;
    return out;
  }
  BlockEntry* e = eng->LookupOrTranslate(m, fetch.phys, pc, st);
  if (e == nullptr || e->kind != BlockKind::kCompiled) {
    ++st.fallback_steps;
    return out;
  }
  eng->Link(link, *e);
  if (e->len_words > max_steps) {
    ++st.fallback_steps;
    return out;
  }
  JitRt& rt = eng->rt();
  rt.m = &m;
  rt.code_gen = m.mem.page_gens() + e->gen_idx;
  rt.steps_left = max_steps;
  rt.entries = 0;
  rt.restart = 0;
  rt.exit_jump = nullptr;
  rt.ttbr0 = m.ttbr0;
  rt.gens = m.mem.page_gens();
  rt.code_gen_idx = e->gen_idx;
  // The probes may hit only where TranslateAddress would take the cached
  // secure-user walk; stores also need PhysMemory::Write's dirty tracking
  // off, since an inline store does not record its page. Chained blocks
  // share all of this: nothing a translated block does changes the mode,
  // the world, TTBR0 or dirty tracking, and a store that clears
  // tlb_consistent ends the block through the restart exit. A new stamp
  // orphans every pass the probes recorded in earlier runs.
  const arm::InterpCaches::TlbProbe tlb = m.interp.Probe();
  rt.load_tlb = kMissTlb;
  rt.store_tlb = kMissTlb;
  rt.tlb_hits = tlb.hits;
  rt.NewStamp();
  if (m.cpsr.mode == arm::Mode::kUser && m.CurrentWorld() == arm::World::kSecure &&
      m.tlb_consistent) {
    rt.load_tlb = tlb.entries;
    rt.store_tlb = m.mem.dirty_tracking() ? kMissTlb : tlb.entries;
    rt.tlb_epoch = tlb.epoch;
  }
  const uint64_t steps_before = m.steps_retired;
  const uint64_t code = eng->Enter(m, *e);
  out.ran = true;
  out.steps = m.steps_retired - steps_before;
  st.block_hits += rt.entries;
  st.chained += rt.entries - 1;
  st.jit_steps += out.steps;
  if ((code & kExitExceptionBit) != 0) {
    out.took_exception = true;
    out.exception = static_cast<arm::Exception>(code & 0xff);
  } else if (rt.exit_jump != nullptr) {
    // Every block of the run lay on the dispatched block's physical page,
    // and the unlinked stub set m.pc to the site's target.
    eng->NoteUnlinkedExit(rt.exit_jump, m.pc, arm::PageBase(e->phys));
  }
  return out;
}

}  // namespace komodo::jit
