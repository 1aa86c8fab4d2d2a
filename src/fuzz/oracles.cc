#include "src/fuzz/oracles.h"

#include <array>
#include <cassert>
#include <functional>
#include <optional>
#include <sstream>

#include "src/arm/assembler.h"
#include "src/core/kom_defs.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/inject.h"
#include "src/fuzz/pool.h"
#include "src/obs/trace.h"
#include "src/os/world.h"
#include "src/spec/equivalence.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"
#include "src/spec/spec_dispatch.h"

namespace komodo::fuzz {

namespace {

Verdict Fail(int op, std::string detail) { return Verdict{true, op, std::move(detail)}; }

// Arms the primary world's observability coverage hook for the duration of
// one oracle run and harvests the keys on every exit path, including early
// failure returns. Worlds listed in `machine_worlds` additionally contribute
// their resident decode-cache / JIT block keys — callers only list worlds
// whose arm::ExecMode they set explicitly, so the harvested set never depends
// on the mode KOMODO_INTERP_CACHE / KOMODO_JIT select by default. The tracer
// is cycle bit-identical on/off, so arming it cannot change a verdict.
//
// Must be declared *after* the world leases it references: it harvests in its
// destructor, while the worlds are still leased.
class CoverageScope {
 public:
  CoverageScope(os::World& primary, CoverageMap* cover,
                std::vector<const os::World*> machine_worlds = {})
      : primary_(primary), cover_(cover), machine_worlds_(std::move(machine_worlds)) {
    if (cover_ == nullptr) {
      return;
    }
    obs::Observability& obs = primary_.monitor.obs();
    was_enabled_ = obs.enabled();
    if (!was_enabled_) {
      // Tiny ring: only the key set matters, not the event log.
      obs.Enable(kCoverageRing);
    }
    obs.ArmCoverage();
  }
  CoverageScope(const CoverageScope&) = delete;
  CoverageScope& operator=(const CoverageScope&) = delete;
  ~CoverageScope() {
    if (cover_ == nullptr) {
      return;
    }
    HarvestObsCoverage(primary_, cover_);
    for (const os::World* w : machine_worlds_) {
      HarvestMachineCoverage(*w, cover_);
    }
    obs::Observability& obs = primary_.monitor.obs();
    obs.DisarmCoverage();
    if (!was_enabled_) {
      obs.Disable();
    }
  }

 private:
  static constexpr size_t kCoverageRing = 64;
  os::World& primary_;
  CoverageMap* cover_;
  std::vector<const os::World*> machine_worlds_;
  bool was_enabled_ = false;
};

std::string OpLabel(const Trace& t, size_t i) {
  std::ostringstream out;
  out << "op " << i << " of " << t.ops.size();
  return out.str();
}

// The oracles compare and hash the raw ABI words of Enter/Resume, so the
// typed EnterResult is flattened back to the r0/r1 pair at these sites.
os::SmcRet AbiWords(const os::EnterResult& r) { return {ToWord(r.err), r.payload}; }

// Replays one poke. Page numbers are clamped into insecure RAM so shrinker
// arg-simplification cannot wander out of bounds (WriteInsecure is raw).
void ApplyPoke(os::World& w, const TraceOp& op) {
  const word npages = arm::kInsecureSize / arm::kPageSize;
  w.os.WriteInsecure(op.a[0] % npages, op.a[1] % arm::kWordsPerPage, op.a[2]);
}

// Builds the trace's victim enclave; returns false (with `why`) on failure.
// Victims that rewrite their own code get their code page mapped R|W|X.
bool BuildVictim(os::World& w, const std::string& name, os::EnclaveHandle* out,
                 std::string* why) {
  const std::vector<word> program = VictimProgram(name);
  if (program.empty()) {
    *why = "unknown victim '" + name + "'";
    return false;
  }
  if (!VictimWantsWritableCode(name)) {
    if (auto built = w.os.NewEnclave().Code(program).Build(); built.ok()) {
      *out = *std::move(built);
      return true;
    } else {
      *why = "victim build failed: " + std::string(KomErrName(built.error()));
      return false;
    }
  }
  os::Os& os = w.os;
  os::EnclaveHandle e;
  e.addrspace = os.AllocSecurePage();
  e.l1pt = os.AllocSecurePage();
  const PageNr l2 = os.AllocSecurePage();
  const PageNr code = os.AllocSecurePage();
  e.thread = os.AllocSecurePage();
  const word staging = os.AllocInsecurePage();
  os.WriteInsecurePage(staging, program);
  word err = os.InitAddrspace(e.addrspace, e.l1pt).err;
  if (err == kErrSuccess) err = os.InitL2Table(e.addrspace, l2, 0).err;
  if (err == kErrSuccess) {
    err = os.MapSecure(e.addrspace, code,
                       MakeMapping(os::kEnclaveCodeVa, kMapR | kMapW | kMapX), staging)
              .err;
  }
  if (err == kErrSuccess) err = os.InitThread(e.addrspace, e.thread, os::kEnclaveCodeVa).err;
  if (err == kErrSuccess) err = os.Finalise(e.addrspace).err;
  if (err != kErrSuccess) {
    *why = "victim build failed: " + std::string(KomErrName(err));
    return false;
  }
  e.l2pts.push_back(l2);
  e.data_pages.push_back(code);
  *out = e;
  return true;
}

// Reifies the abstract state mid-replay, read in place from `cache`. An
// undecodable representation (possible only when a fault injection corrupted
// the monitor's structures) is an oracle failure with a replayable verdict,
// not a harness abort — the corpus pins traces whose whole point is
// reproducing exactly that. Returns null with `*why` set then. Each world's
// extractions go through one cache, so an op costs a decode of only the
// pages it changed.
const spec::PageDb* Extract(const os::World& w, spec::ExtractCache& cache, std::string* why) {
  spec::ExtractError xerr;
  const spec::PageDb* got = cache.Extract(w.machine, &xerr);
  if (got == nullptr) {
    *why = "spec extraction failed at page " + std::to_string(xerr.page) + ": " + xerr.detail;
  }
  return got;
}

// The SVC driver: loads (call, a1, a2, a3) staged in its data page into
// r0-r3, issues the SVC, then exits with the SVC's r0 result. Exit-style SVCs
// terminate at the first `svc`; everything else reaches the explicit exit.
std::vector<word> DriverProgram() {
  arm::Assembler a(os::kEnclaveCodeVa);
  using namespace arm;
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Ldr(R0, R4, 0);
  a.Ldr(R1, R4, 4);
  a.Ldr(R2, R4, 8);
  a.Ldr(R3, R4, 12);
  a.Svc();
  a.Mov(R1, R0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

// --- refinement / invariants ---------------------------------------------------

// One replay loop serves both spec-backed oracles: with `with_spec` every
// call is related to its spec by spec::CheckRefinement, without it only the
// PageDB invariants are checked. Each call's post-state is extracted once and
// read in place.
Verdict RunSpecBacked(const Trace& t, bool with_spec, WorldPool& pool, CoverageMap* cover) {
  WorldPool::Lease lease = pool.Acquire(t.pages);
  os::World& w = lease.world();
  CoverageScope coverage(w, cover);

  bool needs_driver = false;
  for (const TraceOp& op : t.ops) {
    needs_driver = needs_driver || op.kind == OpKind::kSvc;
  }
  os::EnclaveHandle driver;
  if (needs_driver) {
    auto built = w.os.NewEnclave().Code(DriverProgram()).Build();
    if (!built.ok()) {
      return Fail(-1,
                  "harness: driver build failed: " + std::string(KomErrName(built.error())));
    }
    driver = *std::move(built);
  }

  // `d` is the state each op starts from. Under refinement it is the spec's
  // state: the boot extraction, then each passing step's successor, since
  // the step has shown that the machine extracts to it. The invariants
  // oracle has no spec, so its state is the last extraction, in the cache.
  spec::ExtractCache cache;
  spec::PageDb spec_db = spec::ExtractPageDb(w.machine);
  const spec::PageDb* d = &spec_db;
  // Extracts the post-state of the op's monitor call and, under refinement,
  // relates the call to the spec's `expected` result. Returns the failure
  // detail, or "" when the call passes.
  const auto settle = [&](bool is_svc, word call, spec::Result expected, word impl_err) {
    std::string why;
    const spec::PageDb* post = Extract(w, cache, &why);
    if (!with_spec) {
      d = post != nullptr ? post : d;
      return why;
    }
    spec::RefinementStep step =
        spec::CheckRefinement(*d, is_svc, call, std::move(expected), impl_err, post, why);
    if (step.successor.has_value()) {
      spec_db = std::move(*step.successor);
    }
    return step.failure;
  };
  for (size_t i = 0; i < t.ops.size(); ++i) {
    const TraceOp& op = t.ops[i];
    std::string failure;
    switch (op.kind) {
      case OpKind::kPoke:
        ApplyPoke(w, op);  // insecure RAM is outside the PageDb
        break;
      case OpKind::kEnter:
      case OpKind::kResume:
        break;  // no victim in spec-backed traces
      case OpKind::kSmc: {
        const std::array<word, 4> args{op.a[1], op.a[2], op.a[3], op.a[4]};
        spec::Result expected =
            with_spec ? spec::ApplySmc(*d, w.machine, op.a[0], args) : spec::Result{};
        const os::SmcRet got = w.os.Smc(op.a[0], args[0], args[1], args[2], args[3]);
        failure = settle(/*is_svc=*/false, op.a[0], std::move(expected), got.err);
        break;
      }
      case OpKind::kSvc: {
        // Staging the SVC arguments writes the driver's data page directly —
        // the same deus-ex channel the noninterference victims use for their
        // secrets. That is only sound while the page still *is* the driver's
        // data page: the adversary may have stopped and dismantled the driver
        // and recycled its pages into, say, another enclave's page tables,
        // which a direct write would corrupt in ways no real OS can.
        const spec::PageDb& pre = *d;
        const PageNr data_page = driver.data_pages[1];
        const bool intact = pre.ValidPageNr(driver.thread) &&
                            pre[driver.thread].type() == PageType::kDispatcher &&
                            pre[driver.thread].owner == driver.addrspace &&
                            pre.ValidPageNr(data_page) &&
                            pre[data_page].type() == PageType::kDataPage &&
                            pre[data_page].owner == driver.addrspace;
        if (intact) {
          const paddr data = PagePaddr(data_page);
          for (int j = 0; j < 4; ++j) {
            w.machine.mem.Write(data + static_cast<word>(j) * arm::kWordSize, op.a[j]);
          }
        }
        if (!with_spec) {
          w.os.Enter(driver.thread);
          failure = settle(false, kSmcEnter, {}, 0);
          break;
        }
        if (intact) {
          // The staged words enter the spec's state through the one page
          // they were written to.
          const spec::PageDb* staged = Extract(w, cache, &failure);
          if (staged == nullptr) {
            break;
          }
          spec_db[data_page] = (*staged)[data_page];
        }
        // Only when the intact driver ran to its exit is the SVC itself
        // comparable against the spec. Otherwise the Enter is: its guard
        // failed, some other enclave's code ran, or the driver faulted or was
        // interrupted mid-program (user-execution havoc).
        spec::Result guard = spec::ApplySmc(pre, w.machine, kSmcEnter, {driver.thread, 0, 0, 0});
        const os::SmcRet got = AbiWords(w.os.Enter(driver.thread));
        if (intact && guard.err == kErrSuccess && got.err == kErrSuccess) {
          failure = settle(
              /*is_svc=*/true, op.a[0],
              spec::ApplySvc(pre, driver.addrspace, op.a[0], {op.a[1], op.a[2], op.a[3]}),
              got.val);
        } else {
          failure = settle(false, kSmcEnter, std::move(guard), got.err);
        }
        break;
      }
    }
    if (!failure.empty()) {
      return Fail(static_cast<int>(i), OpLabel(t, i) + ": " + failure);
    }
    if (cover != nullptr) {
      HarvestPageDbCoverage(*d, cover);
    }
    const auto violations = spec::PageDbViolations(*d);
    if (!violations.empty()) {
      return Fail(static_cast<int>(i), OpLabel(t, i) + ": invariant: " + violations.front());
    }
  }
  return {};
}

// --- lockstep: noninterference and interp -----------------------------------------
//
// N pooled worlds ("lanes") replay one trace in lockstep: each op is applied
// to every lane in lease order, then the oracle's check compares the lanes
// and its failure detail is reported against that op.

struct Lane {
  os::World* world = nullptr;
  os::EnclaveHandle victim;
  os::SmcRet result{kErrSuccess, 0};  // ABI words of the current op
};

// Applies one op to a lane. Enter/Resume drive the lane's victim and are
// no-ops without one; SVCs are not generated for lockstep traces.
os::SmcRet ApplyOp(const Trace& t, Lane& lane, const TraceOp& op) {
  os::World& w = *lane.world;
  switch (op.kind) {
    case OpKind::kPoke:
      ApplyPoke(w, op);
      break;
    case OpKind::kSmc:
      return w.os.Smc(op.a[0], op.a[1], op.a[2], op.a[3], op.a[4]);
    case OpKind::kSvc:
      break;
    case OpKind::kEnter:
      if (!t.victim.empty()) {
        return AbiWords(w.os.Enter(lane.victim.thread, op.a[1], op.a[2], op.a[3]));
      }
      break;
    case OpKind::kResume:
      if (!t.victim.empty()) {
        return AbiWords(w.os.Resume(lane.victim.thread));
      }
      break;
  }
  return {kErrSuccess, 0};
}

struct Lockstep {
  size_t lanes = 2;
  // Lanes whose decode-cache/JIT residency is coverage (see CoverageScope).
  std::vector<size_t> machine_coverage;
  // Runs on each lane once its victim (if any) is built.
  std::function<void(size_t lane, Lane&)> setup;
  // Runs after every op: the failure detail, or "" while the lanes agree.
  std::function<std::string(const std::vector<Lane>&)> check;
};

Verdict RunLockstep(const Trace& t, WorldPool& pool, CoverageMap* cover, const Lockstep& cfg) {
  // Leases go back to the pool last-first, as separately declared locals
  // would, so the pool hands each world out again in the same role.
  struct Leases {
    std::vector<WorldPool::Lease> held;
    ~Leases() {
      while (!held.empty()) {
        held.pop_back();
      }
    }
  } leases;
  std::vector<Lane> lanes(cfg.lanes);
  for (Lane& lane : lanes) {
    leases.held.push_back(pool.Acquire(t.pages));
    lane.world = &leases.held.back().world();
  }
  std::vector<const os::World*> machine_worlds;
  for (const size_t k : cfg.machine_coverage) {
    machine_worlds.push_back(lanes[k].world);
  }
  CoverageScope coverage(*lanes[0].world, cover, std::move(machine_worlds));
  for (size_t k = 0; k < lanes.size(); ++k) {
    std::string why;
    if (!t.victim.empty() && !BuildVictim(*lanes[k].world, t.victim, &lanes[k].victim, &why)) {
      return Fail(-1, "harness: " + why);
    }
    cfg.setup(k, lanes[k]);
  }
  for (size_t i = 0; i < t.ops.size(); ++i) {
    for (Lane& lane : lanes) {
      lane.result = ApplyOp(t, lane, t.ops[i]);
    }
    if (const std::string detail = cfg.check(lanes); !detail.empty()) {
      return Fail(static_cast<int>(i), OpLabel(t, i) + ": " + detail);
    }
  }
  return {};
}

// "result differs: <a>(err, val) vs <b>(err, val)", or "" when they agree.
std::string ResultDiff(const char* a_name, os::SmcRet a, const char* b_name, os::SmcRet b) {
  if (a.err == b.err && a.val == b.val) {
    return {};
  }
  std::ostringstream out;
  out << "result differs: " << a_name << "(" << KomErrName(a.err) << ", " << a.val << ") vs "
      << b_name << "(" << KomErrName(b.err) << ", " << b.val << ")";
  return out.str();
}

// Two worlds differing only in the secret planted in the victim's private
// page (a secret arriving over a secure channel after launch; initial
// contents are OS-visible): every result pair and ≈adv must stay equal.
Verdict RunNoninterference(const Trace& t, WorldPool& pool, CoverageMap* cover) {
  if (t.victim.empty()) {
    return Fail(-1, "harness: noninterference trace needs a victim");
  }
  Lockstep cfg;
  cfg.setup = [&t](size_t k, Lane& lane) {
    const std::vector<PageNr>& pages = lane.victim.data_pages;
    lane.world->machine.mem.Write(PagePaddr(pages.size() > 1 ? pages[1] : pages[0]),
                                  t.secrets[k]);
  };
  arm::MemoryCompare insecure_ram(arm::MemoryCompare::Scope::kInsecure);
  std::array<spec::ExtractCache, 2> caches;
  cfg.check = [cover, &insecure_ram, &caches](const std::vector<Lane>& l) {
    std::string detail = ResultDiff("", l[0].result, "", l[1].result);
    if (!detail.empty()) {
      return detail;
    }
    const spec::PageDb* d1 = Extract(*l[0].world, caches[0], &detail);
    if (d1 == nullptr) {
      return detail;
    }
    const spec::PageDb* d2 = Extract(*l[1].world, caches[1], &detail);
    if (d2 == nullptr) {
      return detail;
    }
    if (cover != nullptr) {
      HarvestPageDbCoverage(*d1, cover);
    }
    const auto violations = spec::AdvEquivViolations(
        l[0].world->machine, *d1, l[1].world->machine, *d2, kInvalidPage, &insecure_ram);
    return violations.empty() ? std::string() : "~adv broken: " + violations.front();
  };
  return RunLockstep(t, pool, cover, cfg);
}

// Three-way bisimulation: lane k runs kInterpLanes[k]. The cached/uncached
// pair is the original oracle and is compared first so its canonical failure
// details stay stable (the committed regression corpus records them). The
// third world runs the block JIT on top of the caches; any architectural
// divergence from the cached world is a translator bug. On hosts without JIT
// support the third world degenerates into a second cached interpreter,
// which trivially agrees.
constexpr std::array<arm::ExecMode, 3> kInterpLanes = {
    arm::ExecMode::kCached, arm::ExecMode::kUncached, arm::ExecMode::kJit};

Verdict RunInterp(const Trace& t, WorldPool& pool, CoverageMap* cover) {
  Lockstep cfg;
  cfg.lanes = kInterpLanes.size();
  // The cached and JIT lanes set their mode explicitly below, so their
  // resident decode/JIT entries are legitimate (environment-independent)
  // coverage.
  cfg.machine_coverage = {0, 2};
  cfg.setup = [](size_t k, Lane& lane) { lane.world->machine.SetExecMode(kInterpLanes[k]); };
  arm::MemoryCompare cached_uncached;
  arm::MemoryCompare jit_cached;
  cfg.check = [&cached_uncached, &jit_cached](const std::vector<Lane>& l) {
    const Lane& cached = l[0];
    const Lane& uncached = l[1];
    const Lane& jit = l[2];
    std::string detail = ResultDiff("cached ", cached.result, "uncached ", uncached.result);
    if (!detail.empty()) {
      return detail;
    }
    const arm::MachineState& c = cached.world->machine;
    if (const auto diff = MachineDiff(c, uncached.world->machine, &cached_uncached);
        !diff.empty()) {
      return "cached/uncached state diverges: " + diff.front();
    }
    detail = ResultDiff("jit ", jit.result, "cached ", cached.result);
    if (!detail.empty()) {
      return detail;
    }
    const auto diff = MachineDiff(jit.world->machine, c, &jit_cached);
    return diff.empty() ? std::string() : "jit/cached state diverges: " + diff.front();
  };
  return RunLockstep(t, pool, cover, cfg);
}

}  // namespace

std::vector<std::string> MachineDiff(const arm::MachineState& a, const arm::MachineState& b,
                                     arm::MemoryCompare* memory) {
  std::vector<std::string> v;
  if (!(a.r == b.r)) {
    v.push_back("r0-r12 differ");
  }
  if (!(a.pc == b.pc)) {
    v.push_back("pc differs");
  }
  if (!(a.cpsr == b.cpsr)) {
    v.push_back("cpsr differs");
  }
  if (!(a.sp_banked == b.sp_banked) || !(a.lr_banked == b.lr_banked)) {
    v.push_back("banked sp/lr differ");
  }
  if (!(a.spsr_banked == b.spsr_banked)) {
    v.push_back("banked spsr differ");
  }
  if (!(a.scr_ns == b.scr_ns)) {
    v.push_back("scr.ns differs");
  }
  if (!(a.ttbr0 == b.ttbr0) || !(a.ttbr1 == b.ttbr1)) {
    v.push_back("ttbr differs");
  }
  if (!(a.vbar_secure == b.vbar_secure) || !(a.vbar_monitor == b.vbar_monitor)) {
    v.push_back("vbar differs");
  }
  if (!(a.tlb_consistent == b.tlb_consistent)) {
    v.push_back("tlb-consistency bit differs");
  }
  if (!(a.steps_retired == b.steps_retired)) {
    v.push_back("steps_retired differs");
  }
  if (!(a.cycles.total() == b.cycles.total())) {
    v.push_back("cycle count differs");
  }
  arm::MemoryCompare fresh;
  arm::MemoryCompare& compare = memory != nullptr ? *memory : fresh;
  assert(compare.scope() == arm::MemoryCompare::Scope::kAll);
  if (compare.FirstDifference(a.mem, b.mem).has_value()) {
    v.push_back("memories diverge");
  }
  return v;
}

Verdict RunTrace(const Trace& t, bool apply_inject, WorldPool* pool, CoverageMap* cover) {
  // One-shot callers get a throwaway pool, which degenerates to the old
  // construct-per-run behaviour (every Acquire builds a fresh world).
  WorldPool local_pool;
  WorldPool& p = pool != nullptr ? *pool : local_pool;
  const std::string inject = apply_inject ? t.inject : std::string();
  ScopedInject scoped(inject);
  if (!inject.empty() && !SetInjectByName(inject)) {
    return Fail(-1, "harness: unknown injection '" + inject + "'");
  }
  if (t.oracle == "refinement") {
    return RunSpecBacked(t, /*with_spec=*/true, p, cover);
  }
  if (t.oracle == "invariants") {
    return RunSpecBacked(t, /*with_spec=*/false, p, cover);
  }
  if (t.oracle == "noninterference") {
    return RunNoninterference(t, p, cover);
  }
  if (t.oracle == "interp") {
    return RunInterp(t, p, cover);
  }
  return Fail(-1, "harness: unknown oracle '" + t.oracle + "'");
}

}  // namespace komodo::fuzz
