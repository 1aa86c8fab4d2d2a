// Tracer tests (DESIGN.md §9): zero overhead and bit-identical machine
// state when disabled, deterministic traces (modulo wall-clock) when
// enabled, correct ring-wrap accounting, and exporters that emit valid
// JSON in their documented schemas.
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/arm/machine.h"
#include "src/core/call_table.h"
#include "src/enclave/programs.h"
#include "src/enclave/sha256_program.h"
#include "src/obs/counters.h"
#include "src/obs/json.h"
#include "src/os/world.h"

namespace komodo {
namespace {

using obs::EventKind;
using obs::TraceEvent;

// A fixed workload touching every event source: enclave build (SMCs),
// two Enters with SVC exits (enter/exit instants, SVC begin/end, TLB
// flushes), plus an error-path SMC. Fully interpreted, so deterministic.
void RunWorkload(os::World& w) {
  os::EnclaveHandle e;
  auto built_e = w.os.NewEnclave().Code(enclave::AddTwoProgram()).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  EXPECT_EQ(w.os.Enter(e.thread, 2, 3).payload, 5u);
  EXPECT_EQ(w.os.Enter(e.thread, 40, 2).payload, 42u);
  EXPECT_EQ(w.os.Smc(kSmcInitAddrspace, 9999, 9999).err, kErrInvalidPageNo);
}

TEST(ObsTrace, DisabledRecordsNothing) {
  os::World w{64};
  w.monitor.obs().Disable();  // the suite also runs under KOMODO_TRACE=on
  ASSERT_FALSE(w.monitor.obs().enabled());
  RunWorkload(w);
  const obs::Counters& c = w.monitor.obs().counters();
  EXPECT_EQ(c.events_recorded, 0u);
  EXPECT_EQ(c.smc_calls, 0u);
  EXPECT_EQ(c.svc_calls, 0u);
  EXPECT_TRUE(w.monitor.obs().Events().empty());
  EXPECT_TRUE(w.monitor.obs().smc_stats().empty());
}

TEST(ObsTrace, TracingIsArchitecturallyInvisible) {
  // The tracer observes the cycle counter but never moves it: the same
  // workload with tracing on and off must retire the same steps and charge
  // the same simulated cycles.
  os::World off{64};
  os::World on{64};
  on.monitor.obs().Enable();
  RunWorkload(off);
  RunWorkload(on);
  EXPECT_EQ(off.machine.cycles.total(), on.machine.cycles.total());
  EXPECT_EQ(off.machine.steps_retired, on.machine.steps_retired);
  EXPECT_EQ(off.machine.tlb_flushes, on.machine.tlb_flushes);
  EXPECT_GT(on.monitor.obs().counters().events_recorded, 0u);
}

TEST(ObsTrace, TraceIsDeterministicModuloWallClock) {
  os::World a{64};
  os::World b{64};
  a.monitor.obs().Enable();
  b.monitor.obs().Enable();
  RunWorkload(a);
  RunWorkload(b);

  const std::vector<TraceEvent> ea = a.monitor.obs().Events();
  const std::vector<TraceEvent> eb = b.monitor.obs().Events();
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_FALSE(ea.empty());
  for (size_t i = 0; i < ea.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ea[i].seq, eb[i].seq);
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].depth, eb[i].depth);
    EXPECT_EQ(ea[i].code, eb[i].code);
    EXPECT_STREQ(ea[i].name, eb[i].name);
    EXPECT_EQ(ea[i].args, eb[i].args);
    EXPECT_EQ(ea[i].err, eb[i].err);
    EXPECT_EQ(ea[i].val, eb[i].val);
    EXPECT_EQ(ea[i].cycles, eb[i].cycles);  // simulated time: deterministic
    EXPECT_EQ(ea[i].steps, eb[i].steps);
    // wall_ns deliberately not compared.
  }
}

TEST(ObsTrace, WorkloadEventShapes) {
  os::World w{64};
  w.monitor.obs().Enable();
  RunWorkload(w);
  const obs::Counters& c = w.monitor.obs().counters();
  EXPECT_EQ(c.enclave_entries, 2u);
  EXPECT_EQ(c.enclave_exits, 2u);
  EXPECT_EQ(c.svc_calls, 2u);  // one Exit SVC per Enter
  EXPECT_GT(c.smc_calls, 8u);  // build sequence + enters + failing call
  EXPECT_GT(c.tlb_flushes, 0u);
  EXPECT_EQ(c.events_dropped, 0u);

  // Per-call stats: Enter was called twice and never failed; the failing
  // InitAddrspace shows up in its error count; SVC Exit has two calls.
  const auto& smc = w.monitor.obs().smc_stats();
  ASSERT_TRUE(smc.count(kSmcEnter));
  EXPECT_EQ(smc.at(kSmcEnter).calls, 2u);
  EXPECT_EQ(smc.at(kSmcEnter).errors, 0u);
  EXPECT_EQ(smc.at(kSmcEnter).name, "Enter");
  EXPECT_GT(smc.at(kSmcEnter).cost.cycles, 0u);
  EXPECT_EQ(smc.at(kSmcEnter).cycle_hist.count(), 2u);
  ASSERT_TRUE(smc.count(kSmcInitAddrspace));
  EXPECT_EQ(smc.at(kSmcInitAddrspace).errors, 1u);
  const auto& svc = w.monitor.obs().svc_stats();
  ASSERT_TRUE(svc.count(kSvcExit));
  EXPECT_EQ(svc.at(kSvcExit).calls, 2u);

  // Every call event's name comes from the registry.
  for (const TraceEvent& e : w.monitor.obs().Events()) {
    if (e.kind == EventKind::kSmcBegin || e.kind == EventKind::kSmcEnd) {
      const CallInfo* info = FindSmc(e.code);
      ASSERT_NE(info, nullptr) << "unregistered SMC " << e.code << " in trace";
      EXPECT_STREQ(e.name, info->name);
    }
  }
}

TEST(ObsTrace, RingWrapDropsOldestAndCounts) {
  os::World w{32};
  w.monitor.obs().Enable(/*ring_capacity=*/8);
  for (int i = 0; i < 10; ++i) {
    w.os.GetPhysPages();  // 2 events per call (begin + end)
  }
  const obs::Counters& c = w.monitor.obs().counters();
  EXPECT_EQ(c.events_recorded, 20u);
  EXPECT_EQ(c.events_dropped, 12u);
  const std::vector<TraceEvent> events = w.monitor.obs().Events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first, contiguous sequence numbers ending at the last event.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
  }
}

TEST(ObsTrace, ResetClearsButStaysEnabled) {
  os::World w{32};
  w.monitor.obs().Enable();
  w.os.GetPhysPages();
  ASSERT_GT(w.monitor.obs().counters().events_recorded, 0u);
  w.monitor.obs().Reset();
  EXPECT_TRUE(w.monitor.obs().enabled());
  EXPECT_EQ(w.monitor.obs().counters().events_recorded, 0u);
  EXPECT_TRUE(w.monitor.obs().Events().empty());
  w.os.GetPhysPages();
  EXPECT_EQ(w.monitor.obs().counters().events_recorded, 2u);
}

TEST(ObsTrace, ChromeTraceExportIsValidJson) {
  os::World w{64};
  w.monitor.obs().Enable();
  RunWorkload(w);
  std::string error;
  const auto parsed = obs::ParseJson(w.monitor.obs().ExportChromeTrace(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  ASSERT_FALSE(events->items.empty());
  // Complete ("X") events exist for the SMCs and carry ts + dur.
  bool saw_complete = false;
  for (const obs::JsonValue& e : events->items) {
    const obs::JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "X") {
      saw_complete = true;
      EXPECT_NE(e.Find("ts"), nullptr);
      EXPECT_NE(e.Find("dur"), nullptr);
    }
  }
  EXPECT_TRUE(saw_complete);
}

TEST(ObsTrace, MetricsExportIsValidAndComplete) {
  os::World w{64};
  w.monitor.obs().Enable();
  RunWorkload(w);
  std::string error;
  const auto parsed = obs::ParseJson(w.monitor.obs().ExportMetrics(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "komodo-metrics-v1");
  // Every listed counter (src/obs/counters.h) is exported.
  const auto expect_keys = [](const obs::JsonValue* object, std::vector<std::string> keys) {
    ASSERT_NE(object, nullptr);
    for (const std::string& key : keys) {
      EXPECT_NE(object->Find(key), nullptr) << key;
    }
  };
  expect_keys(parsed->Find("counters"), {KOMODO_TRACE_COUNTERS(KOMODO_COUNTER_NAME)});
  const obs::JsonValue* smc = parsed->Find("smc");
  ASSERT_NE(smc, nullptr);
  ASSERT_TRUE(smc->IsArray());
  // Every SMC the workload issued has a per-call entry with a histogram.
  bool saw_enter = false;
  for (const obs::JsonValue& s : smc->items) {
    const obs::JsonValue* name = s.Find("name");
    ASSERT_NE(name, nullptr);
    expect_keys(s.Find("interp_cache"), {KOMODO_INTERP_CACHE_COUNTERS(KOMODO_COUNTER_NAME)});
    expect_keys(s.Find("jit"), {KOMODO_JIT_COUNTERS(KOMODO_COUNTER_NAME)});
    if (name->str == "Enter") {
      saw_enter = true;
      const obs::JsonValue* cycles = s.Find("cycles");
      ASSERT_NE(cycles, nullptr);
      const obs::JsonValue* count = cycles->Find("count");
      ASSERT_NE(count, nullptr);
      EXPECT_EQ(count->number, 2.0);
    }
  }
  EXPECT_TRUE(saw_enter);
}

// Per-call attribution adds up: over a traced build and three Enters of the
// in-ISA SHA-256 enclave, each machine counter's change equals the sum of
// the SMCs' costs (SVCs nest inside Enter). Cycles are left out, because
// the OS model charges some outside any call.
TEST(ObsTrace, CallCostsSumToMachineCounters) {
  os::World w{64};
  w.monitor.obs().Enable();
  const obs::MachineSnap begin = arm::ObsSnap(w.machine);
  auto built = w.os.NewEnclave().Code(enclave::Sha256Program()).SharedPage().Build();
  ASSERT_TRUE(built.ok());
  const os::EnclaveHandle e = *std::move(built);
  for (int i = 0; i < 3; ++i) {
    const std::vector<uint8_t> message(100 * (i + 1), static_cast<uint8_t>(i));
    const word nblocks = enclave::StageSha256Message(w.os, e.shared_insecure_pgnr, message);
    ASSERT_TRUE(w.os.Enter(e.thread, nblocks).exited());
  }
  const obs::MachineSnap end = arm::ObsSnap(w.machine);

  const auto expect_sum = [&](const char* name, auto counter) {
    uint64_t sum = 0;
    for (const auto& [call, s] : w.monitor.obs().smc_stats()) {
      sum += counter(s.cost);
    }
    EXPECT_EQ(sum, counter(end) - counter(begin)) << name;
  };
  expect_sum("steps", [](const obs::MachineSnap& m) { return m.steps; });
  expect_sum("tlb_flushes", [](const obs::MachineSnap& m) { return m.tlb_flushes; });
#define EXPECT_INTERP_CACHE_SUM(name) \
  expect_sum("interp_cache." #name, [](const obs::MachineSnap& m) { return m.interp_cache.name; });
#define EXPECT_JIT_SUM(name) \
  expect_sum("jit." #name, [](const obs::MachineSnap& m) { return m.jit.name; });
  KOMODO_INTERP_CACHE_COUNTERS(EXPECT_INTERP_CACHE_SUM)
  KOMODO_JIT_COUNTERS(EXPECT_JIT_SUM)
#undef EXPECT_JIT_SUM
#undef EXPECT_INTERP_CACHE_SUM
  if (w.machine.exec_mode() == arm::ExecMode::kJit) {
    EXPECT_GT(end.jit.chained - begin.jit.chained, 0u);
  }
}

}  // namespace
}  // namespace komodo
