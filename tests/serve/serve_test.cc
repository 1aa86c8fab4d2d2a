// komodo-serve (DESIGN.md §14): session lifecycle, LRU eviction + rebuild
// under a secure-page budget, bounded-queue backpressure, typed timeouts and
// batched scheduling over one Komodo world.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/arm/machine.h"
#include "src/enclave/programs.h"
#include "src/jit/jit.h"
#include "src/obs/json.h"
#include "src/serve/server.h"

namespace komodo::serve {
namespace {

Server::Config SmallConfig() {
  Server::Config c;
  c.nsecure_pages = 64;
  c.secure_page_budget = 64;
  c.queue_capacity = 8;
  return c;
}

TEST(ServeCatalogTest, DefaultCatalogContents) {
  const ProgramCatalog catalog = DefaultCatalog();
  ASSERT_NE(catalog.Find("counter"), nullptr);
  ASSERT_NE(catalog.Find("echo"), nullptr);
  ASSERT_NE(catalog.Find("spin"), nullptr);
  EXPECT_TRUE(catalog.Find("counter")->batch_abi);
  EXPECT_FALSE(catalog.Find("spin")->batch_abi);
  EXPECT_EQ(catalog.Find("no-such-program"), nullptr);
}

TEST(ServeTest, SessionLifecycle) {
  Server server(DefaultCatalog(), SmallConfig());
  EXPECT_EQ(server.CreateSession("no-such-program").error(), ServeErr::kUnknownProgram);

  auto sid = server.CreateSession("echo");
  ASSERT_TRUE(sid.ok());
  auto rid = server.Submit(*sid, 21);
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(server.Poll(*rid), nullptr);  // not pumped yet

  auto r = server.Wait(*rid);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->value, 43u);  // 2*21+1
  EXPECT_GT(r->latency_cycles, 0u);

  // Poll after completion sees the same result.
  const RequestResult* polled = server.Poll(*rid);
  ASSERT_NE(polled, nullptr);
  EXPECT_EQ(polled->value, 43u);

  auto destroyed = server.DestroySession(*sid);
  ASSERT_TRUE(destroyed.ok());
  EXPECT_EQ(*destroyed, 0u);  // no pending requests dropped
  EXPECT_EQ(server.Submit(*sid, 1).error(), ServeErr::kUnknownSession);
  EXPECT_EQ(server.DestroySession(*sid).error(), ServeErr::kUnknownSession);
  EXPECT_EQ(server.resident_pages(), 0u);
}

TEST(ServeTest, CounterStatePersistsAcrossRequestsWhileResident) {
  Server server(DefaultCatalog(), SmallConfig());
  const SessionId sid = *server.CreateSession("counter");
  EXPECT_EQ(server.Wait(*server.Submit(sid, 5))->value, 5u);
  EXPECT_EQ(server.Wait(*server.Submit(sid, 7))->value, 12u);
  EXPECT_EQ(server.Wait(*server.Submit(sid, 1))->value, 13u);
}

TEST(ServeTest, EvictionRebuildsFromMeasuredInitialState) {
  // Budget fits exactly two resident enclaves (7 pages each); a third session
  // forces the LRU one out. The counter is the witness: an evicted session's
  // counter restarts from zero after the rebuild, and its shared page (the
  // client-visible buffer) is preserved.
  Server::Config c = SmallConfig();
  c.secure_page_budget = 15;
  Server server(DefaultCatalog(), c);
  const SessionId s1 = *server.CreateSession("counter");
  const SessionId s2 = *server.CreateSession("counter");
  const SessionId s3 = *server.CreateSession("counter");

  EXPECT_EQ(server.Wait(*server.Submit(s1, 100))->value, 100u);
  EXPECT_EQ(server.Wait(*server.Submit(s2, 200))->value, 200u);
  EXPECT_TRUE(server.session_built(s1));
  EXPECT_TRUE(server.session_built(s2));
  EXPECT_EQ(server.stats().evictions, 0u);

  // s3 needs pages; s1 is least recently used and must be evicted.
  EXPECT_EQ(server.Wait(*server.Submit(s3, 300))->value, 300u);
  EXPECT_FALSE(server.session_built(s1));
  EXPECT_TRUE(server.session_built(s2));
  EXPECT_EQ(server.stats().evictions, 1u);

  // Resubmitting to s1 rebuilds it; the counter restarted from the measured
  // initial state (Komodo has no sealed storage — eviction loses state).
  EXPECT_EQ(server.Wait(*server.Submit(s1, 4))->value, 4u);
  EXPECT_EQ(server.stats().rebuilds, 1u);
  EXPECT_EQ(server.stats().evictions, 2u);  // s2 went to make room
  // s2 was untouched by s1's rebuild-eviction dance only if it was evicted;
  // its own resubmit rebuilds again and also restarts.
  EXPECT_EQ(server.Wait(*server.Submit(s2, 9))->value, 9u);
  EXPECT_LE(server.resident_pages(), c.secure_page_budget);

  // Recency, not build order: s1 was built before s2, but using it again
  // moves it behind s2, so s3's rebuild evicts s2 and s1 keeps its counter.
  EXPECT_EQ(server.Wait(*server.Submit(s1, 5))->value, 9u);
  EXPECT_EQ(server.Wait(*server.Submit(s3, 1))->value, 1u);
  EXPECT_TRUE(server.session_built(s1));
  EXPECT_FALSE(server.session_built(s2));
  EXPECT_TRUE(server.session_built(s3));
  EXPECT_EQ(server.stats().evictions, 4u);
}

TEST(ServeTest, ResidentRoundRobinReusesCachedTranslations) {
  // 64 sessions that all fit the budget, served round robin once warm: the
  // per-Enter host caches must keep every resident enclave's entry blocks
  // (the JIT block table) and page-table footprint (the interpreter's
  // footprint table) across the switches between enclaves.
  Server::Config c;
  c.secure_page_budget = 448;
  c.nsecure_pages = c.secure_page_budget + 16;
  c.queue_capacity = 128;
  Server server(DefaultCatalog(), c);
  std::vector<SessionId> sids;
  for (int i = 0; i < 64; ++i) {
    sids.push_back(*server.CreateSession(i % 2 == 0 ? "counter" : "echo"));
  }
  auto round = [&](word arg) {
    for (const SessionId sid : sids) {
      ASSERT_TRUE(server.Submit(sid, arg).ok());
    }
    server.Drain();
  };
  round(1);  // builds every enclave
  const arm::MachineState& m = server.world().machine;
  const jit::JitStats jit0 = m.jit.stats();
  const uint64_t rebuilds0 = m.interp.stats().pt_filter_rebuilds;
  const uint64_t enters0 = server.stats().enters;
  for (word r = 0; r < 50; ++r) {
    round(r);
  }
  const double enters = static_cast<double>(server.stats().enters - enters0);
  ASSERT_EQ(enters, 64.0 * 50);
  EXPECT_EQ(server.stats().evictions, 0u);
  EXPECT_EQ(m.jit.stats().code_cache_flushes, jit0.code_cache_flushes);
  EXPECT_LE(static_cast<double>(m.jit.stats().blocks_translated - jit0.blocks_translated) / enters,
            0.25);
  EXPECT_EQ(m.interp.stats().pt_filter_rebuilds, rebuilds0);
}

TEST(ServeTest, BudgetTooSmallForOneEnclaveFailsTyped) {
  Server::Config c = SmallConfig();
  c.secure_page_budget = 6;  // an enclave needs 7
  Server server(DefaultCatalog(), c);
  const SessionId sid = *server.CreateSession("echo");
  auto r = server.Wait(*server.Submit(sid, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->failure, RequestFailure::kBuildFailed);
}

TEST(ServeTest, QueueFullBackpressure) {
  Server::Config c = SmallConfig();
  c.queue_capacity = 3;
  Server server(DefaultCatalog(), c);
  const SessionId sid = *server.CreateSession("echo");
  ASSERT_TRUE(server.Submit(sid, 1).ok());
  ASSERT_TRUE(server.Submit(sid, 2).ok());
  ASSERT_TRUE(server.Submit(sid, 3).ok());
  EXPECT_EQ(server.Submit(sid, 4).error(), ServeErr::kQueueFull);
  EXPECT_EQ(server.stats().queue_full_rejections, 1u);
  // Draining frees capacity again.
  server.Drain();
  EXPECT_EQ(server.queue_depth(), 0u);
  ASSERT_TRUE(server.Submit(sid, 4).ok());
  server.Drain();
  EXPECT_EQ(server.stats().requests_completed, 4u);
}

TEST(ServeTest, TimeoutFailsTypedAndDestroysTheWedgedEnclave) {
  Server::Config c = SmallConfig();
  c.steps_per_slice = 500;  // tiny slices so the spin program times out fast
  c.timeout_slices = 3;
  Server server(DefaultCatalog(), c);
  const SessionId spin = *server.CreateSession("spin");
  const SessionId echo = *server.CreateSession("echo");

  auto r = server.Wait(*server.Submit(spin, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->failure, RequestFailure::kTimeout);
  EXPECT_FALSE(server.session_built(spin));  // wedged enclave torn down
  // Exactly timeout_slices world switches were spent on it.
  EXPECT_EQ(server.stats().world_switches, 3u);

  // The server keeps serving other sessions afterwards...
  EXPECT_EQ(server.Wait(*server.Submit(echo, 10))->value, 21u);
  // ...and the timed-out session itself is rebuilt on its next request.
  auto r2 = server.Wait(*server.Submit(spin, 0));
  EXPECT_EQ(r2->failure, RequestFailure::kTimeout);
  EXPECT_EQ(server.stats().rebuilds, 1u);
}

// Boundary pin for the slice accounting: the initial Enter consumes the
// first slice, so timeout_slices=1 means one Enter, zero Resumes, one world
// switch — not "one resume after the enter".
TEST(ServeTest, TimeoutSlicesOfOneMeansEnterOnlyNoResume) {
  Server::Config c = SmallConfig();
  c.steps_per_slice = 500;
  c.timeout_slices = 1;
  Server server(DefaultCatalog(), c);
  const SessionId spin = *server.CreateSession("spin");

  auto r = server.Wait(*server.Submit(spin, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->failure, RequestFailure::kTimeout);
  EXPECT_EQ(server.stats().enters, 1u);
  EXPECT_EQ(server.stats().resumes, 0u);
  EXPECT_EQ(server.stats().world_switches, 1u);
  EXPECT_FALSE(server.session_built(spin));  // wedged enclave torn down
}

TEST(ServeTest, BatchingCoalescesSameSessionRequests) {
  Server server(DefaultCatalog(), SmallConfig());
  const SessionId sid = *server.CreateSession("counter");
  std::vector<RequestId> rids;
  for (word i = 1; i <= 5; ++i) {
    rids.push_back(*server.Submit(sid, i));
  }
  server.Drain();
  // One Enter serviced all five requests (per-request running counter).
  EXPECT_EQ(server.stats().enters, 1u);
  EXPECT_EQ(server.stats().batches, 1u);
  word expect = 0;
  for (word i = 0; i < 5; ++i) {
    expect += i + 1;
    EXPECT_EQ(server.Poll(rids[i])->value, expect);
  }
}

TEST(ServeTest, BatchingOffUsesOneWorldSwitchPerRequest) {
  Server::Config c = SmallConfig();
  c.batching = false;
  Server server(DefaultCatalog(), c);
  const SessionId sid = *server.CreateSession("counter");
  for (word i = 1; i <= 5; ++i) {
    ASSERT_TRUE(server.Submit(sid, i).ok());
  }
  server.Drain();
  EXPECT_EQ(server.stats().enters, 5u);
  EXPECT_EQ(server.stats().world_switches, 5u);
}

TEST(ServeTest, BatchInterleavedSessionsStayFifoPerSession) {
  // Requests from two sessions interleave; coalescing extracts each
  // session's requests in order, so results stay correct.
  Server server(DefaultCatalog(), SmallConfig());
  const SessionId a = *server.CreateSession("counter");
  const SessionId b = *server.CreateSession("counter");
  const RequestId a1 = *server.Submit(a, 1);
  const RequestId b1 = *server.Submit(b, 10);
  const RequestId a2 = *server.Submit(a, 2);
  const RequestId b2 = *server.Submit(b, 20);
  server.Drain();
  EXPECT_EQ(server.stats().enters, 2u);  // one batch per session
  EXPECT_EQ(server.Poll(a1)->value, 1u);
  EXPECT_EQ(server.Poll(a2)->value, 3u);
  EXPECT_EQ(server.Poll(b1)->value, 10u);
  EXPECT_EQ(server.Poll(b2)->value, 30u);
}

TEST(ServeTest, DestroySessionFailsQueuedRequests) {
  Server server(DefaultCatalog(), SmallConfig());
  const SessionId sid = *server.CreateSession("echo");
  const RequestId rid = *server.Submit(sid, 1);
  auto destroyed = server.DestroySession(sid);
  ASSERT_TRUE(destroyed.ok());
  EXPECT_EQ(*destroyed, 1u);
  const RequestResult* r = server.Poll(rid);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->failure, RequestFailure::kSessionDestroyed);
  EXPECT_EQ(server.Wait(9999).error(), ServeErr::kUnknownRequest);
}

TEST(ServeTest, MetricsDocumentValidatesStructurally) {
  Server server(DefaultCatalog(), SmallConfig());
  const SessionId sid = *server.CreateSession("echo");
  ASSERT_TRUE(server.Wait(*server.Submit(sid, 3)).ok());
  const std::string doc = server.ExportMetrics();
  const auto parsed = obs::ParseJson(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;
  const obs::JsonValue* serve = parsed->Find("serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(parsed->Find("schema")->str, "komodo-metrics-v1");
  EXPECT_EQ(serve->Find("requests_completed")->number, 1.0);
  const obs::JsonValue* hist = serve->Find("request_latency_cycles");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number, 1.0);
}

TEST(ServeTest, DeterministicSeededMultiClientSmoke) {
  // A deterministic load: seeded xorshift picks sessions/args/occasional
  // destroys. The run must be reproducible world-to-world: same seed, same
  // final stats and same per-request results.
  auto run = [](uint64_t seed) {
    Server::Config c;
    c.nsecure_pages = 128;
    c.secure_page_budget = 40;  // 5 resident enclaves -> eviction active
    c.queue_capacity = 16;
    Server server(DefaultCatalog(), c);
    std::vector<SessionId> sids;
    const char* programs[] = {"counter", "echo", "counter", "echo", "counter",
                              "echo", "counter", "echo"};
    for (const char* p : programs) {
      sids.push_back(*server.CreateSession(p));
    }
    uint64_t x = seed;
    auto rnd = [&x]() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::map<RequestId, word> results;
    std::vector<RequestId> inflight;
    for (int i = 0; i < 200; ++i) {
      const SessionId sid = sids[rnd() % sids.size()];
      auto rid = server.Submit(sid, static_cast<word>(rnd() % 1000));
      if (rid.ok()) {
        inflight.push_back(*rid);
      } else {
        server.Drain();  // backpressure: drain and retry next iteration
      }
      if (i % 37 == 0) {
        server.Drain();
      }
    }
    server.Drain();
    for (RequestId rid : inflight) {
      const RequestResult* r = server.Poll(rid);
      EXPECT_NE(r, nullptr);
      if (r != nullptr) {
        results[rid] = r->ok ? r->value : ~0u;
      }
    }
    const ServerStats& st = server.stats();
    EXPECT_GT(st.evictions, 0u);  // the budget was actually exercised
    EXPECT_EQ(st.requests_failed, 0u);
    return std::make_tuple(results, st.world_switches, st.evictions, st.rebuilds,
                           st.requests_completed);
  };
  const auto a = run(0xfeedbeefcafeull);
  const auto b = run(0xfeedbeefcafeull);
  EXPECT_EQ(a, b);
  // Batched scheduling must beat one-world-switch-per-request.
  EXPECT_LT(std::get<1>(a), std::get<4>(a));
}

}  // namespace
}  // namespace komodo::serve
