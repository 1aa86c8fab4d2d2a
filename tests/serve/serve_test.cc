// komodo-serve (DESIGN.md §14): session lifecycle, LRU eviction + rebuild
// under a secure-page budget, bounded-queue backpressure, typed timeouts and
// batched scheduling over one Komodo world.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <tuple>
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

TEST(ServeRingTest, ResultsAreKeptForTheLastWindowOfIds) {
  Server::Config c = SmallConfig();
  c.queue_capacity = kServeBatchMax;
  Server server(DefaultCatalog(), c);
  const SessionId sid = *server.CreateSession("echo");
  constexpr word kServed = 10 * kRequestWindow + 1000;
  auto echo = [](RequestId id) { return 2 * (id % 997) + 1; };
  constexpr RequestId kProbe = kServeBatchMax;  // finishes in the first round
  const RequestResult* probe = nullptr;
  for (word i = 1; i <= kServed; ++i) {
    const auto rid = server.Submit(sid, i % 997);
    ASSERT_TRUE(rid.ok());
    ASSERT_EQ(*rid, i);
    if (i == kProbe + kRequestWindow - 1) {
      // 65,535 ids after the probe: its result and the pointer still hold.
      ASSERT_EQ(server.Poll(kProbe), probe);
      EXPECT_EQ(probe->value, echo(kProbe));
    } else if (i == kProbe + kRequestWindow) {
      EXPECT_EQ(server.Poll(kProbe), nullptr);
    }
    if (i % kServeBatchMax == 0) {
      ASSERT_TRUE(server.PumpOne());
      if (i == kProbe) {
        probe = server.Poll(kProbe);
        ASSERT_NE(probe, nullptr);
      }
    }
  }
  server.Drain();
  EXPECT_EQ(server.stats().requests_completed, kServed);
  for (RequestId id = 1; id <= kServed; ++id) {
    const RequestResult* r = server.Poll(id);
    if (id + kRequestWindow <= kServed) {
      ASSERT_EQ(r, nullptr) << "request " << id << " outlived the window";
    } else {
      ASSERT_NE(r, nullptr) << "request " << id << " left the window early";
      ASSERT_EQ(r->value, echo(id));
    }
  }

  // An expired id, id 0 and an id not issued yet are unknown at once: Wait
  // does not pump the request that is pending.
  ASSERT_TRUE(server.Submit(sid, 5).ok());
  const uint64_t batches = server.stats().batches;
  EXPECT_EQ(server.Wait(1).error(), ServeErr::kUnknownRequest);
  EXPECT_EQ(server.Wait(kServed - kRequestWindow).error(), ServeErr::kUnknownRequest);
  EXPECT_EQ(server.Wait(0).error(), ServeErr::kUnknownRequest);
  EXPECT_EQ(server.Wait(kServed + 2).error(), ServeErr::kUnknownRequest);
  EXPECT_EQ(server.Poll(0), nullptr);
  EXPECT_EQ(server.stats().batches, batches);
  EXPECT_EQ(server.queue_depth(), 1u);
  EXPECT_EQ(server.Wait(kServed + 1)->value, 11u);
}

TEST(ServeRingTest, SubmitRefusesRatherThanDropAPendingRequest) {
  // The queue admits more than the window, so the ring is what pushes back:
  // id 65,537 would take the slot of id 1, which is still pending.
  Server::Config c = SmallConfig();
  c.queue_capacity = 2 * kRequestWindow;
  Server server(DefaultCatalog(), c);
  const SessionId sid = *server.CreateSession("echo");
  for (word i = 1; i <= kRequestWindow; ++i) {
    ASSERT_EQ(*server.Submit(sid, i % 997), i);
  }
  EXPECT_EQ(server.Submit(sid, 1).error(), ServeErr::kQueueFull);
  EXPECT_EQ(server.stats().queue_full_rejections, 1u);
  EXPECT_EQ(server.queue_depth(), kRequestWindow);
  ASSERT_TRUE(server.PumpOne());  // serves ids 1..32
  EXPECT_EQ(server.Poll(1)->value, 3u);
  EXPECT_EQ(*server.Submit(sid, 7), kRequestWindow + 1);
  EXPECT_EQ(server.Poll(1), nullptr);
  server.Drain();
  EXPECT_EQ(server.stats().requests_completed, kRequestWindow + 1);
  EXPECT_EQ(server.stats().requests_failed, 0u);
  EXPECT_EQ(server.Poll(2)->value, 5u);
  EXPECT_EQ(server.Poll(kRequestWindow + 1)->value, 15u);
}

// The scheduler as it was before the request ring, kept here as the
// reference: one submission queue in submit order that every round scans and
// rebuilds, the same LRU residency and execution, and a map that keeps every
// result. It runs on a world of its own.
class ReferenceServer {
 public:
  struct Round {
    SessionId session;
    std::vector<RequestId> ids;
    bool operator==(const Round&) const = default;
  };

  ReferenceServer(ProgramCatalog catalog, const Server::Config& config)
      : catalog_(std::move(catalog)), config_(config),
        world_(config.nsecure_pages, MonitorConfigFor(config)) {}

  SessionId CreateSession(const std::string& program) {
    Session s;
    s.entry = catalog_.Find(program);
    s.shared_pgnr = world_.os.AllocInsecurePage();
    sessions_.emplace(next_session_, s);
    return next_session_++;
  }

  word DestroySession(SessionId sid) {
    Session& s = sessions_.at(sid);
    word dropped = 0;
    std::deque<Pending> rest;
    for (const Pending& p : queue_) {
      if (p.session == sid) {
        Finish(p, false, RequestFailure::kSessionDestroyed, 0, KomErr::kSuccess);
        ++dropped;
      } else {
        rest.push_back(p);
      }
    }
    queue_ = std::move(rest);
    if (s.built) {
      Evict(s);
    }
    world_.os.FreeInsecurePage(s.shared_pgnr);
    sessions_.erase(sid);
    return dropped;
  }

  std::optional<RequestId> Submit(SessionId sid, word arg) {
    if (queue_.size() >= config_.queue_capacity) {
      return std::nullopt;
    }
    queue_.push_back({next_request_, sid, arg, world_.machine.cycles.total()});
    return next_request_++;
  }

  std::optional<Round> PumpOne() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    const SessionId sid = queue_.front().session;
    Session& s = sessions_.at(sid);
    const size_t max_batch = config_.batching && s.entry->batch_abi ? kServeBatchMax : 1;
    std::vector<Pending> batch;
    std::deque<Pending> rest;
    for (const Pending& p : queue_) {
      if (p.session == sid && batch.size() < max_batch) {
        batch.push_back(p);
      } else {
        rest.push_back(p);
      }
    }
    queue_ = std::move(rest);
    if (s.built) {
      lru_.remove(sid);
      lru_.push_back(sid);
    }
    Execute(sid, s, batch);
    Round round{sid, {}};
    for (const Pending& p : batch) {
      round.ids.push_back(p.id);
    }
    return round;
  }

  const std::map<RequestId, RequestResult>& done() const { return done_; }

 private:
  struct Session {
    const CatalogEntry* entry = nullptr;
    bool built = false;
    os::EnclaveHandle enclave;
    word shared_pgnr = 0;
  };
  struct Pending {
    RequestId id;
    SessionId session;
    word arg;
    uint64_t submit_cycles;
  };

  static Monitor::Config MonitorConfigFor(const Server::Config& config) {
    Monitor::Config mc;
    mc.max_enclave_steps = config.steps_per_slice;
    mc.opt_skip_redundant_tlb_flush = true;
    mc.opt_lazy_banked_regs = true;
    return mc;
  }

  void Evict(Session& s) {
    resident_pages_ -= s.enclave.SecurePageCount();
    world_.os.DestroyEnclave(s.enclave);
    s.enclave = os::EnclaveHandle{};
    s.built = false;
    lru_.remove_if([&](SessionId id) { return &sessions_.at(id) == &s; });
  }

  KomErr EnsureBuilt(SessionId sid, Session& s) {
    if (s.built) {
      return KomErr::kSuccess;
    }
    while (resident_pages_ + 7 > config_.secure_page_budget) {
      if (lru_.empty()) {
        return KomErr::kInvalidArgument;
      }
      Evict(sessions_.at(lru_.front()));
    }
    auto built = world_.os.NewEnclave().Code(s.entry->code).SharedPage(s.shared_pgnr).Build();
    if (!built.ok()) {
      return built.error();
    }
    s.enclave = *std::move(built);
    s.built = true;
    lru_.push_back(sid);
    resident_pages_ += s.enclave.SecurePageCount();
    return KomErr::kSuccess;
  }

  void Finish(const Pending& p, bool ok, RequestFailure failure, word value, KomErr err) {
    RequestResult r;
    r.ok = ok;
    r.failure = failure;
    r.value = value;
    r.err = err;
    r.latency_cycles = world_.machine.cycles.total() - p.submit_cycles;
    done_.emplace(p.id, r);
  }

  void Execute(SessionId sid, Session& s, const std::vector<Pending>& batch) {
    const KomErr build_err = EnsureBuilt(sid, s);
    if (build_err != KomErr::kSuccess) {
      for (const Pending& p : batch) {
        Finish(p, false, RequestFailure::kBuildFailed, 0, build_err);
      }
      return;
    }
    auto& os = world_.os;
    os::EnterResult r;
    if (s.entry->batch_abi) {
      os.WriteInsecure(s.shared_pgnr, 0, static_cast<word>(batch.size()));
      for (word i = 0; i < batch.size(); ++i) {
        os.WriteInsecure(s.shared_pgnr, 1 + i, batch[i].arg);
      }
      r = os.Enter(s.enclave.thread);
    } else {
      r = os.Enter(s.enclave.thread, batch[0].arg);
    }
    for (word slices = 1; r.interrupted(); ++slices) {
      if (slices >= config_.timeout_slices) {
        for (const Pending& p : batch) {
          Finish(p, false, RequestFailure::kTimeout, 0, KomErr::kInterrupted);
        }
        Evict(s);
        return;
      }
      r = os.Resume(s.enclave.thread);
    }
    for (word i = 0; i < batch.size(); ++i) {
      if (r.exited()) {
        Finish(batch[i], true, RequestFailure::kNone,
               s.entry->batch_abi ? os.ReadInsecure(s.shared_pgnr, 33 + i) : r.payload,
               KomErr::kSuccess);
      } else {
        Finish(batch[i], false,
               r.faulted() ? RequestFailure::kEnclaveFault : RequestFailure::kMonitorDenied,
               r.payload, r.err);
      }
    }
  }

  ProgramCatalog catalog_;
  Server::Config config_;
  os::World world_;
  std::map<SessionId, Session> sessions_;
  std::list<SessionId> lru_;
  std::deque<Pending> queue_;
  std::map<RequestId, RequestResult> done_;
  SessionId next_session_ = 1;
  RequestId next_request_ = 1;
  word resident_pages_ = 0;
};

auto ResultKey(const RequestResult& r) {
  return std::make_tuple(r.ok, r.failure, r.value, r.err, r.latency_cycles);
}

// Seeded traces of Submit (into kQueueFull backpressure), PumpOne, Drain and
// DestroySession over batch and single-shot programs, a spinning one that
// times out, and an eviction-active budget, with batching on and off: the
// server and the reference must run the same rounds, (session, request ids)
// in order, and give every request the same result.
TEST(ServeRingTest, SchedulesLikeTheSingleQueueReference) {
  for (const bool batching : {true, false}) {
    for (const uint64_t seed : {1ull, 0xfeedbeefcafeull, 20261016ull}) {
      SCOPED_TRACE(testing::Message() << "batching " << batching << " seed " << seed);
      Server::Config c;
      c.nsecure_pages = 96;
      c.secure_page_budget = 35;  // 5 resident enclaves: eviction is active
      c.queue_capacity = 64;
      c.steps_per_slice = 5000;
      c.timeout_slices = 2;
      c.batching = batching;
      Server server(DefaultCatalog(), c);
      ReferenceServer ref(DefaultCatalog(), c);
      const std::vector<std::string> programs = {"counter", "echo",    "add_two", "counter",
                                                 "echo",    "add_two", "counter", "spin"};
      std::vector<SessionId> sids;
      for (const std::string& p : programs) {
        sids.push_back(*server.CreateSession(p));
        ASSERT_EQ(ref.CreateSession(p), sids.back());
      }
      uint64_t x = seed;
      auto rnd = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
      };
      std::vector<RequestId> inflight;  // submit order
      std::map<RequestId, SessionId> session_of;
      // The requests the server finished since the last call, in id order.
      auto finished = [&]() {
        std::vector<RequestId> ids;
        std::erase_if(inflight, [&](RequestId id) {
          const bool done = server.Poll(id) != nullptr;
          if (done) {
            ids.push_back(id);
          }
          return done;
        });
        return ids;
      };
      std::vector<ReferenceServer::Round> rounds, ref_rounds;
      auto pump = [&]() {
        const std::optional<ReferenceServer::Round> ref_round = ref.PumpOne();
        EXPECT_EQ(server.PumpOne(), ref_round.has_value());
        if (ref_round.has_value()) {
          const std::vector<RequestId> ids = finished();
          rounds.push_back({ids.empty() ? 0 : session_of.at(ids.front()), ids});
          ref_rounds.push_back(*ref_round);
        }
        return ref_round.has_value();
      };
      uint64_t refused = 0;
      uint64_t destroyed = 0;
      for (int op = 0; op < 1500; ++op) {
        const uint64_t r = rnd() % 100;
        if (r < 2) {
          const size_t k = rnd() % sids.size();
          const word dropped = ref.DestroySession(sids[k]);
          ASSERT_EQ(*server.DestroySession(sids[k]), dropped);
          destroyed += dropped;
          EXPECT_EQ(finished().size(), dropped);
          sids[k] = *server.CreateSession(programs[k]);
          ASSERT_EQ(ref.CreateSession(programs[k]), sids[k]);
        } else if (r < 14) {
          pump();
        } else if (r < 15) {
          while (pump()) {
          }
        } else {
          // Half the requests go to the first session, so its batches fill
          // up; the spinning session gets one request in 32.
          const uint64_t pick = rnd() % 64;
          const size_t k = pick < 2    ? sids.size() - 1
                           : pick < 33 ? 0
                                       : rnd() % (sids.size() - 1);
          const word arg = static_cast<word>(rnd() % 1000);
          const std::optional<RequestId> ref_id = ref.Submit(sids[k], arg);
          const auto id = server.Submit(sids[k], arg);
          ASSERT_EQ(id.ok(), ref_id.has_value());
          if (id.ok()) {
            ASSERT_EQ(*id, *ref_id);
            inflight.push_back(*id);
            session_of[*id] = sids[k];
          } else {
            EXPECT_EQ(id.error(), ServeErr::kQueueFull);
            ++refused;
          }
        }
        ASSERT_EQ(server.queue_depth(), inflight.size());
      }
      while (pump()) {
      }
      EXPECT_EQ(rounds, ref_rounds);
      ASSERT_EQ(ref.done().size(), session_of.size());
      for (const auto& [id, result] : ref.done()) {
        const RequestResult* r = server.Poll(id);
        ASSERT_NE(r, nullptr) << "request " << id;
        EXPECT_EQ(ResultKey(*r), ResultKey(result)) << "request " << id;
      }
      // The traces reach every path they are meant to.
      const ServerStats& st = server.stats();
      size_t largest = 0;
      for (const ReferenceServer::Round& round : rounds) {
        largest = std::max(largest, round.ids.size());
      }
      EXPECT_EQ(largest, batching ? kServeBatchMax : 1u);
      EXPECT_GT(refused, 0u);
      EXPECT_GT(destroyed, 0u);
      EXPECT_GT(st.evictions, 0u);
      EXPECT_GT(st.requests_failed, destroyed);  // timeouts too
      EXPECT_EQ(st.queue_full_rejections, refused);
    }
  }
}

}  // namespace
}  // namespace komodo::serve
