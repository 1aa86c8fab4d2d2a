// serve-churn and serve-resident: an open-loop load generator in simulated
// time driving one komodo-serve Server through Submit/PumpOne.
//
// Arrivals follow a seeded Poisson process on the simulated cycle clock
// (`world().machine.cycles.total()` plus a virtual idle offset). When the
// queue is empty the generator jumps the idle offset to the next arrival;
// otherwise it submits every request that is due and runs one scheduling
// round. The generator never reads the host clock, so batching, eviction,
// every reply and every simulated latency are identical on any host at any
// speed; only host time varies.
//
// Each rep builds a fresh server (the set-up: sessions plus one warm-up
// request per session) and then serves a fixed number of requests. Reps of
// one run are identical in everything simulated, which the harness checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/serve/server.h"

namespace komodo::perfbench {
namespace {

using serve::RequestId;
using serve::RequestResult;
using serve::Server;
using serve::SessionId;

struct ServeShape {
  const char* name;
  word sessions;
  word hot;                    // 3 of 4 requests go to sessions [0, hot)
  word budget_pages;           // serve-layer secure-page budget
  double arrivals_per_mcycle;  // Poisson rate per million simulated cycles
  uint64_t requests;           // timed requests per rep
  bool resident;               // the budget holds every session
  int setups;                  // set-ups per rep (only the last is served)
};

// 30 catalog enclaves of 7 pages fit the churn budget: the hot set stays
// resident, the cold tail of 1,000 sessions does not.
constexpr ServeShape kChurn{"serve-churn", 1000, 16, 210, 4.0, 40'000, false, 2};
// All 64 sessions fit, so nothing is evicted after the warm-up.
constexpr ServeShape kResident{"serve-resident", 64, 8, 448, 2000.0, 200'000, true, 5};

// Large enough that an open-loop burst never meets backpressure.
constexpr size_t kQueueCapacity = 4096;
// Rounds written out as spans: the last ones of the first traced rep, whose
// monitor events the tracer's ring (65,536 events) still holds at its end.
constexpr size_t kSpanRounds = 256;

struct Pending {
  RequestId id;
  size_t session;    // index into the session table
  word arg;
  uint64_t due;      // virtual cycles
  uint64_t submit;   // virtual cycles at Submit
  uint64_t host_ns;  // host clock at Submit (span file only)
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

// Everything a rep measured. `exact` holds only simulated quantities and
// must be identical across reps of one seed; `layers` holds the traced
// per-layer metrics.
struct RepResult {
  RepTiming timing;
  uint64_t failed = 0;
  Metrics exact;
  Metrics layers;
};

class ServeRep {
 public:
  ServeRep(const ServeShape& shape, uint64_t seed, Report& report)
      : shape_(shape), rng_(seed ^ 0x5e47e5e47eull), report_(report) {}

  // Builds the server. Sessions alternate counter/echo; one warm-up request
  // per session builds (and, past the budget, evicts) every enclave once.
  void SetUp() {
    Server::Config cfg;
    cfg.secure_page_budget = shape_.budget_pages;
    cfg.nsecure_pages = shape_.budget_pages + 16;
    cfg.queue_capacity = kQueueCapacity;
    server_ = std::make_unique<Server>(serve::DefaultCatalog(), cfg);
    for (word i = 0; i < shape_.sessions; ++i) {
      const auto sid = server_->CreateSession(i % 2 == 0 ? "counter" : "echo");
      if (!sid.ok()) {
        report_.Fail("CreateSession failed");
        return;
      }
      sids_.push_back(*sid);
    }
    queues_.resize(sids_.size());
    counters_.assign(sids_.size(), 0);
    for (size_t i = 0; i < sids_.size(); ++i) {
      Submit(i, static_cast<word>(i % 997), Now());
      Round(Now());
    }
    if (failed_ != 0) {
      report_.Fail("warm-up requests failed");
    }
    latency_.clear();
    wait_.clear();
    service_.clear();
    served_ = 0;
    failed_ = 0;
    digest_ = 0;
    queue_max_ = 0;
    busy_cycles_ = 0;
    rounds_ = 0;
  }

  // Serves the timed requests after SetUp(). A traced rep enables the
  // monitor's tracer for the timed window and, when `spans` is given,
  // records the span file.
  RepResult Measure(bool traced, std::string* spans) {
    RepResult out;
    obs::Observability& obs = server_->world().monitor.obs();
    if (traced) {
      obs.Enable();
    }
    traced_ = traced;
    record_spans_ = spans != nullptr;
    const serve::ServerStats s0 = server_->stats();
    const MachineCounters m0 = MachineCounters::Read(server_->world().machine);
    const Stopwatch window;
    window_start_ns_ = HostNs();
    TimedWindow();
    const double wall_s = window.Seconds();
    out.timing.wall_s = wall_s;
    out.timing.ops = static_cast<double>(shape_.requests);
    const MachineCounters dm = MachineCounters::Read(server_->world().machine) - m0;
    const serve::ServerStats& s1 = server_->stats();

    const double n = static_cast<double>(shape_.requests);
    out.failed = failed_;
    Metrics& x = out.exact;
    x["serve.sim_p50_us"] = static_cast<double>(Percentile(latency_, 0.50)) / kSimCyclesPerUs;
    x["serve.sim_p99_us"] = static_cast<double>(Percentile(latency_, 0.99)) / kSimCyclesPerUs;
    x["serve.sim_wait_p99_us"] = static_cast<double>(Percentile(wait_, 0.99)) / kSimCyclesPerUs;
    x["serve.sim_service_p99_us"] =
        static_cast<double>(Percentile(service_, 0.99)) / kSimCyclesPerUs;
    x["serve.queue_depth_max"] = static_cast<double>(queue_max_);
    x["serve.rebuilds_per_req"] = static_cast<double>(s1.rebuilds - s0.rebuilds) / n;
    x["serve.evictions_per_req"] = static_cast<double>(s1.evictions - s0.evictions) / n;
    x["serve.rounds_per_req"] = static_cast<double>(s1.batches - s0.batches) / n;
    x["serve.world_switches_per_req"] =
        static_cast<double>(s1.world_switches - s0.world_switches) / n;
    x["serve.rebuilds"] = static_cast<double>(s1.rebuilds - s0.rebuilds);
    x["serve.evictions"] = static_cast<double>(s1.evictions - s0.evictions);
    x["serve.sim_busy_frac"] =
        static_cast<double>(busy_cycles_) / static_cast<double>(window_cycles_);
    x["core.sim_cycles"] = static_cast<double>(dm.cycles);
    x["arm.steps"] = static_cast<double>(dm.steps);
    x["digest"] = static_cast<double>(digest_ >> 11);  // 53 bits survive a double

    if (traced) {
      const SmcTimes smc = SmcTimes::Read(obs);
      Metrics& l = out.layers;
      AddMachineLayers(l, dm, smc);
      const double rounds_s = round_rebuild_s_ + round_resident_s_;
      l["serve.round_rebuild_s"] = round_rebuild_s_;
      l["serve.round_resident_s"] = round_resident_s_;
      l["serve.self_s"] = rounds_s - smc.total_seconds;
      l["serve.submit_s"] = submit_s_;
      l["serve.generator_frac"] = (wall_s - rounds_s - submit_s_) / wall_s;
      for (const char* k : {"serve.rebuilds_per_req", "serve.evictions_per_req",
                            "serve.rounds_per_req", "serve.world_switches_per_req",
                            "serve.sim_p50_us", "serve.sim_p99_us", "serve.sim_wait_p99_us",
                            "serve.sim_service_p99_us", "serve.queue_depth_max"}) {
        l[k] = x[k];
      }
      // Every round is SMC time plus serve self time, and the layers fit in
      // the traced wall time.
      if (l["serve.self_s"] < 0.0 || rounds_s + submit_s_ > wall_s) {
        report_.Fail("serve layer times do not fit the traced wall time");
      }
      if (spans != nullptr && !SpanJson(obs, spans)) {
        report_.Fail("span file lacks the SMC spans of its rounds");
      }
    }
    return out;
  }

 private:
  uint64_t Now() const { return server_->world().machine.cycles.total() + idle_offset_; }

  uint64_t Gap() {
    const double mean = 1e6 / shape_.arrivals_per_mcycle;
    return static_cast<uint64_t>(-std::log(rng_.Unit()) * mean + 0.5);
  }

  void TimedWindow() {
    latency_.reserve(shape_.requests);
    wait_.reserve(shape_.requests);
    service_.reserve(shape_.requests);
    const uint64_t start = Now();
    uint64_t next_due = start + Gap();
    uint64_t submitted = 0;
    while (served_ < shape_.requests) {
      const uint64_t now = Now();
      while (submitted < shape_.requests && next_due <= now) {
        const uint64_t r = rng_.Next();
        const size_t session =
            r % 4 != 0 ? rng_.Next() % shape_.hot : rng_.Next() % sids_.size();
        Submit(session, static_cast<word>(rng_.Next() % 997), next_due);
        ++submitted;
        next_due += Gap();
      }
      if (fifo_.empty()) {
        idle_offset_ += next_due - now;
        continue;
      }
      Round(now);
    }
    window_cycles_ = Now() - start;
  }

  void Submit(size_t session, word arg, uint64_t due) {
    const uint64_t host = traced_ ? HostNs() : 0;
    const auto rid = server_->Submit(sids_[session], arg);
    if (traced_) {
      submit_s_ += static_cast<double>(HostNs() - host) * 1e-9;
    }
    if (!rid.ok()) {
      report_.Fail(std::string("Submit refused: ") + serve::ServeErrName(rid.error()));
      ++failed_;
      ++served_;
      return;
    }
    const Pending p{*rid, session, arg, due, Now(), host};
    queues_[session].push_back(p);
    fifo_.push_back({p.id, session});
    queue_max_ = std::max<uint64_t>(queue_max_, server_->queue_depth());
  }

  // One scheduling round: the head-of-line session's batch.
  void Round(uint64_t now) {
    const size_t session = fifo_.front().second;
    // A round that has to build the enclave restarts its counter at zero.
    const bool rebuild = !server_->session_built(sids_[session]);
    if (rebuild) {
      counters_[session] = 0;
    }
    const obs::Observability& obs = server_->world().monitor.obs();
    const uint64_t host0 = traced_ ? HostNs() : 0;
    const uint64_t events0 = obs.counters().events_recorded;
    const uint64_t cycles0 = server_->world().machine.cycles.total();
    server_->PumpOne();
    busy_cycles_ += server_->world().machine.cycles.total() - cycles0;
    const uint64_t host1 = traced_ ? HostNs() : 0;
    if (traced_) {
      (rebuild ? round_rebuild_s_ : round_resident_s_) +=
          static_cast<double>(host1 - host0) * 1e-9;
    }
    SpanRound* span = nullptr;
    if (record_spans_) {
      span_rounds_.push_back({rounds_, host0, host1, sids_[session], rebuild, {}, events0,
                              obs.counters().events_recorded});
      if (span_rounds_.size() > kSpanRounds) {
        span_rounds_.pop_front();
      }
      span = &span_rounds_.back();
    }

    uint64_t completed = 0;
    std::deque<Pending>& q = queues_[session];
    while (!q.empty()) {
      const Pending& p = q.front();
      const RequestResult* r = server_->Poll(p.id);
      if (r == nullptr) {
        break;
      }
      Check(p, *r, session);
      const uint64_t done = p.submit + r->latency_cycles;
      latency_.push_back(done - p.due);
      wait_.push_back(now - p.due);
      service_.push_back(done - now);
      digest_ = Mix(Mix(Mix(digest_, p.id), r->value), done - p.due);
      if (span != nullptr) {
        span->requests.push_back({p.id, p.host_ns});
      }
      q.pop_front();
      ++served_;
      ++completed;
    }
    if (completed == 0) {
      report_.Fail("a scheduling round completed no request");
      ++failed_;
      ++served_;  // never spin: give up on the request
    }
    while (!fifo_.empty() && server_->Poll(fifo_.front().first) != nullptr) {
      fifo_.pop_front();
    }
    ++rounds_;
  }

  // Echo returns 2*arg+1; counter returns the running sum since the
  // session's enclave was last built.
  void Check(const Pending& p, const RequestResult& r, size_t session) {
    if (!r.ok) {
      ++failed_;
      report_.Fail(std::string("request failed: ") + serve::RequestFailureName(r.failure));
      return;
    }
    word expected = 0;
    if (session % 2 == 0) {
      counters_[session] += p.arg;
      expected = counters_[session];
    } else {
      expected = 2 * p.arg + 1;
    }
    if (r.value != expected) {
      ++failed_;
      if (failed_ <= 3) {
        report_.Fail("wrong reply from session " + std::to_string(sids_[session]));
      }
    }
  }

  // Writes the recorded rounds to `out` as chrome://tracing spans linked by
  // request id (request -> round -> SMC). False when some round has no SMC
  // span: its monitor events have left the tracer's ring.
  bool SpanJson(const obs::Observability& obs, std::string* out) const {
    const auto us = [this](uint64_t ns) {
      return std::to_string(static_cast<double>(ns - window_start_ns_) / 1000.0);
    };
    const auto dur = [](uint64_t begin_ns, uint64_t end_ns) {
      return std::to_string(static_cast<double>(end_ns - begin_ns) / 1000.0);
    };
    *out = "{\"traceEvents\": [\n";
    bool first = true;
    const auto add = [&](const std::string& ev) {
      *out += first ? "" : ",\n";
      first = false;
      *out += ev;
    };
    const std::vector<obs::TraceEvent> events = obs.Events();  // oldest first
    size_t e = 0;
    bool complete = !span_rounds_.empty();
    for (const SpanRound& r : span_rounds_) {
      const std::string round = std::to_string(r.round);
      std::string ids;
      for (const auto& [id, submit_ns] : r.requests) {
        ids += (ids.empty() ? "" : ", ") + std::to_string(id);
        add("{\"name\": \"request\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
            us(submit_ns) + ", \"dur\": " + dur(submit_ns, r.end_ns) +
            ", \"args\": {\"request\": " + std::to_string(id) + ", \"round\": " + round + "}}");
      }
      add("{\"name\": \"round\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": " +
          us(r.begin_ns) + ", \"dur\": " + dur(r.begin_ns, r.end_ns) + ", \"args\": {\"round\": " +
          round + ", \"session\": " + std::to_string(r.session) +
          ", \"rebuild\": " + (r.rebuild ? "true" : "false") + ", \"requests\": [" + ids +
          "]}}");
      // SMC spans: the depth-0 begin/end pairs recorded during this round.
      while (e < events.size() && events[e].seq < r.events0) {
        ++e;
      }
      std::vector<uint64_t> begin_ns;
      size_t smcs = 0;
      for (; e < events.size() && events[e].seq < r.events1; ++e) {
        const obs::TraceEvent& ev = events[e];
        if (ev.depth != 0) {
          continue;
        }
        if (ev.kind == obs::EventKind::kSmcBegin) {
          begin_ns.push_back(ev.wall_ns);
        } else if (ev.kind == obs::EventKind::kSmcEnd && !begin_ns.empty()) {
          add("{\"name\": \"smc." + std::string(ev.name) +
              "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 3, \"ts\": " + us(begin_ns.back()) +
              ", \"dur\": " + dur(begin_ns.back(), ev.wall_ns) + ", \"args\": {\"round\": " +
              round + "}}");
          begin_ns.pop_back();
          ++smcs;
        }
      }
      complete = complete && smcs > 0;  // every round enters an enclave
    }
    *out += "\n]}\n";
    return complete;
  }

  struct SpanRound {
    size_t round;  // index of the round in the timed window
    uint64_t begin_ns;
    uint64_t end_ns;
    SessionId session;
    bool rebuild;
    std::vector<std::pair<RequestId, uint64_t>> requests;  // id, host ns at Submit
    uint64_t events0;  // tracer sequence numbers of the round's events
    uint64_t events1;
  };

  const ServeShape& shape_;
  Rng rng_;
  Report& report_;
  std::unique_ptr<Server> server_;
  std::vector<SessionId> sids_;
  std::vector<std::deque<Pending>> queues_;  // per session, submit order
  // All pending requests in submit order with their session index; the
  // front is the server's head of line.
  std::deque<std::pair<RequestId, size_t>> fifo_;
  std::vector<word> counters_;               // expected counter per session
  uint64_t idle_offset_ = 0;
  uint64_t served_ = 0;
  uint64_t failed_ = 0;
  uint64_t digest_ = 0;
  uint64_t queue_max_ = 0;
  uint64_t busy_cycles_ = 0;
  uint64_t window_cycles_ = 0;
  std::vector<uint64_t> latency_, wait_, service_;
  bool traced_ = false;
  bool record_spans_ = false;
  uint64_t window_start_ns_ = 0;
  double round_rebuild_s_ = 0.0;
  double round_resident_s_ = 0.0;
  double submit_s_ = 0.0;
  size_t rounds_ = 0;
  std::deque<SpanRound> span_rounds_;  // the last kSpanRounds rounds
};

void RunServe(const ServeShape& shape, const Options& opts, Report& report) {
  std::vector<Metrics> exact;
  std::vector<Metrics> layers;
  std::string spans;
  const auto run_rep = [&](uint64_t, bool traced) {
    std::unique_ptr<ServeRep> rep;
    std::vector<double> setup_s;
    for (int i = 0; i < shape.setups; ++i) {
      rep.reset();
      const Stopwatch setup;
      rep = std::make_unique<ServeRep>(shape, opts.seed, report);
      rep->SetUp();
      setup_s.push_back(setup.Seconds());
    }
    RepResult r = rep->Measure(traced, traced && spans.empty() ? &spans : nullptr);
    r.timing.setup_s = setup_s;
    report.attempted += shape.requests;
    report.failed += r.failed;
    exact.push_back(r.exact);
    if (traced) {
      layers.push_back(r.layers);
    }
    return r.timing;
  };
  const RepSeries series = RunReps(opts, opts.trace ? 4 : 3, run_rep);

  const Metrics& x = exact.front();
  for (const Metrics& e : exact) {
    if (e != x) {
      report.Fail("reps of one seed differ in simulated results");
    }
  }
  if (shape.resident && x.at("serve.evictions") != 0) {
    report.Fail("serve-resident evicted after warm-up");
  }

  Info("serve_req_per_s", series.OpsPerSecond(), "1/s");
  Info("serve_sim_p50_us", x.at("serve.sim_p50_us"), "us");
  Info("serve_sim_p99_us", x.at("serve.sim_p99_us"), "us");
  Info("serve.sim_busy_frac", x.at("serve.sim_busy_frac"), "ratio");
  // The determinism line the self-test compares across runs and seeds.
  char det[256];
  std::snprintf(det, sizeof(det),
                "digest=%.0f p50_us=%.17g p99_us=%.17g sim_cycles=%.0f steps=%.0f rebuilds=%.0f",
                x.at("digest"), x.at("serve.sim_p50_us"), x.at("serve.sim_p99_us"),
                x.at("core.sim_cycles"), x.at("arm.steps"), x.at("serve.rebuilds"));
  InfoText("determinism", det);

  if (!opts.trace) {
    ReportEndToEnd(report, series);
    return;
  }
  for (const auto& [name, value] : MedianOf(layers)) {
    report.Metric(name, value);
  }
  report.Metric("tracing_overhead", series.TracingOverhead());
  const std::string path = opts.out_dir + "/spans-" + shape.name + ".json";
  if (!WriteFile(path, spans)) {
    report.Fail("cannot write " + path);
  } else {
    InfoText("spans", path);
  }
}

}  // namespace

void RunServeChurn(const Options& opts, Report& report) { RunServe(kChurn, opts, report); }
void RunServeResident(const Options& opts, Report& report) {
  RunServe(kResident, opts, report);
}

}  // namespace komodo::perfbench
