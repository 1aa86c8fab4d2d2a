#include "src/serve/server.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/obs/json.h"

namespace komodo::serve {

namespace {

// Secure-page footprint of a catalog enclave (addrspace + L1 + one L2 +
// thread + code/data/stack pages), used to pre-charge the budget before the
// actual handle exists. All catalog programs fit the conventional layout.
constexpr word kEnclavePages = 7;

static_assert((kRequestWindow & (kRequestWindow - 1)) == 0, "an id's slot is its low bits");

}  // namespace

const char* ServeErrName(ServeErr e) {
  switch (e) {
    case ServeErr::kNone: return "none";
    case ServeErr::kUnknownProgram: return "unknown-program";
    case ServeErr::kUnknownSession: return "unknown-session";
    case ServeErr::kUnknownRequest: return "unknown-request";
    case ServeErr::kQueueFull: return "queue-full";
  }
  return "?";
}

const char* RequestFailureName(RequestFailure f) {
  switch (f) {
    case RequestFailure::kNone: return "none";
    case RequestFailure::kTimeout: return "timeout";
    case RequestFailure::kEnclaveFault: return "enclave-fault";
    case RequestFailure::kMonitorDenied: return "monitor-denied";
    case RequestFailure::kBuildFailed: return "build-failed";
    case RequestFailure::kSessionDestroyed: return "session-destroyed";
  }
  return "?";
}

Monitor::Config Server::MonitorConfigFor(const Config& config) {
  Monitor::Config mc;
  mc.max_enclave_steps = config.steps_per_slice;
  // The serve world always runs both §8.1 monitor fast paths.
  mc.opt_skip_redundant_tlb_flush = true;
  mc.opt_lazy_banked_regs = true;
  return mc;
}

Server::Server(ProgramCatalog catalog, const Config& config)
    : catalog_(std::move(catalog)),
      config_(config),
      world_(config.nsecure_pages, MonitorConfigFor(config)) {
  static_assert(sizeof(Slot) == 32, "a slot is a pending request or a result, not both");
  ring_.reserve(kRequestWindow);
  ring_.emplace_back();  // id 0's slot; the first issued id is 1
}

Expected<SessionId, ServeErr> Server::CreateSession(const std::string& program) {
  const CatalogEntry* entry = catalog_.Find(program);
  if (entry == nullptr) {
    return ServeErr::kUnknownProgram;
  }
  const SessionId sid = next_session_++;
  Session s;
  s.program = program;
  s.entry = entry;
  s.shared_pgnr = world_.os.AllocInsecurePage();
  sessions_.emplace(sid, std::move(s));
  ++stats_.sessions_created;
  return sid;
}

Expected<word, ServeErr> Server::DestroySession(SessionId session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return ServeErr::kUnknownSession;
  }
  Session& s = it->second;
  word dropped = 0;
  RequestId id = s.head;
  while (id != 0) {
    const RequestId next = SlotOf(id).queued.next;
    Finish(id, RequestFailure::kSessionDestroyed, 0, KomErr::kSuccess);
    ++dropped;
    id = next;
  }
  SkipFinished();
  if (s.built) {
    Evict(s);
  }
  world_.os.FreeInsecurePage(s.shared_pgnr);
  sessions_.erase(it);
  ++stats_.sessions_destroyed;
  return dropped;
}

Expected<RequestId, ServeErr> Server::Submit(SessionId session, word arg) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return ServeErr::kUnknownSession;
  }
  if (next_request_ == 0 && !SlotOf(0).pending) {
    // The id counter wrapped. Id 0 is never issued but keeps its place in
    // the window: its slot forgets the result it held, as an issued id would
    // overwrite it.
    SlotOf(0).id = 0;
    next_request_ = 1;
  }
  const RequestId rid = next_request_;
  const size_t index = rid & (kRequestWindow - 1);
  if (index == ring_.size()) {
    ring_.emplace_back();  // within the reserved capacity
  }
  Slot& slot = ring_[index];
  if (pending_ >= config_.queue_capacity || slot.pending) {
    ++stats_.queue_full_rejections;
    return ServeErr::kQueueFull;
  }
  slot.id = rid;
  slot.pending = true;
  slot.queued = Queued{session, arg, 0, world_.machine.cycles.total()};
  Session& s = it->second;
  if (s.tail != 0) {
    SlotOf(s.tail).queued.next = rid;
  } else {
    s.head = rid;
  }
  s.tail = rid;
  ++next_request_;
  ++pending_;
  ++stats_.requests_submitted;
  stats_.queue_depth_hwm = std::max<uint64_t>(stats_.queue_depth_hwm, pending_);
  return rid;
}

const Server::Slot* Server::Find(RequestId request) const {
  const size_t index = request & (kRequestWindow - 1);
  if (request == 0 || index >= ring_.size() || ring_[index].id != request) {
    return nullptr;
  }
  return &ring_[index];
}

void Server::SkipFinished() {
  while (oldest_ != next_request_) {
    const Slot* slot = Find(oldest_);
    if (slot != nullptr && slot->pending) {
      return;
    }
    ++oldest_;
  }
}

const RequestResult* Server::Poll(RequestId request) const {
  const Slot* slot = Find(request);
  return slot != nullptr && !slot->pending ? &slot->result : nullptr;
}

Expected<RequestResult, ServeErr> Server::Wait(RequestId request) {
  while (true) {
    const Slot* slot = Find(request);
    if (slot == nullptr) {
      return ServeErr::kUnknownRequest;
    }
    if (!slot->pending) {
      return slot->result;
    }
    PumpOne();
  }
}

bool Server::session_built(SessionId session) const {
  const auto it = sessions_.find(session);
  return it != sessions_.end() && it->second.built;
}

void Server::Evict(Session& s) {
  resident_pages_ -= s.enclave.SecurePageCount();
  world_.os.DestroyEnclave(s.enclave);
  s.enclave = os::EnclaveHandle{};
  s.built = false;
  lru_.erase(s.lru);
}

KomErr Server::EnsureBuilt(SessionId sid, Session& s) {
  if (s.built) {
    return KomErr::kSuccess;
  }
  // LRU-evict built sessions until the new enclave fits the budget; `s`
  // itself is not built, so it is not in the list.
  while (resident_pages_ + kEnclavePages > config_.secure_page_budget) {
    if (lru_.empty()) {
      // Nothing left to evict: the budget cannot fit even this one enclave.
      return KomErr::kInvalidArgument;
    }
    Evict(sessions_.at(lru_.front()));
    ++stats_.evictions;
  }
  auto built = world_.os.NewEnclave().Code(s.entry->code).SharedPage(s.shared_pgnr).Build();
  if (!built.ok()) {
    return built.error();
  }
  s.enclave = *std::move(built);
  s.built = true;
  s.lru = lru_.insert(lru_.end(), sid);
  resident_pages_ += s.enclave.SecurePageCount();
  ++s.builds;
  if (s.builds > 1) {
    ++stats_.rebuilds;
  }
  return KomErr::kSuccess;
}

void Server::Finish(RequestId request, RequestFailure failure, word value, KomErr err) {
  Slot& slot = SlotOf(request);
  RequestResult r;
  r.ok = failure == RequestFailure::kNone;
  r.failure = failure;
  r.value = value;
  r.err = err;
  r.latency_cycles = world_.machine.cycles.total() - slot.queued.submit_cycles;
  if (r.ok) {
    stats_.request_latency_cycles.Add(r.latency_cycles);
    ++stats_.requests_completed;
  } else {
    ++stats_.requests_failed;
  }
  slot.pending = false;
  slot.result = r;
  --pending_;
}

void Server::ExecuteRound(SessionId sid, Session& s, std::span<const RequestId> batch) {
  const KomErr build_err = EnsureBuilt(sid, s);
  if (build_err != KomErr::kSuccess) {
    for (const RequestId id : batch) {
      Finish(id, RequestFailure::kBuildFailed, 0, build_err);
    }
    return;
  }

  auto& os = world_.os;
  os::EnterResult r;
  const word n = static_cast<word>(batch.size());
  if (s.entry->batch_abi) {
    os.WriteInsecure(s.shared_pgnr, 0, n);
    for (word i = 0; i < n; ++i) {
      os.WriteInsecure(s.shared_pgnr, 1 + i, SlotOf(batch[i]).queued.arg);
    }
    r = os.Enter(s.enclave.thread);
  } else {
    r = os.Enter(s.enclave.thread, SlotOf(batch[0]).queued.arg);
  }
  ++stats_.enters;
  ++stats_.world_switches;

  // `slices` counts execution slices already consumed, and the initial Enter
  // is the first one — so timeout_slices is the *total* slice budget, not a
  // resume count. At the boundary, timeout_slices=1 means one Enter and zero
  // Resumes: a request still interrupted after its first slice times out
  // immediately. (Audited against an off-by-one suspicion: the accounting is
  // correct; the boundary test pins it.)
  word slices = 1;
  while (r.interrupted()) {
    if (slices >= config_.timeout_slices) {
      // The thread is wedged mid-run; destroy the enclave so the session can
      // be rebuilt fresh on its next request.
      for (const RequestId id : batch) {
        Finish(id, RequestFailure::kTimeout, 0, KomErr::kInterrupted);
      }
      Evict(s);
      return;
    }
    r = os.Resume(s.enclave.thread);
    ++stats_.resumes;
    ++stats_.world_switches;
    ++slices;
  }

  if (r.exited()) {
    for (word i = 0; i < n; ++i) {
      const word value = s.entry->batch_abi ? os.ReadInsecure(s.shared_pgnr, 33 + i)
                                            : r.payload;
      Finish(batch[i], RequestFailure::kNone, value, KomErr::kSuccess);
    }
  } else {
    const RequestFailure failure =
        r.faulted() ? RequestFailure::kEnclaveFault : RequestFailure::kMonitorDenied;
    for (const RequestId id : batch) {
      Finish(id, failure, r.payload, r.err);
    }
  }
}

bool Server::PumpOne() {
  if (pending_ == 0) {
    return false;
  }
  SkipFinished();
  const SessionId sid = SlotOf(oldest_).queued.session;
  Session& s = sessions_.at(sid);
  const word max_batch = (config_.batching && s.entry->batch_abi) ? kServeBatchMax : 1;

  // The oldest pending request heads its session's FIFO; take the batch off
  // the front before the round overwrites the slots with results.
  std::array<RequestId, kServeBatchMax> batch;
  word n = 0;
  RequestId id = s.head;
  for (; id != 0 && n < max_batch; id = SlotOf(id).queued.next) {
    batch[n++] = id;
  }
  s.head = id;
  if (id == 0) {
    s.tail = 0;
  }

  if (s.built) {
    lru_.splice(lru_.end(), lru_, s.lru);  // most recently used
  }
  ++stats_.batches;
  stats_.batched_requests += n;
  stats_.batch_size.Add(n);
  ExecuteRound(sid, s, std::span(batch.data(), n));
  return true;
}

void Server::Drain() {
  while (PumpOne()) {
  }
}

std::string Server::ExportMetrics() const {
  const obs::Observability& obs = world_.monitor.obs();
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  obs.WriteMetricsMembers(w);
  w.Key("serve");
  w.BeginObject();
#define KOMODO_SERVE_KV(name) w.KV(#name, stats_.name);
  KOMODO_SERVE_COUNTERS(KOMODO_SERVE_KV)
#undef KOMODO_SERVE_KV
  w.KV("resident_pages", static_cast<uint64_t>(resident_pages_));
  w.Key("request_latency_cycles");
  obs::WriteHistogramJson(w, stats_.request_latency_cycles);
  w.Key("batch_size");
  obs::WriteHistogramJson(w, stats_.batch_size);
  w.EndObject();
  w.EndObject();
  return out;
}

bool Server::WriteMetrics(const std::string& path) const {
  return obs::WriteFile(path, ExportMetrics());
}

}  // namespace komodo::serve
