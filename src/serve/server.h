// komodo-serve (DESIGN.md §14): a long-running daemon model that multiplexes
// many concurrent enclave sessions over one Komodo world on one core —
// the role a hosting OS plays above the monitor.
//
//   CreateSession(program)  pick a program from the catalog; allocate the
//                           session's shared insecure page (stable across
//                           rebuilds — it is the client-visible buffer)
//   Submit(session, arg)    enqueue a request and return its id
//   Poll / Wait             observe or drive a request to completion
//   DestroySession          fail queued requests, tear the enclave down
//
// The request contract:
//   * Submit answers kQueueFull (backpressure) when queue_capacity requests
//     are pending, or when the ring slot of the next id still holds a pending
//     request, which takes more than kRequestWindow ids in flight. A pending
//     request is never dropped. Ids are issued in order from 1; id 0 is never
//     issued, also after the 32-bit counter wraps.
//   * A finished request's result is kept until kRequestWindow more ids have
//     been issued. Poll returns it, and the pointer stays valid, for that
//     long; Poll returns nullptr while the request is pending and once it has
//     left the window.
//   * Wait pumps the scheduler until the request finishes and returns its
//     result; an id that is neither pending nor kept (never issued, expired,
//     or 0) is kUnknownRequest at once, without pumping.
// Every call is amortised O(1) per request: one ring of kRequestWindow slots
// holds each pending request and then its result, and each session's
// pending requests form a FIFO threaded through the ring.
//
// Scheduling is deterministic and single-threaded: PumpOne() takes the
// head-of-line request (the oldest pending id), coalesces the next pending
// requests of the same session in submit order (up to kServeBatchMax when
// the program speaks the batch ABI) into ONE world switch, and executes it.
// Under a secure-page budget, idle sessions are LRU-evicted (Stop + Remove of
// all their secure pages) and rebuilt from the catalog on demand — rebuilt
// enclaves restart from their measured initial state, exactly as a freshly
// booted Komodo enclave would; nothing survives eviction except the shared
// insecure page.
//
// Requests that exceed the timeout budget (timeout_slices interrupted
// entries of steps_per_slice interpreted steps each) fail with kTimeout and
// the wedged enclave is destroyed. All failures are typed (RequestFailure),
// never raw ABI words.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/os/expected.h"
#include "src/os/world.h"
#include "src/serve/catalog.h"

namespace komodo::serve {

// Max requests one batch-ABI Enter can service (shared[0]=n, args at
// shared[1..32], results at shared[33..64]; one 1024-word page holds both).
inline constexpr word kServeBatchMax = 32;

// Request ids whose results a server keeps (see the contract above); a power
// of two, so an id's ring slot is its low bits.
inline constexpr word kRequestWindow = 65536;

using SessionId = word;
using RequestId = word;

enum class ServeErr : word {
  kNone = 0,
  kUnknownProgram,
  kUnknownSession,
  kUnknownRequest,
  kQueueFull,
};

const char* ServeErrName(ServeErr e);

enum class RequestFailure : word {
  kNone = 0,        // completed successfully
  kTimeout,         // exceeded timeout_slices interrupted resumes
  kEnclaveFault,    // enclave took an abort/undef; value = declassified code
  kMonitorDenied,   // monitor refused the Enter/Resume (see err)
  kBuildFailed,     // enclave (re)construction failed (see err)
  kSessionDestroyed,  // DestroySession raced the queued request
};

const char* RequestFailureName(RequestFailure f);

struct RequestResult {
  bool ok = false;
  RequestFailure failure = RequestFailure::kNone;
  word value = 0;             // per-request result / fault code
  KomErr err = KomErr::kSuccess;  // monitor error for kMonitorDenied/kBuildFailed
  uint64_t latency_cycles = 0;    // submit -> completion, simulated cycles
};

struct ServerStats {
  KOMODO_SERVE_COUNTERS(KOMODO_COUNTER_FIELD)
  obs::Histogram request_latency_cycles;
  obs::Histogram batch_size;
};

class Server {
 public:
  struct Config {
    // Secure pages of the underlying world (hardware) and the serve-layer
    // resident budget (policy; must leave room for at least one enclave).
    word nsecure_pages = arm::kDefaultSecurePages;
    word secure_page_budget = arm::kDefaultSecurePages;
    size_t queue_capacity = 64;
    // Timeout = timeout_slices slices of steps_per_slice interpreted steps,
    // *counting the initial Enter as the first slice*: a request gets
    // timeout_slices - 1 Resumes before it is failed with kTimeout, and
    // timeout_slices = 1 allows no Resume at all.
    uint64_t steps_per_slice = 200'000;
    word timeout_slices = 4;
    // Coalesce same-session requests into one Enter (batch-ABI programs).
    bool batching = true;
  };

  explicit Server(ProgramCatalog catalog) : Server(std::move(catalog), Config{}) {}
  Server(ProgramCatalog catalog, const Config& config);

  Expected<SessionId, ServeErr> CreateSession(const std::string& program);
  // Fails queued requests with kSessionDestroyed; returns how many.
  Expected<word, ServeErr> DestroySession(SessionId session);

  Expected<RequestId, ServeErr> Submit(SessionId session, word arg);
  // nullptr while the request is pending, and for an id outside the window.
  const RequestResult* Poll(RequestId request) const;
  // Pumps the scheduler until the request finishes.
  Expected<RequestResult, ServeErr> Wait(RequestId request);

  // Executes one scheduling round (one session's coalesced batch); returns
  // false when the queue is empty.
  bool PumpOne();
  void Drain();

  size_t queue_depth() const { return pending_; }
  // Secure pages currently charged against the budget by built enclaves.
  word resident_pages() const { return resident_pages_; }
  bool session_built(SessionId session) const;
  const ServerStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  os::World& world() { return world_; }

  // komodo-metrics-v1 document: monitor counters + per-call stats from the
  // world's tracer (zero unless tracing is enabled) plus a "serve" section
  // with the queue/eviction counters and request-latency histogram.
  std::string ExportMetrics() const;
  bool WriteMetrics(const std::string& path) const;

 private:
  struct Session {
    std::string program;
    const CatalogEntry* entry = nullptr;
    bool built = false;
    os::EnclaveHandle enclave;
    word shared_pgnr = 0;      // allocated once; survives rebuilds
    uint64_t builds = 0;
    std::list<SessionId>::iterator lru{};  // its place in lru_ while built
    // The session's pending requests, oldest first, linked through their
    // slots' `next`; 0 when there are none.
    RequestId head = 0;
    RequestId tail = 0;
  };

  // A pending request's fields share the slot with its result.
  struct Queued {
    SessionId session;
    word arg;
    RequestId next;  // the session's next pending request, 0 for none
    uint64_t submit_cycles;
  };
  // The ring slot of every id congruent to its index modulo kRequestWindow:
  // the id it last held (0 for none), then that request while it is pending
  // and its result once it has finished.
  struct Slot {
    Slot() : queued{} {}
    RequestId id = 0;
    bool pending = false;
    union {
      Queued queued;
      RequestResult result;
    };
  };

  static Monitor::Config MonitorConfigFor(const Config& config);
  // Evicts the least recently used built sessions until the enclave fits
  // the budget, then builds. kSuccess or the first monitor error.
  KomErr EnsureBuilt(SessionId sid, Session& s);
  // Tears down a built session's enclave; its shared page survives.
  void Evict(Session& s);
  // Runs one round over `batch`, the session's oldest pending requests in
  // submit order, and finishes each of them.
  void ExecuteRound(SessionId sid, Session& s, std::span<const RequestId> batch);
  // The slot holding `request`, or nullptr when the ring no longer (or never)
  // held it.
  const Slot* Find(RequestId request) const;
  Slot& SlotOf(RequestId request) { return ring_[request & (kRequestWindow - 1)]; }
  // Moves oldest_ past finished ids: to the head of line, or to next_request_
  // when nothing is pending. Every id passes it once, so this is amortised
  // O(1) per request.
  void SkipFinished();
  // Turns a pending request's slot into its result: completed for kNone,
  // failed otherwise.
  void Finish(RequestId request, RequestFailure failure, word value, KomErr err);

  ProgramCatalog catalog_;
  Config config_;
  os::World world_;
  std::unordered_map<SessionId, Session> sessions_;
  // Built sessions, least recently scheduled first: eviction takes the front
  // and a scheduling round moves its session to the back, both O(1).
  std::list<SessionId> lru_;
  // Reserved to kRequestWindow slots at construction and grown one slot per
  // id up to it, so it never reallocates and pages are touched as ids grow.
  std::vector<Slot> ring_;
  size_t pending_ = 0;
  SessionId next_session_ = 1;
  RequestId next_request_ = 1;
  // No id before it is pending; SkipFinished moves it to the head of line.
  RequestId oldest_ = 1;
  word resident_pages_ = 0;
  ServerStats stats_;
};

}  // namespace komodo::serve

#endif  // SRC_SERVE_SERVER_H_
