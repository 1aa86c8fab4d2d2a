#include "src/verify/explore.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/call_table.h"
#include "src/core/kom_defs.h"
#include "src/crypto/sha256.h"
#include "src/fuzz/inject.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"
#include "src/verify/canon.h"

namespace komodo::verify {

namespace {

// ---------------------------------------------------------------------------
// Argument domains. One small value set per argument *name*, chosen so every
// guard clause in the specs is exercised: in-world pages (0..pages-1) plus
// one out-of-world probe; a valid and an out-of-range insecure page number;
// the zero (invalid) mapping plus valid mappings in two different L1 groups
// (group 1 makes pagetable_missing reachable when only group 0 has an L2
// table); L1 indices at both edges of the user range. Unrecognized names
// (entrypoints, enter arguments, SVC virtual addresses) pin to 0 — their
// values feed user-mode havoc, not the PageDb relation. Pinning the Attest/
// Verify VAs to 0 keeps their success path (which writes MACs into data
// pages) out of the explored space; the fuzzer covers it instead.
std::vector<word> DomainFor(const std::string& arg_name, word npages) {
  if (arg_name.find("pgnr") != std::string::npos) {
    const word insecure_pages = arm::kInsecureSize / arm::kPageSize;
    return {2, insecure_pages};
  }
  if (arg_name.find("page") != std::string::npos) {
    std::vector<word> d;
    for (word n = 0; n <= npages; ++n) {
      d.push_back(n);
    }
    return d;
  }
  if (arg_name.find("mapping") != std::string::npos) {
    return {0, MakeMapping(0x1000, kMapR | kMapW), MakeMapping(0x401000, kMapR | kMapW)};
  }
  if (arg_name.find("l1index") != std::string::npos) {
    return {0, 1, 256};
  }
  return {0};
}

std::vector<std::string> SplitNames(const char* arg_names) {
  std::vector<std::string> out;
  std::istringstream in(arg_names);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    const size_t a = tok.find_first_not_of(' ');
    const size_t b = tok.find_last_not_of(' ');
    if (a != std::string::npos) {
      out.push_back(tok.substr(a, b - a + 1));
    }
  }
  return out;
}

std::set<std::string> ParseDeclaredErrors(const char* errors) {
  std::set<std::string> out;
  if (std::string(errors) == "-") {
    return out;
  }
  std::istringstream in(errors);
  std::string tok;
  while (std::getline(in, tok, '|')) {
    if (!tok.empty()) {
      out.insert(tok);
    }
  }
  return out;
}

// All argument vectors of one registry row: the cross product of the
// per-argument domains (odometer), times {no-irq, irq} for Enter/Resume.
std::vector<VerifyOp> VectorsFor(const CallInfo& info, word npages) {
  std::vector<std::vector<word>> domains;
  for (const std::string& name : SplitNames(info.arg_names)) {
    domains.push_back(DomainFor(name, npages));
  }
  const bool enterish =
      info.kind == CallKind::kSmc && (info.number == kSmcEnter || info.number == kSmcResume);

  std::vector<VerifyOp> out;
  std::vector<size_t> idx(domains.size(), 0);
  for (bool more = true; more;) {
    VerifyOp op;
    op.is_svc = info.kind == CallKind::kSvc;
    op.call = info.number;
    for (size_t i = 0; i < domains.size(); ++i) {
      op.args[i] = domains[i][idx[i]];
    }
    out.push_back(op);
    if (enterish) {
      op.irq = true;
      out.push_back(op);
    }
    more = false;
    for (size_t i = 0; i < domains.size(); ++i) {
      if (++idx[i] < domains[i].size()) {
        more = true;
        break;
      }
      idx[i] = 0;
    }
  }
  return out;
}

// Addrspace pages an SVC can plausibly execute under: genuine, non-stopped
// address spaces in ascending order. Stopped addrspaces are excluded because
// their page tables may already be dismantled — neither the spec's SpecL2Slot
// nor the monitor's walker can decode them, and no production SVC can occur
// under one (SVCs only run inside an entered enclave, which requires Final).
std::vector<PageNr> SvcAddrspaces(const spec::PageDb& d) {
  std::vector<PageNr> out;
  for (PageNr n = 0; n < d.NPages(); ++n) {
    if (const auto* as = std::get_if<spec::AddrspacePage>(&d[n].page)) {
      if (as->state != AddrspaceState::kStopped) {
        out.push_back(n);
      }
    }
  }
  return out;
}

word CountAddrspaces(const spec::PageDb& d) {
  word count = 0;
  for (PageNr n = 0; n < d.NPages(); ++n) {
    if (spec::IsAddrspace(d, n)) {
      ++count;
    }
  }
  return count;
}

struct State {
  std::vector<VerifyOp> path;
  spec::PageDb db;
};

// Registry-driven call plan, fixed for the whole run and shared read-only by
// every worker.
struct PlannedCall {
  const CallInfo* info;
  std::vector<VerifyOp> vectors;  // as_page filled per state for SVCs
  std::set<std::string> declared;
};

// A successor one expansion found. A repeat of a key earlier in the same
// expansion is dropped: committing it would change nothing.
struct Successor {
  std::string key;
  VerifyOp op;
  std::optional<spec::PageDb> db;  // empty: over the addrspace bound, clipped
};

// One call's share of an expansion.
struct CallTally {
  uint64_t transitions = 0;
  std::vector<word> errors;  // distinct non-success error words
};

// Everything expanding one state found, up to its first failing transition:
// what the serial loop would have folded into the result at that state.
struct Expansion {
  std::string harness_error;
  std::vector<CallTally> calls;  // plan order
  std::optional<Counterexample> failure;
  std::vector<Successor> successors;  // plan order
};

Counterexample MakeWitness(const WorldSpec& spec, const std::vector<VerifyOp>& path,
                           const VerifyOp& failing, std::string detail) {
  Counterexample cex;
  cex.detail = std::move(detail);
  cex.depth = path.size() + 1;
  cex.trace.oracle = "refinement";
  cex.trace.seed = 0;
  cex.trace.pages = spec.pages;
  cex.trace.inject = spec.inject;
  cex.exact_replay = true;
  const auto append = [&](const VerifyOp& op) {
    fuzz::TraceOp top;
    top.kind = op.is_svc ? fuzz::OpKind::kSvc : fuzz::OpKind::kSmc;
    top.a[0] = op.call;
    for (size_t i = 0; i < 4; ++i) {
      top.a[i + 1] = op.args[i];
    }
    cex.trace.ops.push_back(top);
    // The fuzzer replays SMCs verbatim but has no pending-IRQ scheduling and
    // drives SVCs through a driver enclave (extra setup ops), so only
    // all-SMC, no-IRQ witnesses replay the exact sequence.
    if (op.is_svc || op.irq) {
      cex.exact_replay = false;
    }
  };
  for (const VerifyOp& op : path) {
    append(op);
  }
  append(failing);
  return cex;
}

// Checks every planned transition out of `st` on the worker's own world and
// records, in plan order, what the commit needs: stops at the first failure.
Expansion Expand(const WorldSpec& spec, const std::vector<PlannedCall>& plan,
                 ConcreteWorld& world, const State& st) {
  Expansion x;
  world.PreparePath(st.path);

  // Harness sanity: the replayed machine must extract to exactly the
  // abstract state we are about to reason over, or every conclusion below
  // would be about a different state than the one recorded. This
  // extraction takes no cache: it decodes every page, so each explored
  // state cross-checks the cached extraction that produced it.
  {
    world.ResetToMid();
    std::optional<spec::PageDb> mid = spec::TryExtractPageDb(world.machine());
    if (!mid.has_value() || !(*mid == st.db)) {
      x.harness_error =
          "mid-state extraction diverges from the explored abstract state "
          "(path depth " +
          std::to_string(st.path.size()) + ")";
      return x;
    }
  }

  const std::vector<PageNr> as_pages = SvcAddrspaces(st.db);
  std::set<std::string> seen;
  x.calls.resize(plan.size());
  for (size_t c = 0; c < plan.size(); ++c) {
    const PlannedCall& pc = plan[c];
    CallTally& tally = x.calls[c];
    for (const VerifyOp& proto : pc.vectors) {
      // SMCs run once; SVCs run once per candidate issuing addrspace.
      const size_t variants = pc.info->kind == CallKind::kSvc ? as_pages.size() : 1;
      for (size_t v = 0; v < variants; ++v) {
        VerifyOp op = proto;
        if (op.is_svc) {
          op.as_page = as_pages[v];
        }

        ObligationResult res = CheckTransition(world, st.db, op);
        ++tally.transitions;
        if (!res.ok) {
          x.failure = MakeWitness(spec, st.path, op, res.detail);
          return x;
        }

        // Obligation 3: every error the implementation actually returns
        // must be declared in the registry row.
        if (res.impl_err != kErrSuccess) {
          if (std::find(tally.errors.begin(), tally.errors.end(), res.impl_err) ==
              tally.errors.end()) {
            tally.errors.push_back(res.impl_err);
          }
          const std::string err_name = KomErrName(res.impl_err);
          if (pc.declared.find(err_name) == pc.declared.end()) {
            x.failure = MakeWitness(spec, st.path, op,
                                    std::string(pc.info->name) +
                                        " returned undeclared error " + err_name);
            return x;
          }
        }

        if (!res.successor.has_value()) {
          continue;
        }
        std::string key = CanonicalKey(*res.successor);
        if (!seen.insert(key).second) {
          continue;
        }
        // A new key stays in a set for the rest of the run: drop the slack
        // its appends left.
        key.shrink_to_fit();
        Successor next{std::move(key), op, std::nullopt};
        if (CountAddrspaces(*res.successor) <= spec.max_addrspaces) {
          next.db = std::move(*res.successor);
        }
        x.successors.push_back(std::move(next));
      }
    }
  }
  return x;
}

// The BFS bookkeeping, touched only under the explorer's lock.
struct Closure {
  std::set<std::string> visited;
  std::set<std::string> clipped_keys;
  std::deque<State> frontier;
  crypto::Sha256 queued;  // every key appended to the frontier, in order

  void Queue(State st, const std::string& key) {
    queued.Update(reinterpret_cast<const uint8_t*>(key.data()), key.size());
    const uint8_t nl = '\n';
    queued.Update(&nl, 1);
    frontier.push_back(std::move(st));
  }
};

// Folds the expansion of `st` into the result, as the serial loop did at this
// point of the queue: per-call stats, then the failure, then each successor's
// visited or clipped insert and queue append. False when the run ends here.
bool Commit(Expansion& x, const State& st, ExploreResult& result, Closure& closure) {
  if (!x.harness_error.empty()) {
    result.harness_error = std::move(x.harness_error);
    return false;
  }
  for (size_t c = 0; c < x.calls.size(); ++c) {
    CallStats& stats = result.calls[c];
    stats.transitions += x.calls[c].transitions;
    result.transitions += x.calls[c].transitions;
    for (const word err : x.calls[c].errors) {
      stats.errors.insert(KomErrName(err));
    }
  }
  if (x.failure.has_value()) {
    result.failure = std::move(x.failure);
    return false;
  }
  for (Successor& s : x.successors) {
    if (!s.db.has_value()) {
      if (closure.clipped_keys.insert(std::move(s.key)).second) {
        ++result.clipped;
      }
    } else if (const auto [it, fresh] = closure.visited.insert(std::move(s.key)); fresh) {
      State next;
      next.path = st.path;
      next.path.push_back(s.op);
      next.db = std::move(*s.db);
      closure.Queue(std::move(next), *it);
    }
  }
  return true;
}

}  // namespace

ExploreResult Explore(const WorldSpec& spec) {
  ExploreResult result;
  if (!spec.inject.empty()) {
    bool known = spec.inject == "none";
    for (const char* name : fuzz::kInjectNames) {
      known = known || spec.inject == name;
    }
    if (!known) {
      result.harness_error = "unknown inject name: " + spec.inject;
      return result;
    }
  }
  fuzz::ScopedInject scoped_inject(spec.inject);

  std::vector<PlannedCall> plan;
  for (const CallInfo& info : kSmcCalls) {
    plan.push_back({&info, VectorsFor(info, spec.pages), ParseDeclaredErrors(info.errors)});
  }
  for (const CallInfo& info : kSvcCalls) {
    plan.push_back({&info, VectorsFor(info, spec.pages), ParseDeclaredErrors(info.errors)});
  }
  for (const PlannedCall& pc : plan) {
    CallStats stats;
    stats.name = pc.info->name;
    stats.number = pc.info->number;
    stats.is_svc = pc.info->kind == CallKind::kSvc;
    stats.vectors = pc.vectors.size();
    stats.declared = pc.declared;
    result.calls.push_back(std::move(stats));
  }

  // This thread is the first worker; its world also supplies the boot state.
  ConcreteWorld world(spec);

  const auto boot_violations = spec::PageDbViolations(world.boot_db());
  if (!boot_violations.empty()) {
    result.harness_error = "boot state breaks invariant: " + boot_violations.front();
    return result;
  }

  Closure closure;
  closure.Queue(State{{}, world.boot_db()},
                *closure.visited.insert(CanonicalKey(world.boot_db())).first);

  // Workers take states off the frontier in FIFO order, each with a ticket,
  // and expand them concurrently. An expansion is parked until every earlier
  // ticket is committed; whichever worker completes the next ticket commits
  // it and every parked one after it, so the queue, every count, the first
  // failure and the closure hash are the serial loop's at any job count. A
  // worker runs at most `window` tickets ahead of the commits, which bounds
  // the parked expansions. It idles while it cannot take a state but others
  // are in flight (their commits may enqueue more), and leaves once nothing
  // is queued or in flight, or a commit ended the run.
  const unsigned jobs = WorkerCount(spec);
  const uint64_t window = 4 * uint64_t{jobs};
  std::mutex mu;
  std::condition_variable cv;
  uint64_t taken = 0;
  uint64_t committed = 0;
  bool ended = false;
  std::map<uint64_t, std::pair<State, Expansion>> parked;
  const auto work = [&](ConcreteWorld& w) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] {
        return ended || committed == taken ||
               (!closure.frontier.empty() && taken - committed < window);
      });
      if (ended || closure.frontier.empty()) {
        return;
      }
      State st = std::move(closure.frontier.front());
      closure.frontier.pop_front();
      const uint64_t ticket = taken++;
      lock.unlock();
      Expansion x = Expand(spec, plan, w, st);
      lock.lock();
      parked.emplace(ticket, std::pair{std::move(st), std::move(x)});
      for (auto it = parked.begin(); it != parked.end() && it->first == committed;
           it = parked.erase(it)) {
        auto& [state, expansion] = it->second;
        ended = ended || !Commit(expansion, state, result, closure);
        ++committed;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> helpers;
  for (unsigned j = 1; j < jobs; ++j) {
    helpers.emplace_back([&] {
      // The inject flags are thread-local: an unarmed worker would check the
      // clean monitor.
      fuzz::ScopedInject worker_inject(spec.inject);
      ConcreteWorld own(spec);
      work(own);
    });
  }
  work(world);
  for (std::thread& t : helpers) {
    t.join();
  }
  result.queue_hash = crypto::DigestToHex(closure.queued.Finalize());
  if (ended) {
    return result;
  }

  result.states = closure.visited.size();
  crypto::Sha256 h;
  for (const std::string& key : closure.visited) {
    h.Update(reinterpret_cast<const uint8_t*>(key.data()), key.size());
    const uint8_t nl = '\n';
    h.Update(&nl, 1);
  }
  result.closure_hash = crypto::DigestToHex(h.Finalize());
  result.ok = true;
  return result;
}

unsigned WorkerCount(const WorldSpec& spec) {
  return spec.jobs > 0 ? spec.jobs : std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace komodo::verify
