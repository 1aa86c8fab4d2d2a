#include "src/verify/explore.h"

#include <deque>
#include <sstream>
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

  // Registry-driven call plan, fixed for the whole run.
  struct PlannedCall {
    const CallInfo* info;
    std::vector<VerifyOp> vectors;  // as_page filled per state for SVCs
    size_t stats_index;
  };
  std::vector<PlannedCall> plan;
  for (const CallInfo& info : kSmcCalls) {
    plan.push_back({&info, VectorsFor(info, spec.pages), plan.size()});
  }
  for (const CallInfo& info : kSvcCalls) {
    plan.push_back({&info, VectorsFor(info, spec.pages), plan.size()});
  }
  for (const PlannedCall& pc : plan) {
    CallStats stats;
    stats.name = pc.info->name;
    stats.number = pc.info->number;
    stats.is_svc = pc.info->kind == CallKind::kSvc;
    stats.vectors = pc.vectors.size();
    stats.declared = ParseDeclaredErrors(pc.info->errors);
    result.calls.push_back(std::move(stats));
  }

  ConcreteWorld world(spec);

  const auto boot_violations = spec::PageDbViolations(world.boot_db());
  if (!boot_violations.empty()) {
    result.harness_error = "boot state breaks invariant: " + boot_violations.front();
    return result;
  }

  std::set<std::string> visited;
  std::set<std::string> clipped_keys;
  std::deque<State> frontier;
  visited.insert(CanonicalKey(world.boot_db()));
  frontier.push_back(State{{}, world.boot_db()});

  while (!frontier.empty()) {
    State st = std::move(frontier.front());
    frontier.pop_front();

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
        result.harness_error =
            "mid-state extraction diverges from the explored abstract state "
            "(path depth " +
            std::to_string(st.path.size()) + ")";
        return result;
      }
    }

    const std::vector<PageNr> as_pages = SvcAddrspaces(st.db);

    for (const PlannedCall& pc : plan) {
      CallStats& stats = result.calls[pc.stats_index];
      for (const VerifyOp& proto : pc.vectors) {
        // SMCs run once; SVCs run once per candidate issuing addrspace.
        const size_t variants = pc.info->kind == CallKind::kSvc ? as_pages.size() : 1;
        for (size_t v = 0; v < variants; ++v) {
          VerifyOp op = proto;
          if (op.is_svc) {
            op.as_page = as_pages[v];
          }

          const ObligationResult res = CheckTransition(world, st.db, op);
          ++result.transitions;
          ++stats.transitions;
          if (!res.ok) {
            result.failure = MakeWitness(spec, st.path, op, res.detail);
            return result;
          }

          // Obligation 3: every error the implementation actually returns
          // must be declared in the registry row.
          if (res.impl_err != kErrSuccess) {
            const std::string err_name = KomErrName(res.impl_err);
            stats.errors.insert(err_name);
            if (stats.declared.find(err_name) == stats.declared.end()) {
              result.failure = MakeWitness(
                  spec, st.path, op,
                  std::string(stats.name) + " returned undeclared error " + err_name);
              return result;
            }
          }

          if (!res.successor.has_value()) {
            continue;
          }
          std::string key = CanonicalKey(*res.successor);
          if (CountAddrspaces(*res.successor) > spec.max_addrspaces) {
            if (clipped_keys.insert(std::move(key)).second) {
              ++result.clipped;
            }
            continue;
          }
          if (visited.insert(key).second) {
            State next;
            next.path = st.path;
            next.path.push_back(op);
            next.db = std::move(*res.successor);
            frontier.push_back(std::move(next));
          }
        }
      }
    }
  }

  result.states = visited.size();
  crypto::Sha256 h;
  for (const std::string& key : visited) {
    h.Update(reinterpret_cast<const uint8_t*>(key.data()), key.size());
    const uint8_t nl = '\n';
    h.Update(&nl, 1);
  }
  result.closure_hash = crypto::DigestToHex(h.Finalize());
  result.ok = true;
  return result;
}

}  // namespace komodo::verify
