// Per-transition proof obligations for the model checker (DESIGN.md §12).
//
// For one abstract state d and one call vector, three things must hold:
//   1. invariant preservation — when the spec returns a successor (the call
//      succeeded and wrote the PageDb), it has no PageDbViolations (checked
//      on the spec output, so this is an inductive proof over the explored
//      world, not a sampled one); a havoc call's successor, which the spec
//      did not write, is checked once the implementation has produced it;
//   2. refinement — the concrete monitor, run from a machine whose extraction
//      equals d, returns the spec's error word and lands on the spec's PageDb
//      (spec::CheckRefinement, the relation the fuzzer's refinement oracle
//      uses, havoc set included), over a post-state read in place from the
//      world's extraction cache;
//   3. error-code agreement — every error the implementation actually returns
//      is recorded so the explorer can compare the per-call observation
//      against the registry row's declared `errors` set.
//
// ConcreteWorld keeps obligation 2 affordable: it maintains a booted machine
// plus two incremental snapshots (post-boot, and post-replay "mid" state) so
// checking a transition costs a dirty-page reset instead of a reboot.
#ifndef SRC_VERIFY_OBLIGATIONS_H_
#define SRC_VERIFY_OBLIGATIONS_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fuzz/pool.h"
#include "src/os/world.h"
#include "src/spec/abstract_state.h"
#include "src/spec/extract.h"

namespace komodo::verify {

using arm::word;
using komodo::PageNr;

// Bounds of the explored world. `pages` secure pages; successors with more
// than `max_addrspaces` address-space pages are counted as clipped instead of
// enqueued (with the default 5-page world the cap is unreachable: two pages
// per addrspace already exhaust the world).
struct WorldSpec {
  word pages = 5;
  word max_addrspaces = 2;
  std::string inject;  // fuzz::SetInjectByName name, "" = clean monitor
  unsigned jobs = 0;   // Explore's worker threads; 0 = hardware concurrency
};

// One transition label: an SMC issued by the OS, or an SVC issued on behalf
// of the (non-stopped) addrspace `as_page`. `irq` arms a pending interrupt
// before an Enter/Resume so the interrupted path is explored.
struct VerifyOp {
  bool is_svc = false;
  word call = 0;
  std::array<word, 4> args{};  // SVCs use args[0..2]
  PageNr as_page = kInvalidPage;
  bool irq = false;
};

// A booted world that can replay an op path from boot and then run many
// single-op probes from the resulting state, each undone by a dirty-page
// reset. Resets are incremental: a full machine copy is taken once at boot
// and once for the "mid" snapshot buffer; after that every path switch and
// probe costs only the pages actually written.
class ConcreteWorld {
 public:
  explicit ConcreteWorld(const WorldSpec& spec);

  // Boot-resets the machine, replays `path`, and captures the mid snapshot.
  // Must be called (with the state's path) before ResetToMid/RunStaged.
  void PreparePath(const std::vector<VerifyOp>& path);

  // Restores the machine to the prepared mid state (the abstract state under
  // test). Call before reading the machine for the spec or running an op.
  void ResetToMid();

  struct Outcome {
    word impl_err = 0;  // ABI error word the call returned
    // The post-state, read in place from the world's extraction cache and
    // valid until the next RunStaged; null when the call wrote no page or
    // the extraction failed.
    const spec::PageDb* post = nullptr;
    std::string extract_error;  // non-empty: extraction failed
  };

  // Runs one op from the current machine state (caller must ResetToMid
  // first). Does not reset afterwards; the next ResetToMid undoes it. The
  // post-state is extracted through one cache for the world's lifetime, so
  // only the pages whose generation or PageDB record moved since the last
  // extraction are decoded: the op's writes and the last reset's restores.
  Outcome RunStaged(const VerifyOp& op);

  const arm::MachineState& machine() const { return world_.machine; }
  const spec::PageDb& boot_db() const { return boot_db_; }

 private:
  // Issues `op` and returns its ABI error word.
  word Execute(const VerifyOp& op);

  os::World world_;
  spec::PageDb boot_db_;
  std::unique_ptr<arm::MachineState> boot_;  // post-boot
  std::unique_ptr<arm::MachineState> mid_;   // post-replay, refreshed per path
  std::vector<uint32_t> path_pages_;         // pages where mid_ differs from boot_
  spec::ExtractCache extract_cache_;         // RunStaged's post-state extractions
};

// Result of checking the three obligations for one transition.
struct ObligationResult {
  bool ok = true;
  std::string detail;                  // failure description when !ok
  word impl_err = 0;                   // for error-set accounting
  // Present iff the call wrote the PageDb: the spec's successor, or a copy of
  // a havoc call's post-state.
  std::optional<spec::PageDb> successor;
};

// Checks one transition from abstract state `d` (the extraction of the
// prepared mid state). Resets the world to mid, evaluates the spec, runs the
// implementation and compares. `d` must equal the mid-state extraction.
ObligationResult CheckTransition(ConcreteWorld& world, const spec::PageDb& d,
                                 const VerifyOp& op);

}  // namespace komodo::verify

#endif  // SRC_VERIFY_OBLIGATIONS_H_
