#include "src/verify/obligations.h"

#include <utility>

#include "src/core/kom_defs.h"
#include "src/spec/equivalence.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"
#include "src/spec/spec_dispatch.h"

namespace komodo::verify {

namespace {

ObligationResult FailOb(std::string detail, word impl_err) {
  ObligationResult res;
  res.ok = false;
  res.detail = std::move(detail);
  res.impl_err = impl_err;
  return res;
}

}  // namespace

ConcreteWorld::ConcreteWorld(const WorldSpec& spec)
    : world_(spec.pages, fuzz::FuzzMonitorConfig()), boot_db_(0) {
  boot_ = std::make_unique<arm::MachineState>(world_.machine);
  mid_ = std::make_unique<arm::MachineState>(world_.machine);
  boot_db_ = spec::ExtractPageDb(world_.machine);
}

void ConcreteWorld::PreparePath(const std::vector<VerifyOp>& path) {
  // The live machine deviates from boot on the previous path's pages (not in
  // the dirty list any more — each mid-reset clears it) plus whatever the
  // last probe dirtied (still listed). Re-mark the former so the boot reset
  // restores both.
  world_.machine.mem.MarkPagesDirty(path_pages_);
  world_.ResetTo(*boot_);

  for (const VerifyOp& op : path) {
    if (op.irq) {
      world_.machine.pending_irq = true;
    }
    Execute(op);
    world_.machine.pending_irq = false;
  }

  // Refresh the mid snapshot buffer: it still holds the previous path's
  // state, so it deviates from the live machine on the union of the old and
  // new path footprints.
  const std::vector<uint32_t> new_path = world_.machine.mem.dirty_pages();
  mid_->mem.MarkPagesDirty(path_pages_);
  mid_->mem.MarkPagesDirty(new_path);
  mid_->ResetTo(world_.machine);
  path_pages_ = new_path;
}

void ConcreteWorld::ResetToMid() { world_.machine.ResetTo(*mid_); }

word ConcreteWorld::Execute(const VerifyOp& op) {
  if (!op.is_svc) {
    return world_.os.Smc(op.call, op.args[0], op.args[1], op.args[2], op.args[3]).err;
  }
  // The SVC handlers never dereference the dispatcher page and only consult
  // as_page, so driving DispatchSvc directly covers the production handler
  // code without constructing and entering a driver enclave (which would
  // change the world the checker is supposed to be exploring).
  Monitor::SvcCtx ctx;
  ctx.call = op.call;
  ctx.args = {op.args[0], op.args[1], op.args[2]};
  ctx.as_page = op.as_page;
  return ToWord(world_.monitor.DispatchSvc(ctx).err);
}

ConcreteWorld::Outcome ConcreteWorld::RunStaged(const VerifyOp& op) {
  Outcome out;
  if (op.irq) {
    world_.machine.pending_irq = true;
  }
  out.impl_err = Execute(op);
  world_.machine.pending_irq = false;  // an un-taken IRQ must not leak onward
  if (!world_.machine.mem.dirty_pages().empty()) {
    spec::ExtractError xerr;
    out.post = extract_cache_.Extract(world_.machine, &xerr);
    if (out.post == nullptr) {
      out.extract_error = "page " + std::to_string(xerr.page) + ": " + xerr.detail;
    }
  }
  return out;
}

ObligationResult CheckTransition(ConcreteWorld& world, const spec::PageDb& d,
                                 const VerifyOp& op) {
  world.ResetToMid();

  // Spec side first: ApplySmc reads MapSecure's and MapInsecure's insecure
  // page from the machine, which must be sampled in the pre-state.
  spec::Result sres =
      op.is_svc
          ? spec::ApplySvc(d, op.as_page, op.call, {op.args[0], op.args[1], op.args[2]})
          : spec::ApplySmc(d, world.machine(), op.call, op.args);

  // Obligation 1: the spec preserves the PageDb validity invariants. A call
  // without a successor keeps the pre-state, which already holds them.
  if (sres.db.has_value()) {
    const auto violations = spec::PageDbViolations(*sres.db);
    if (!violations.empty()) {
      return FailOb("spec breaks invariant: " + violations.front(), kErrSuccess);
    }
  }

  // Obligation 2: the implementation refines the spec. RunStaged extracts
  // eagerly, so an undecodable post-state outranks an error-word mismatch.
  const ConcreteWorld::Outcome out = world.RunStaged(op);
  if (!out.extract_error.empty()) {
    return FailOb("extraction failed after impl call: " + out.extract_error, out.impl_err);
  }
  const bool spec_wrote = sres.db.has_value();
  spec::RefinementStep step =
      spec::CheckRefinement(d, op.is_svc, op.call, std::move(sres), out.impl_err, out.post, {});
  if (!step.failure.empty()) {
    return FailOb(std::move(step.failure), out.impl_err);
  }
  ObligationResult res;
  res.impl_err = out.impl_err;
  res.successor = std::move(step.successor);

  // Obligation 1 on the implementation side of havoc transitions: a
  // successor the spec did not write was resynchronized from the machine and
  // never went through the spec check above.
  if (res.successor.has_value() && !spec_wrote) {
    const auto violations = spec::PageDbViolations(*res.successor);
    if (!violations.empty()) {
      return FailOb("impl breaks invariant: " + violations.front(), out.impl_err);
    }
  }
  return res;
}

}  // namespace komodo::verify
