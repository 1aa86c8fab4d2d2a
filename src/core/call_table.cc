// Registry-driven dispatch: expands src/core/call_list.inc into the
// Monitor's SMC and SVC switches (the single implementation-side consumer of
// the impl column), and hangs the tracer on the two shared entry points.
// Adding a call means adding one line to call_list.inc; there is no other
// dispatch site to update.
#include "src/core/call_table.h"

#include "src/core/monitor.h"

namespace komodo {

Monitor::CallResult Monitor::Dispatch(const CallCtx& ctx) {
  if (!obs_.enabled()) {
    return DispatchImpl(ctx);
  }
  const CallInfo* info = FindSmc(ctx.call);
  const char* name = info ? info->name : "UnknownSmc";
  const int nargs = info ? info->arity : 4;
  const obs::Observability::Pending pending = obs_.BeginCall(
      obs::EventKind::kSmcBegin, ctx.call, name, ctx.args.data(), nargs, arm::ObsSnap(machine_));
  const CallResult res = DispatchImpl(ctx);
  obs_.EndCall(obs::EventKind::kSmcEnd, ctx.call, name, ToWord(res.err), res.val, pending,
               arm::ObsSnap(machine_));
  return res;
}

Monitor::CallResult Monitor::DispatchImpl(const CallCtx& ctx) {
  const word a1 = ctx.args[0];
  const word a2 = ctx.args[1];
  const word a3 = ctx.args[2];
  const word a4 = ctx.args[3];
  switch (ctx.call) {
#define KOM_SMC(name, nr, arity, argnames, impl, spec, errors) \
  case nr:                                                     \
    return impl;
#define KOM_SVC(name, nr, arity, argnames, impl, spec, errors)
#include "src/core/call_list.inc"
#undef KOM_SMC
#undef KOM_SVC
    default:
      return {KomErr::kInvalidArgument, 0};
  }
}

Monitor::SvcResult Monitor::DispatchSvc(const SvcCtx& ctx) {
  if (!obs_.enabled()) {
    return DispatchSvcImpl(ctx);
  }
  const CallInfo* info = FindSvc(ctx.call);
  const char* name = info ? info->name : "UnknownSvc";
  const int nargs = info ? info->arity : 3;
  const obs::Observability::Pending pending = obs_.BeginCall(
      obs::EventKind::kSvcBegin, ctx.call, name, ctx.args.data(), nargs, arm::ObsSnap(machine_));
  const SvcResult res = DispatchSvcImpl(ctx);
  obs_.EndCall(obs::EventKind::kSvcEnd, ctx.call, name, ToWord(res.err),
               res.exits ? res.exit_retval : res.val, pending, arm::ObsSnap(machine_));
  return res;
}

Monitor::SvcResult Monitor::DispatchSvcImpl(const SvcCtx& ctx) {
  const word a1 = ctx.args[0];
  const word a2 = ctx.args[1];
  const word a3 = ctx.args[2];
  const PageNr as_page = ctx.as_page;
  switch (ctx.call) {
#define KOM_SMC(name, nr, arity, argnames, impl, spec, errors)
#define KOM_SVC(name, nr, arity, argnames, impl, spec, errors) \
  case nr:                                                     \
    return impl;
#include "src/core/call_list.inc"
#undef KOM_SMC
#undef KOM_SVC
    default:
      return {KomErr::kInvalidSvc, 0, false, 0};
  }
}

}  // namespace komodo
