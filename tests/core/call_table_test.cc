// Registry tests for the table-driven monitor-call dispatch (DESIGN.md §9,
// src/core/call_list.inc): the registry must cover exactly the Table 1 API,
// its metadata must be internally consistent, and unknown call numbers must
// be rejected by both the implementation and the spec dispatch. Every row
// carries its spec expression, so a registered call without a spec does not
// compile.
#include "src/core/call_table.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/kom_defs.h"
#include "src/core/monitor.h"
#include "src/os/world.h"
#include "src/spec/extract.h"
#include "src/spec/spec_dispatch.h"

namespace komodo {
namespace {

struct Expected {
  word number;
  const char* name;
  int arity;
};

// Table 1 of the paper, verbatim. If this list and the registry disagree,
// one of them is wrong — the registry is not allowed to drift silently.
constexpr Expected kExpectedSmcs[] = {
    {kSmcQuery, "Query", 0},
    {kSmcGetPhysPages, "GetPhysPages", 0},
    {kSmcInitAddrspace, "InitAddrspace", 2},
    {kSmcInitThread, "InitThread", 3},
    {kSmcInitL2Table, "InitL2Table", 3},
    {kSmcMapSecure, "MapSecure", 4},
    {kSmcAllocSpare, "AllocSpare", 2},
    {kSmcMapInsecure, "MapInsecure", 3},
    {kSmcRemove, "Remove", 1},
    {kSmcFinalise, "Finalise", 1},
    {kSmcEnter, "Enter", 4},
    {kSmcResume, "Resume", 1},
    {kSmcStop, "Stop", 1},
};

constexpr Expected kExpectedSvcs[] = {
    {kSvcExit, "Exit", 1},
    {kSvcGetRandom, "GetRandom", 0},
    {kSvcAttest, "Attest", 2},
    {kSvcVerify, "Verify", 3},
    {kSvcInitL2Table, "InitL2Table", 2},
    {kSvcMapData, "MapData", 2},
    {kSvcUnmapData, "UnmapData", 2},
};

std::vector<std::string> SplitErrors(const char* errors) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = errors;; ++p) {
    if (*p == '|' || *p == '\0') {
      out.push_back(cur);
      cur.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      cur += *p;
    }
  }
  return out;
}

TEST(CallTable, SmcCompleteness) {
  ASSERT_EQ(kNumSmcCalls, static_cast<int>(std::size(kExpectedSmcs)));
  for (const Expected& e : kExpectedSmcs) {
    const CallInfo* c = FindSmc(e.number);
    ASSERT_NE(c, nullptr) << "SMC " << e.number << " (" << e.name << ") missing from registry";
    EXPECT_STREQ(c->name, e.name);
    EXPECT_EQ(c->arity, e.arity) << e.name;
    EXPECT_EQ(c->kind, CallKind::kSmc) << e.name;
  }
}

TEST(CallTable, SvcCompleteness) {
  ASSERT_EQ(kNumSvcCalls, static_cast<int>(std::size(kExpectedSvcs)));
  for (const Expected& e : kExpectedSvcs) {
    const CallInfo* c = FindSvc(e.number);
    ASSERT_NE(c, nullptr) << "SVC " << e.number << " (" << e.name << ") missing from registry";
    EXPECT_STREQ(c->name, e.name);
    EXPECT_EQ(c->arity, e.arity) << e.name;
    EXPECT_EQ(c->kind, CallKind::kSvc) << e.name;
  }
}

TEST(CallTable, NumbersAndNamesUnique) {
  std::set<word> smc_numbers;
  std::set<std::string> smc_names;
  for (const CallInfo& c : kSmcCalls) {
    EXPECT_TRUE(smc_numbers.insert(c.number).second) << "duplicate SMC number " << c.number;
    EXPECT_TRUE(smc_names.insert(c.name).second) << "duplicate SMC name " << c.name;
  }
  std::set<word> svc_numbers;
  std::set<std::string> svc_names;
  for (const CallInfo& c : kSvcCalls) {
    EXPECT_TRUE(svc_numbers.insert(c.number).second) << "duplicate SVC number " << c.number;
    EXPECT_TRUE(svc_names.insert(c.name).second) << "duplicate SVC name " << c.name;
  }
}

TEST(CallTable, MetadataConsistent) {
  auto check = [](const CallInfo& c, int max_arity) {
    SCOPED_TRACE(c.name);
    EXPECT_GE(c.arity, 0);
    EXPECT_LE(c.arity, max_arity);
    // arg_names lists exactly `arity` comma-separated names.
    if (c.arity == 0) {
      EXPECT_STREQ(c.arg_names, "");
    } else {
      int names = 1;
      for (const char* p = c.arg_names; *p != '\0'; ++p) {
        names += *p == ',';
      }
      EXPECT_EQ(names, c.arity);
    }
    // Every declared error name is a known KomErrName.
    if (std::string(c.errors) != "-") {
      for (const std::string& err : SplitErrors(c.errors)) {
        bool known = false;
        for (word e = 0; e <= kErrNotSpare; ++e) {
          if (err == KomErrName(e)) {
            known = true;
            break;
          }
        }
        EXPECT_TRUE(known) << "unknown error name \"" << err << "\"";
        EXPECT_NE(err, KomErrName(kErrSuccess)) << "success is implicit, never declared";
      }
    }
  };
  for (const CallInfo& c : kSmcCalls) {
    check(c, 4);
  }
  for (const CallInfo& c : kSvcCalls) {
    check(c, 3);
  }
}

TEST(CallTable, FindRejectsUnknownNumbers) {
  EXPECT_EQ(FindSmc(0), nullptr);
  EXPECT_EQ(FindSmc(3), nullptr);
  EXPECT_EQ(FindSmc(999), nullptr);
  EXPECT_EQ(FindSvc(0), nullptr);
  EXPECT_EQ(FindSvc(5), nullptr);
  EXPECT_EQ(FindSvc(999), nullptr);
}

TEST(CallTable, DispatchRejectsUnknownNumbers) {
  os::World w{16};
  Monitor::CallCtx smc;
  smc.call = 999;
  const Monitor::CallResult res = w.monitor.Dispatch(smc);
  EXPECT_EQ(res.err, KomErr::kInvalidArgument);

  Monitor::SvcCtx svc;
  svc.call = 999;
  const Monitor::SvcResult sres = w.monitor.DispatchSvc(svc);
  EXPECT_EQ(sres.err, KomErr::kInvalidSvc);
  EXPECT_FALSE(sres.exits);

  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  const spec::Result sp = spec::ApplySmc(d, w.machine, 999, {});
  EXPECT_EQ(sp.err, kErrInvalidArgument);
  EXPECT_FALSE(sp.db.has_value());
  const spec::Result sv = spec::ApplySvc(d, 0, 999, {});
  EXPECT_EQ(sv.err, kErrInvalidSvc);
  EXPECT_FALSE(sv.db.has_value());
}

TEST(CallTable, KomErrMatchesAbiWords) {
  // The typed error enum must be value-identical to the ABI words the OS
  // sees in r0 (conversion happens only at the OnSmc epilogue).
  EXPECT_EQ(ToWord(KomErr::kSuccess), kErrSuccess);
  EXPECT_EQ(ToWord(KomErr::kInvalidPageNo), kErrInvalidPageNo);
  EXPECT_EQ(ToWord(KomErr::kPageInUse), kErrPageInUse);
  EXPECT_EQ(ToWord(KomErr::kInvalidAddrspace), kErrInvalidAddrspace);
  EXPECT_EQ(ToWord(KomErr::kAlreadyFinal), kErrAlreadyFinal);
  EXPECT_EQ(ToWord(KomErr::kNotFinal), kErrNotFinal);
  EXPECT_EQ(ToWord(KomErr::kInvalidMapping), kErrInvalidMapping);
  EXPECT_EQ(ToWord(KomErr::kAddrInUse), kErrAddrInUse);
  EXPECT_EQ(ToWord(KomErr::kNotStopped), kErrNotStopped);
  EXPECT_EQ(ToWord(KomErr::kInterrupted), kErrInterrupted);
  EXPECT_EQ(ToWord(KomErr::kFault), kErrFault);
  EXPECT_EQ(ToWord(KomErr::kAlreadyEntered), kErrAlreadyEntered);
  EXPECT_EQ(ToWord(KomErr::kNotEntered), kErrNotEntered);
  EXPECT_EQ(ToWord(KomErr::kPageTableMissing), kErrPageTableMissing);
  EXPECT_EQ(ToWord(KomErr::kInvalidArgument), kErrInvalidArgument);
  EXPECT_EQ(ToWord(KomErr::kNotFinalised), kErrNotFinalised);
  EXPECT_EQ(ToWord(KomErr::kInvalidSvc), kErrInvalidSvc);
  EXPECT_EQ(ToWord(KomErr::kNotSpare), kErrNotSpare);
  for (word e = 0; e <= kErrNotSpare; ++e) {
    EXPECT_EQ(ErrFromWord(ToWord(static_cast<KomErr>(e))), static_cast<KomErr>(e));
    EXPECT_STRNE(KomErrName(e), "unknown") << "error code " << e << " has no name";
  }
}

TEST(CallTable, RegistryDispatchMatchesDirectSmc) {
  // A short build sequence driven through Monitor::Dispatch must behave
  // exactly like the OS-facing SMC ABI (which routes through the same
  // table): same errors, same values.
  os::World w{32};
  Monitor::CallCtx query;
  query.call = kSmcQuery;
  const Monitor::CallResult q = w.monitor.Dispatch(query);
  EXPECT_EQ(q.err, KomErr::kSuccess);
  EXPECT_EQ(q.val, kMagic);

  Monitor::CallCtx phys;
  phys.call = kSmcGetPhysPages;
  EXPECT_EQ(w.monitor.Dispatch(phys).val, 32u);

  const PageNr as = w.os.AllocSecurePage();
  const PageNr l1pt = w.os.AllocSecurePage();
  Monitor::CallCtx init;
  init.call = kSmcInitAddrspace;
  init.args = {as, l1pt, 0, 0};
  EXPECT_EQ(w.monitor.Dispatch(init).err, KomErr::kSuccess);
  // Repeating it must fail exactly as the ABI says: the page is now in use.
  EXPECT_EQ(w.monitor.Dispatch(init).err, KomErr::kPageInUse);
}

}  // namespace
}  // namespace komodo
