// Enclave-construction SMC semantics: happy paths and every validation rule
// of §4's API, driven through the OS model.
#include <gtest/gtest.h>

#include "src/os/world.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"

namespace komodo {
namespace {

using os::SmcRet;
using os::World;

class SmcTest : public ::testing::Test {
 protected:
  World w{64};

  // Stages `value`-filled insecure page and returns its page number.
  word StagePage(word fill) {
    const word pg = w.os.AllocInsecurePage();
    for (word i = 0; i < arm::kWordsPerPage; ++i) {
      w.os.WriteInsecure(pg, i, fill);
    }
    return pg;
  }

  void ExpectValid() {
    const auto violations = spec::PageDbViolations(spec::ExtractPageDb(w.machine));
    EXPECT_TRUE(violations.empty()) << violations.front();
  }
};

TEST_F(SmcTest, QueryReturnsMagic) {
  const SmcRet r = w.os.Smc(kSmcQuery);
  EXPECT_EQ(r.err, kErrSuccess);
  EXPECT_EQ(r.val, kMagic);
}

TEST_F(SmcTest, GetPhysPagesReturnsConfiguredCount) {
  EXPECT_EQ(w.os.GetPhysPages(), 64u);
}

TEST_F(SmcTest, UnknownSmcRejected) {
  EXPECT_EQ(w.os.Smc(999).err, kErrInvalidArgument);
}

TEST_F(SmcTest, InitAddrspaceHappyPath) {
  EXPECT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  EXPECT_EQ(d[3].type(), PageType::kAddrspace);
  EXPECT_EQ(d[4].type(), PageType::kL1PTable);
  EXPECT_EQ(d[3].As<spec::AddrspacePage>().refcount, 1u);
  EXPECT_EQ(d[3].As<spec::AddrspacePage>().state, AddrspaceState::kInit);
  ExpectValid();
}

TEST_F(SmcTest, InitAddrspaceRejectsAliasedPages) {
  // The exact bug §9.1 reports: both arguments naming the same page.
  EXPECT_EQ(w.os.InitAddrspace(3, 3).err, kErrInvalidPageNo);
  EXPECT_EQ(spec::ExtractPageDb(w.machine)[3].type(), PageType::kFree);
}

TEST_F(SmcTest, InitAddrspaceRejectsOutOfRangeAndBusyPages) {
  EXPECT_EQ(w.os.InitAddrspace(64, 4).err, kErrInvalidPageNo);
  EXPECT_EQ(w.os.InitAddrspace(3, 64).err, kErrInvalidPageNo);
  EXPECT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  EXPECT_EQ(w.os.InitAddrspace(3, 5).err, kErrPageInUse);
  EXPECT_EQ(w.os.InitAddrspace(5, 4).err, kErrPageInUse);
  ExpectValid();
}

TEST_F(SmcTest, InitThreadRequiresInitAddrspace) {
  EXPECT_EQ(w.os.InitThread(3, 5, 0x8000).err, kErrInvalidAddrspace);
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  EXPECT_EQ(w.os.InitThread(4, 5, 0x8000).err, kErrInvalidAddrspace);  // l1pt is not an as
  EXPECT_EQ(w.os.InitThread(3, 5, 0x8000).err, kErrSuccess);
  EXPECT_EQ(w.os.InitThread(3, 5, 0x8000).err, kErrPageInUse);
  ASSERT_EQ(w.os.Finalise(3).err, kErrSuccess);
  EXPECT_EQ(w.os.InitThread(3, 6, 0x8000).err, kErrAlreadyFinal);
  ExpectValid();
}

TEST_F(SmcTest, InitL2TableValidation) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  EXPECT_EQ(w.os.InitL2Table(3, 5, 256).err, kErrInvalidMapping);  // index out of range
  EXPECT_EQ(w.os.InitL2Table(3, 5, 0).err, kErrSuccess);
  EXPECT_EQ(w.os.InitL2Table(3, 6, 0).err, kErrAddrInUse);  // slots taken
  EXPECT_EQ(w.os.InitL2Table(3, 5, 1).err, kErrPageInUse);  // page taken
  EXPECT_EQ(w.os.InitL2Table(3, 6, 1).err, kErrSuccess);
  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  EXPECT_EQ(d[3].As<spec::AddrspacePage>().refcount, 3u);
  ExpectValid();
}

TEST_F(SmcTest, MapSecureHappyPathCopiesContents) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  ASSERT_EQ(w.os.InitL2Table(3, 5, 0).err, kErrSuccess);
  const word staging = StagePage(0xabcd1234);
  const word mapping = MakeMapping(0x8000, kMapR | kMapW);
  ASSERT_EQ(w.os.MapSecure(3, 6, mapping, staging).err, kErrSuccess);
  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  ASSERT_EQ(d[6].type(), PageType::kDataPage);
  EXPECT_EQ(d[6].As<spec::DataPage>().contents()[0], 0xabcd1234u);
  EXPECT_EQ(d[6].As<spec::DataPage>().contents()[1023], 0xabcd1234u);
  // Mapping landed in the L2 table.
  const auto slot = spec::SpecL2Slot(d, 3, mapping);
  ASSERT_TRUE(slot.has_value());
  const spec::L2Entry entry = d[slot->first].As<spec::L2PTablePage>().Get(slot->second);
  const auto* sm = std::get_if<spec::SecureMapping>(&entry);
  ASSERT_NE(sm, nullptr);
  EXPECT_EQ(sm->data_page, 6u);
  EXPECT_TRUE(sm->writable);
  EXPECT_FALSE(sm->executable);
  ExpectValid();
}

TEST_F(SmcTest, MapSecureRejectsMonitorAndSecureSources) {
  // §9.1's second bug class: the "insecure" source must not alias protected
  // memory.
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  ASSERT_EQ(w.os.InitL2Table(3, 5, 0).err, kErrSuccess);
  const word mapping = MakeMapping(0x8000, kMapR);
  EXPECT_EQ(w.os.MapSecure(3, 6, mapping, arm::kMonitorBase / arm::kPageSize).err,
            kErrInvalidArgument);
  EXPECT_EQ(w.os.MapSecure(3, 6, mapping, arm::kSecurePagesBase / arm::kPageSize).err,
            kErrInvalidArgument);
  EXPECT_EQ(w.os.MapSecure(3, 6, mapping, 0xffff0).err, kErrInvalidArgument);  // unmapped
  // Numbers of 2^20 and above name no page: their 32-bit byte addresses
  // would wrap onto the staging page.
  const word staging = StagePage(1);
  for (const word wrapped : {(1u << 20) + staging, (0xfffu << 20) + staging}) {
    EXPECT_EQ(w.os.MapSecure(3, 6, mapping, wrapped).err, kErrInvalidArgument);
    EXPECT_EQ(w.os.MapInsecure(3, MakeMapping(0x9000, kMapR), wrapped).err, kErrInvalidArgument);
  }
  ExpectValid();
}

TEST_F(SmcTest, MapSecureValidatesMappingAndTable) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  const word staging = StagePage(1);
  // No L2 table yet.
  EXPECT_EQ(w.os.MapSecure(3, 6, MakeMapping(0x8000, kMapR), staging).err,
            kErrPageTableMissing);
  ASSERT_EQ(w.os.InitL2Table(3, 5, 0).err, kErrSuccess);
  // Mapping outside the 1 GB window.
  EXPECT_EQ(w.os.MapSecure(3, 6, MakeMapping(0x4000'0000, kMapR), staging).err,
            kErrInvalidMapping);
  // Mapping without read permission.
  EXPECT_EQ(w.os.MapSecure(3, 6, 0x8000 | kMapW, staging).err, kErrInvalidMapping);
  // Double map at the same VA.
  ASSERT_EQ(w.os.MapSecure(3, 6, MakeMapping(0x8000, kMapR), staging).err, kErrSuccess);
  EXPECT_EQ(w.os.MapSecure(3, 7, MakeMapping(0x8000, kMapR), staging).err, kErrAddrInUse);
  ExpectValid();
}

TEST_F(SmcTest, MapInsecureRejectsExecutable) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  ASSERT_EQ(w.os.InitL2Table(3, 5, 0).err, kErrSuccess);
  const word pg = w.os.AllocInsecurePage();
  EXPECT_EQ(w.os.MapInsecure(3, MakeMapping(0x9000, kMapR | kMapX), pg).err,
            kErrInvalidMapping);
  EXPECT_EQ(w.os.MapInsecure(3, MakeMapping(0x9000, kMapR | kMapW), pg).err, kErrSuccess);
  ExpectValid();
}

TEST_F(SmcTest, FinaliseLifecycle) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  EXPECT_EQ(w.os.Finalise(3).err, kErrSuccess);
  EXPECT_EQ(w.os.Finalise(3).err, kErrAlreadyFinal);
  EXPECT_EQ(w.os.Finalise(4).err, kErrInvalidAddrspace);
  EXPECT_EQ(w.os.Finalise(63).err, kErrInvalidAddrspace);
  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  EXPECT_EQ(d[3].As<spec::AddrspacePage>().state, AddrspaceState::kFinal);
  // The measurement is no longer all-zero.
  EXPECT_NE(d[3].As<spec::AddrspacePage>().measurement, crypto::DigestWords{});
  ExpectValid();
}

TEST_F(SmcTest, MeasurementDependsOnLayoutAndContents) {
  // Two identical constructions produce identical measurements; changing the
  // entry point, VA or contents changes it (§4, Attestation).
  auto build = [&](World& world, word entry, word va, word fill) {
    world.os.InitAddrspace(3, 4);
    world.os.InitL2Table(3, 5, 0);
    const word pg = world.os.AllocInsecurePage();
    for (word i = 0; i < arm::kWordsPerPage; ++i) {
      world.os.WriteInsecure(pg, i, fill);
    }
    world.os.MapSecure(3, 6, MakeMapping(va, kMapR | kMapX), pg);
    world.os.InitThread(3, 7, entry);
    world.os.Finalise(3);
    return spec::ExtractPageDb(world.machine)[3].As<spec::AddrspacePage>().measurement;
  };
  World w1{64};
  World w2{64};
  World w3{64};
  World w4{64};
  World w5{64};
  const auto base = build(w1, 0x8000, 0x8000, 7);
  EXPECT_EQ(build(w2, 0x8000, 0x8000, 7), base);
  EXPECT_NE(build(w3, 0x8004, 0x8000, 7), base);  // entry point
  EXPECT_NE(build(w4, 0x8000, 0x9000, 7), base);  // virtual address
  EXPECT_NE(build(w5, 0x8000, 0x8000, 8), base);  // contents
}

TEST_F(SmcTest, StopAndRemoveFullTeardown) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  ASSERT_EQ(w.os.InitL2Table(3, 5, 0).err, kErrSuccess);
  const word staging = StagePage(9);
  ASSERT_EQ(w.os.MapSecure(3, 6, MakeMapping(0x8000, kMapR), staging).err, kErrSuccess);
  ASSERT_EQ(w.os.InitThread(3, 7, 0x8000).err, kErrSuccess);

  // Live pages cannot be removed.
  EXPECT_EQ(w.os.Remove(6).err, kErrNotStopped);
  EXPECT_EQ(w.os.Remove(3).err, kErrPageInUse);

  ASSERT_EQ(w.os.Stop(3).err, kErrSuccess);
  EXPECT_EQ(w.os.Remove(6).err, kErrSuccess);
  EXPECT_EQ(w.os.Remove(7).err, kErrSuccess);
  EXPECT_EQ(w.os.Remove(5).err, kErrSuccess);
  EXPECT_EQ(w.os.Remove(3).err, kErrPageInUse);  // l1pt still owned
  EXPECT_EQ(w.os.Remove(4).err, kErrSuccess);
  EXPECT_EQ(w.os.Remove(3).err, kErrSuccess);

  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  for (PageNr n : {3u, 4u, 5u, 6u, 7u}) {
    EXPECT_EQ(d[n].type(), PageType::kFree) << n;
  }
  ExpectValid();
}

TEST_F(SmcTest, RemoveScrubsContents) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  ASSERT_EQ(w.os.InitL2Table(3, 5, 0).err, kErrSuccess);
  const word staging = StagePage(0x5ec3e7);
  ASSERT_EQ(w.os.MapSecure(3, 6, MakeMapping(0x8000, kMapR), staging).err, kErrSuccess);
  ASSERT_EQ(w.os.Stop(3).err, kErrSuccess);
  ASSERT_EQ(w.os.Remove(6).err, kErrSuccess);
  // The freed page holds no residue of the enclave's data.
  for (word i = 0; i < arm::kWordsPerPage; ++i) {
    ASSERT_EQ(w.machine.mem.Read(PagePaddr(6) + i * arm::kWordSize), 0u);
  }
}

TEST_F(SmcTest, RemoveFreePageIsIdempotent) {
  EXPECT_EQ(w.os.Remove(10).err, kErrSuccess);
  EXPECT_EQ(w.os.Remove(64).err, kErrInvalidPageNo);
}

TEST_F(SmcTest, AllocSpareStates) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  EXPECT_EQ(w.os.AllocSpare(3, 5).err, kErrSuccess);  // allowed in init
  ASSERT_EQ(w.os.Finalise(3).err, kErrSuccess);
  EXPECT_EQ(w.os.AllocSpare(3, 6).err, kErrSuccess);  // and when final
  ASSERT_EQ(w.os.Stop(3).err, kErrSuccess);
  EXPECT_EQ(w.os.AllocSpare(3, 7).err, kErrInvalidAddrspace);  // not when stopped
  // Spare pages are reclaimable without stopping.
  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  EXPECT_EQ(d[5].type(), PageType::kSparePage);
  ExpectValid();
}

TEST_F(SmcTest, SpareRemovableFromRunningEnclave) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  ASSERT_EQ(w.os.AllocSpare(3, 5).err, kErrSuccess);
  ASSERT_EQ(w.os.Finalise(3).err, kErrSuccess);
  EXPECT_EQ(w.os.Remove(5).err, kErrSuccess);  // no Stop needed for spares
  ExpectValid();
}

TEST_F(SmcTest, SparesDoNotAffectMeasurement) {
  World other{64};
  auto build = [](World& world, bool with_spare) {
    world.os.InitAddrspace(3, 4);
    if (with_spare) {
      world.os.AllocSpare(3, 9);
    }
    world.os.InitThread(3, 7, 0x8000);
    world.os.Finalise(3);
    return spec::ExtractPageDb(world.machine)[3].As<spec::AddrspacePage>().measurement;
  };
  EXPECT_EQ(build(w, true), build(other, false));
}

TEST_F(SmcTest, EnterValidation) {
  ASSERT_EQ(w.os.InitAddrspace(3, 4).err, kErrSuccess);
  ASSERT_EQ(w.os.InitThread(3, 7, 0x8000).err, kErrSuccess);
  EXPECT_EQ(w.os.Enter(7).err, KomErr::kNotFinal);  // not finalised
  EXPECT_EQ(w.os.Enter(3).err, KomErr::kInvalidPageNo);  // not a thread
  EXPECT_EQ(w.os.Enter(63).err, KomErr::kInvalidPageNo);
  EXPECT_EQ(w.os.Resume(7).err, KomErr::kNotFinal);
  ASSERT_EQ(w.os.Finalise(3).err, kErrSuccess);
  EXPECT_EQ(w.os.Resume(7).err, KomErr::kNotEntered);  // never suspended
}

TEST_F(SmcTest, CyclesChargedPerCall) {
  const uint64_t before = w.machine.cycles.total();
  w.os.GetPhysPages();
  const uint64_t null_smc = w.machine.cycles.total() - before;
  EXPECT_GT(null_smc, 50u);
  EXPECT_LT(null_smc, 1000u);
}

}  // namespace
}  // namespace komodo
