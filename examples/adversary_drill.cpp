// Adversary drill: a hostile OS runs through the attacks the paper's
// verification effort is designed to stop — including the two concrete bugs
// §9.1 reports finding in the unverified prototype — and shows the monitor
// rejecting each one while a victim enclave keeps its secret.
//
//   $ ./examples/adversary_drill
#include <cstdio>

#include "src/arm/assembler.h"
#include "src/enclave/programs.h"
#include "src/os/world.h"
#include "src/spec/extract.h"

using namespace komodo;

namespace {

int failures = 0;

void Check(const char* attack, bool rejected, const char* how) {
  std::printf("%-58s %s (%s)\n", attack, rejected ? "BLOCKED" : "!! SUCCEEDED", how);
  if (!rejected) {
    ++failures;
  }
}

}  // namespace

int main() {
  os::World world{64};
  os::EnclaveHandle victim;
  auto built_victim = world.os.NewEnclave().Code(enclave::SquareSecretProgram()).Build();
  if (!built_victim.ok()) {
    return 1;
  }
  victim = *std::move(built_victim);
  // A secret arrives in the victim (modelled as a secure-channel delivery).
  world.machine.mem.Write(PagePaddr(victim.data_pages[1]), 0x5ec23e);

  std::printf("victim enclave up (addrspace page %u). beginning drill:\n\n", victim.addrspace);

  // 1. §9.1 bug #1: InitAddrspace with aliased arguments.
  Check("InitAddrspace(p, p) aliasing",
        world.os.InitAddrspace(40, 40).err == kErrInvalidPageNo, "kErrInvalidPageNo");

  // 2. §9.1 bug #2: feed the monitor's own image as "insecure" content.
  os::EnclaveHandle drone;
  // Build a half-constructed enclave to attack with.
  world.os.InitAddrspace(41, 42);
  world.os.InitL2Table(41, 43, 0);
  Check("MapSecure sourcing the monitor image",
        world.os.MapSecure(41, 44, MakeMapping(0x8000, kMapR),
                           arm::kMonitorBase / arm::kPageSize)
                .err == kErrInvalidArgument,
        "kErrInvalidArgument");
  Check("MapSecure sourcing the secure page region",
        world.os.MapSecure(41, 44, MakeMapping(0x8000, kMapR),
                           arm::kSecurePagesBase / arm::kPageSize)
                .err == kErrInvalidArgument,
        "kErrInvalidArgument");

  // 3. Double-mapping: claim the victim's data page for a new enclave.
  Check("MapSecure over the victim's data page",
        world.os.MapSecure(41, victim.data_pages[1], MakeMapping(0x8000, kMapR), 32).err ==
            kErrPageInUse,
        "kErrPageInUse");

  // 4. Retype the victim's pages.
  Check("InitThread on the victim's addrspace",
        world.os.InitThread(victim.addrspace, 45, 0xbad).err == kErrAlreadyFinal,
        "kErrAlreadyFinal");
  Check("InitAddrspace over the victim's thread page",
        world.os.InitAddrspace(victim.thread, 45).err == kErrPageInUse, "kErrPageInUse");

  // 5. Steal pages without stopping.
  Check("Remove on a live data page",
        world.os.Remove(victim.data_pages[1]).err == kErrNotStopped, "kErrNotStopped");

  // 6. Executable shared memory (would let the OS inject code post-measure).
  Check("MapInsecure with execute permission",
        world.os.MapInsecure(41, MakeMapping(0x9000, kMapR | kMapX), 32).err ==
            kErrInvalidMapping,
        "kErrInvalidMapping");

  // 7. Re-enter a suspended thread (context confusion).
  //    Interrupt the victim first.
  world.machine.pending_irq = true;
  const os::EnterResult interrupted = world.os.Enter(victim.thread);
  Check("interrupt reported without enclave state",
        interrupted.interrupted() && interrupted.payload == 0, "only the fact itself");
  Check("Enter on a suspended thread",
        world.os.Enter(victim.thread).err == KomErr::kAlreadyEntered, "kErrAlreadyEntered");
  const os::EnterResult resumed = world.os.Resume(victim.thread);
  Check("victim resumes and completes", resumed.exited(), "kErrSuccess");

  // 8. Direct physical access from the normal world (TrustZone filter).
  {
    arm::Assembler a(0x2000);
    a.MovImm(arm::R0, PagePaddr(victim.data_pages[1]));
    a.Ldr(arm::R1, arm::R0, 0);
    a.Svc();
    const std::vector<word> code = a.Finish();
    for (size_t i = 0; i < code.size(); ++i) {
      world.machine.mem.Write(0x2000 + static_cast<word>(i) * 4, code[i]);
    }
    world.machine.pc = 0x2000;
    const auto exc = arm::RunUntilException(world.machine, 100);
    Check("normal-world load of a secure page",
          exc == arm::Exception::kDataAbort, "TrustZone abort");
    // Restore the OS to a sane state for completeness.
    world.machine.cpsr.mode = arm::Mode::kSupervisor;
    world.machine.pc = 0x1000;
  }

  std::printf("\n%s\n", failures == 0 ? "all attacks blocked." : "ATTACKS GOT THROUGH!");
  (void)drone;
  return failures == 0 ? 0 : 1;
}
