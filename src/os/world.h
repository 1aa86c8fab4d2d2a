// Convenience bundle: a booted machine + monitor + OS model, the starting
// point for tests, examples and benchmarks.
#ifndef SRC_OS_WORLD_H_
#define SRC_OS_WORLD_H_

#include "src/arm/machine.h"
#include "src/core/monitor.h"
#include "src/os/os.h"

namespace komodo::os {

struct World {
  arm::MachineState machine;
  Monitor monitor;
  Os os;

  explicit World(word nsecure_pages = arm::kDefaultSecurePages,
                 const Monitor::Config& config = Monitor::Config{})
      : machine(nsecure_pages), monitor(machine, config), os(machine, monitor) {
    monitor.Boot();
    machine.pc = 0x1000;  // the OS kernel "executes" from insecure RAM
  }

  // Restores the world to `snapshot`, a copy of this world's machine taken
  // after boot with dirty tracking on (DESIGN.md §11): the machine
  // (MachineState::ResetTo), then the monitor's and the OS model's host-side
  // state. Returns the memory pages restored.
  size_t ResetTo(const arm::MachineState& snapshot) {
    const size_t restored = machine.ResetTo(snapshot);
    monitor.ResetForReuse();
    os.ResetForReuse();
    return restored;
  }
};

}  // namespace komodo::os

#endif  // SRC_OS_WORLD_H_
