#include "src/fuzz/pool.h"

namespace komodo::fuzz {

Monitor::Config FuzzMonitorConfig() {
  Monitor::Config cfg;
  cfg.max_enclave_steps = 4000;
  return cfg;
}

WorldPool::Lease::~Lease() {
  if (pool_ != nullptr) {
    pool_->Release(std::move(slot_));
  }
}

WorldPool::Lease WorldPool::Acquire(word pages) {
  ++stats_.acquires;
  Bucket& bucket = buckets_[pages];
  if (!bucket.free.empty()) {
    Lease::Slot slot = std::move(bucket.free.back());
    bucket.free.pop_back();
    ++stats_.resets;
    stats_.pages_restored += slot.world->ResetTo(*slot.snapshot);
    return Lease(this, std::move(slot));
  }
  Lease::Slot slot;
  slot.world = std::make_unique<os::World>(pages, config_);
  ++stats_.constructions;
  if (bucket.snapshot == nullptr) {
    // Boot is deterministic, so this world's post-boot state doubles as the
    // reset target for every later world of the same geometry.
    bucket.snapshot = std::make_shared<const arm::MachineState>(slot.world->machine);
  }
  slot.snapshot = bucket.snapshot;
  return Lease(this, std::move(slot));
}

void WorldPool::Release(Lease::Slot slot) {
  buckets_[slot.world->machine.mem.nsecure_pages()].free.push_back(std::move(slot));
}

}  // namespace komodo::fuzz
