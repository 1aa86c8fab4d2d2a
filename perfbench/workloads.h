// The benchmark's workloads. Each runs one named input through the
// program's public API, checks every output, and fills the report with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace komodo::perfbench {

void RunServeChurn(const Options& opts, Report& report);
void RunServeResident(const Options& opts, Report& report);
void RunEnclaveSha(const Options& opts, Report& report);
void RunFuzzBlind(const Options& opts, Report& report);
void RunVerifySmall(const Options& opts, Report& report);

}  // namespace komodo::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
