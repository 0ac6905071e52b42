// The three fbbench workloads. Each call runs one round: a fresh set-up,
// one timed phase of a fixed operation count, then its output checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// Blockbench YCSB contract on an in-memory ForkBaseLedger.
RoundResult RunLedger(const RunConfig& cfg);
// ForkBaseWiki over EmbeddedService on a persistent kLog store.
RoundResult RunWiki(const RunConfig& cfg);
// ClusterClient over loopback to a 3-member kQuorum replica group.
RoundResult RunReplicatedKv(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
