// The benchmark's four workloads: named grids of independent cells, each
// cell one call of a public entry point the paper binaries use
// (RunDappBenchmark, RunNativeBenchmark, RunFaultBenchmark). A workload is
// generated from the benchmark seed alone; the simulator sees only the
// resulting cell specs.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/primary.h"
#include "src/fault/schedule.h"

namespace perfbench {

enum class CellKind { kDapp, kNative, kFault };

struct CellSpec {
  std::string label;
  CellKind kind = CellKind::kNative;
  std::string chain;
  std::string deployment;
  std::string dapp;  // kDapp
  double tps = 0;    // kNative, kFault
  int seconds = 0;   // kNative, kFault
  diablo::FaultSchedule faults;  // kFault
  diablo::RetryPolicy retry;     // kFault
  uint64_t seed = 1;
  double scale = 1.0;
  // The outcome the model is known to produce: empty for a normal run,
  // "unsupported" for a contract the chain's VM cannot host, otherwise the
  // expected RunResult::failure_reason. Anything else fails the cell.
  std::string expect;
};

struct Workload {
  std::string name;
  int jobs = 1;  // ParallelRunner workers
  std::vector<CellSpec> cells;
};

// Builds the named workload ("dapp-burst", "validators", "faults", "sweep")
// for `seed`; `nproc` caps the sweep's job count.
// Throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed, int nproc);

// Runs one cell through the public entry point for its kind.
diablo::RunResult RunCell(const CellSpec& cell);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
