// Runs a workload's cells through ParallelRunner with every ExperimentCell
// closure wrapped: the wrapper times the cell, records how long it queued
// after Run() was called, and turns an exception into a failed cell instead
// of letting it abort the batch.
#ifndef PERFBENCH_SRC_BATCH_H_
#define PERFBENCH_SRC_BATCH_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "src/core/primary.h"
#include "src/workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct CellOutcome {
  diablo::RunResult result;
  std::string error;         // what() of the exception the cell threw, if any
  bool threw = false;
  double queue_wait_s = 0;   // from Run() until the cell started
  double cell_s = 0;
};

struct Batch {
  int jobs = 1;
  Clock::time_point handoff;  // when the cells were handed to the runner
  double wall_s = 0;          // Run() call to return
  std::vector<CellOutcome> cells;
};

using CellFn = std::function<diablo::RunResult(const CellSpec& cell, size_t index)>;

Batch RunBatch(const std::vector<CellSpec>& cells, int jobs, const CellFn& run);

// Seconds between two steady-clock points.
inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BATCH_H_
