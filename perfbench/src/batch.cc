#include "src/batch.h"

#include <exception>
#include <utility>

#include "src/core/parallel_runner.h"

namespace perfbench {

Batch RunBatch(const std::vector<CellSpec>& cells, int jobs, const CellFn& run) {
  Batch batch;
  batch.jobs = jobs;
  batch.cells.resize(cells.size());
  std::vector<diablo::ExperimentCell> wrapped;
  wrapped.reserve(cells.size());
  // Each closure writes only its own pre-sized outcome slot; `batch` and
  // `cells` outlive Run(), which joins every worker before returning.
  for (size_t i = 0; i < cells.size(); ++i) {
    wrapped.push_back({cells[i].label, [&batch, &cells, &run, i] {
                         CellOutcome& out = batch.cells[i];
                         const Clock::time_point start = Clock::now();
                         out.queue_wait_s = SecondsBetween(batch.handoff, start);
                         diablo::RunResult result;
                         try {
                           result = run(cells[i], i);
                         } catch (const std::exception& e) {
                           out.threw = true;
                           out.error = e.what();
                         } catch (...) {
                           out.threw = true;
                           out.error = "unknown exception";
                         }
                         out.cell_s = SecondsBetween(start, Clock::now());
                         return result;
                       }});
  }
  diablo::ParallelRunner runner(jobs);
  batch.handoff = Clock::now();
  std::vector<diablo::RunResult> results = runner.Run(std::move(wrapped));
  batch.wall_s = SecondsBetween(batch.handoff, Clock::now());
  for (size_t i = 0; i < results.size(); ++i) {
    batch.cells[i].result = std::move(results[i]);
  }
  return batch;
}

}  // namespace perfbench
