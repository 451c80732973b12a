// ThreadPool unit tests plus the determinism regression contract of the
// parallel experiment runner: same seed => bit-identical results, serially
// and under any DIABLO_JOBS.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/config/json.h"
#include "src/core/parallel_runner.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/support/thread_pool.h"

namespace diablo {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] {});
  auto bad = pool.Submit([] { throw std::runtime_error("cell exploded"); });
  ok.get();
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ++ran; });
    }
    // Destructor must finish every queued task before joining.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

TEST(ParallelRunnerTest, JobsFromEnvParsesOverride) {
  ASSERT_EQ(setenv("DIABLO_JOBS", "3", 1), 0);
  EXPECT_EQ(ParallelRunner::JobsFromEnv(), 3);
  ASSERT_EQ(setenv("DIABLO_JOBS", "bogus", 1), 0);
  EXPECT_EQ(ParallelRunner::JobsFromEnv(), ThreadPool::HardwareConcurrency());
  ASSERT_EQ(unsetenv("DIABLO_JOBS"), 0);
  EXPECT_EQ(ParallelRunner::JobsFromEnv(), ThreadPool::HardwareConcurrency());
}

TEST(ParallelRunnerDeathTest, RejectsRemovedCellWorkersVariable) {
  // Values that parse to 0 are inert, so a stale "0" in a script still runs.
  for (const char* inert : {"0", "bogus", ""}) {
    ASSERT_EQ(setenv("DIABLO_CELL_WORKERS", inert, 1), 0);
    EXPECT_EQ(ParallelRunner::CellWorkersFromEnv(), 0) << inert;
    EXPECT_EQ(ParallelRunner(1).jobs(), 1) << inert;
  }
  ASSERT_EQ(setenv("DIABLO_CELL_WORKERS", "4", 1), 0);
  EXPECT_EQ(ParallelRunner::CellWorkersFromEnv(), 4);
  EXPECT_EXIT(ParallelRunner(1), ::testing::ExitedWithCode(2),
              "DIABLO_CELL_WORKERS was removed");
  ASSERT_EQ(unsetenv("DIABLO_CELL_WORKERS"), 0);
}

TEST(ParallelRunnerTest, ResultsComeBackInCellOrder) {
  ParallelRunner runner(4);
  std::vector<ExperimentCell> cells;
  for (int i = 0; i < 8; ++i) {
    cells.push_back({"cell" + std::to_string(i), [i] {
                       RunResult result;
                       result.behind_schedule = static_cast<size_t>(i);
                       return result;
                     }});
  }
  const std::vector<RunResult> results = runner.Run(std::move(cells));
  ASSERT_EQ(results.size(), 8u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].behind_schedule, i);
  }
}

TEST(ParallelRunnerTest, CellExceptionPropagates) {
  ParallelRunner runner(2);
  std::vector<ExperimentCell> cells;
  cells.push_back({"ok", [] { return RunResult(); }});
  cells.push_back({"bad", []() -> RunResult {
                     throw std::runtime_error("cell failed");
                   }});
  EXPECT_THROW(runner.Run(std::move(cells)), std::runtime_error);
}

TEST(ParallelRunnerTest, StatsAccumulateEvents) {
  ParallelRunner runner(1);
  std::vector<ExperimentCell> cells;
  cells.push_back({"a", [] {
                     RunResult result;
                     result.events_executed = 10;
                     return result;
                   }});
  cells.push_back({"b", [] {
                     RunResult result;
                     result.events_executed = 32;
                     return result;
                   }});
  runner.Run(std::move(cells));
  EXPECT_EQ(runner.stats().cells, 2u);
  EXPECT_EQ(runner.stats().total_events, 42u);
}

TEST(CellSeedTest, DistinctAndThreadIndependent) {
  EXPECT_NE(CellSeed(1, 0), CellSeed(1, 1));
  EXPECT_NE(CellSeed(1, 0), CellSeed(2, 0));
  EXPECT_EQ(CellSeed(7, 3), CellSeed(7, 3));
}

// Everything the report serializes plus the raw counters; if two runs agree
// on all of this, they took the same simulated trajectory.
std::string Fingerprint(const RunResult& result) {
  return ReportToJson(result.report) + "|events=" +
         std::to_string(result.events_executed) +
         "|behind=" + std::to_string(result.behind_schedule) +
         "|fail=" + result.failure_reason;
}

// Small native runs: enough traffic to exercise consensus, short enough for
// a unit test.
RunResult RunDeterminismCell(const std::string& chain, uint64_t seed) {
  return RunNativeBenchmark(chain, "testnet", /*tps=*/30, /*seconds=*/10, seed);
}

TEST(DeterminismTest, SerialRunsAreBitIdentical) {
  for (const char* chain : {"algorand", "solana"}) {
    const RunResult a = RunDeterminismCell(chain, 11);
    const RunResult b = RunDeterminismCell(chain, 11);
    EXPECT_EQ(Fingerprint(a), Fingerprint(b)) << chain;
  }
}

TEST(DeterminismTest, ParallelResultsInvariantToJobCount) {
  // The same 4-cell grid (2 chains x 2 cell-indexed seeds) must produce
  // bit-identical results serially, with jobs=1 and with jobs=4.
  const std::vector<std::string> chains = {"algorand", "solana"};
  auto build_cells = [&chains] {
    std::vector<ExperimentCell> cells;
    for (size_t c = 0; c < chains.size(); ++c) {
      for (uint64_t rep = 0; rep < 2; ++rep) {
        const std::string chain = chains[c];
        const uint64_t seed = CellSeed(/*base_seed=*/1, c * 2 + rep);
        cells.push_back({chain + "#" + std::to_string(rep),
                         [chain, seed] { return RunDeterminismCell(chain, seed); }});
      }
    }
    return cells;
  };

  std::vector<std::string> serial;
  for (ExperimentCell& cell : build_cells()) {
    serial.push_back(Fingerprint(cell.run()));
  }

  ParallelRunner one_job(1);
  const std::vector<RunResult> with_one = one_job.Run(build_cells());
  ParallelRunner four_jobs(4);
  const std::vector<RunResult> with_four = four_jobs.Run(build_cells());

  ASSERT_EQ(with_one.size(), serial.size());
  ASSERT_EQ(with_four.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(Fingerprint(with_one[i]), serial[i]) << "cell " << i;
    EXPECT_EQ(Fingerprint(with_four[i]), serial[i]) << "cell " << i;
  }
}

TEST(DeterminismTest, FaultCellsInvariantToJobCount) {
  // Fault-schedule runs must be byte-identical serially and across
  // DIABLO_JOBS, like healthy cells — the injector draws only from the
  // cell's own deterministic streams. Two schedules: crash + restart with a
  // loss window under client retries, and crash + partition + delay spike
  // with fire-and-forget clients.
  struct ScheduleInput {
    FaultSchedule faults;
    RetryPolicy retry;
    uint64_t base_seed;
  };
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = Seconds(1);
  const std::vector<ScheduleInput> inputs = {
      {FaultScheduleBuilder()
           .Crash(0, Seconds(2), Seconds(5))
           .Loss(0.1, Seconds(6), Seconds(8))
           .Build(),
       retry, /*base_seed=*/3},
      {FaultScheduleBuilder()
           .Crash(0, Seconds(2), Seconds(5))
           .Partition({1}, Seconds(3), Seconds(6))
           .DelaySpike(Milliseconds(80), Seconds(6), Seconds(8))
           .Build(),
       RetryPolicy(), /*base_seed=*/9},
  };
  const std::vector<std::string> chains = {"quorum", "solana"};
  for (size_t s = 0; s < inputs.size(); ++s) {
    const ScheduleInput& input = inputs[s];
    auto build_cells = [&] {
      std::vector<ExperimentCell> cells;
      for (size_t c = 0; c < chains.size(); ++c) {
        const std::string chain = chains[c];
        const uint64_t seed = CellSeed(input.base_seed, c);
        cells.push_back({chain + "+faults", [chain, seed, input] {
                           return RunFaultBenchmark(chain, "testnet", 30, 10, input.faults,
                                                    input.retry, seed);
                         }});
      }
      return cells;
    };

    std::vector<std::string> serial;
    for (ExperimentCell& cell : build_cells()) {
      serial.push_back(Fingerprint(cell.run()));
    }
    for (const int jobs : {1, 4}) {
      ParallelRunner runner(jobs);
      const std::vector<RunResult> parallel = runner.Run(build_cells());
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(Fingerprint(parallel[i]), serial[i])
            << "schedule " << s << " jobs=" << jobs << " cell " << i;
      }
    }
    for (const std::string& fingerprint : serial) {
      // The resilience fields ride in the fingerprint's JSON: make sure they
      // are actually populated rather than trivially equal-and-empty.
      EXPECT_NE(fingerprint.find("time_to_recovery_s"), std::string::npos)
          << "schedule " << s;
    }
  }
}

TEST(DeterminismTest, FaultedCellsInvariantToCellWorkersTimesJobsMatrix) {
  // DIABLO_CELL_WORKERS selects nothing any more: every value that still
  // lets a run start (unset, or anything parsing to 0) must leave crash +
  // partition + delay-spike cells byte-identical to the serial baseline at
  // every job count.
  ASSERT_EQ(unsetenv("DIABLO_CELL_WORKERS"), 0);
  const FaultSchedule faults = FaultScheduleBuilder()
                                   .Crash(0, Seconds(2), Seconds(5))
                                   .Partition({1}, Seconds(3), Seconds(6))
                                   .DelaySpike(Milliseconds(80), Seconds(6), Seconds(8))
                                   .Build();
  const RetryPolicy no_retry;
  const std::vector<std::string> chains = {"quorum", "solana"};
  auto build_cells = [&] {
    std::vector<ExperimentCell> cells;
    for (size_t c = 0; c < chains.size(); ++c) {
      const std::string chain = chains[c];
      const uint64_t seed = CellSeed(/*base_seed=*/9, c);
      cells.push_back({chain + "+faults", [chain, seed, faults, no_retry] {
                         return RunFaultBenchmark(chain, "testnet", 30, 10,
                                                  faults, no_retry, seed);
                       }});
    }
    return cells;
  };

  std::vector<std::string> baseline;
  for (ExperimentCell& cell : build_cells()) {
    baseline.push_back(Fingerprint(cell.run()));
  }

  for (const char* workers : {static_cast<const char*>(nullptr), "0", ""}) {
    if (workers == nullptr) {
      ASSERT_EQ(unsetenv("DIABLO_CELL_WORKERS"), 0);
    } else {
      ASSERT_EQ(setenv("DIABLO_CELL_WORKERS", workers, 1), 0);
    }
    const std::string label = workers == nullptr ? "unset" : workers;
    for (const int jobs : {1, 4}) {
      ParallelRunner runner(jobs);
      const std::vector<RunResult> got = runner.Run(build_cells());
      ASSERT_EQ(got.size(), baseline.size());
      for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(Fingerprint(got[i]), baseline[i])
            << "workers=" << label << " jobs=" << jobs << " cell " << i;
      }
    }
  }
  ASSERT_EQ(unsetenv("DIABLO_CELL_WORKERS"), 0);
}

TEST(RunnerStatsTest, JsonRoundTripKeepsOtherBinaries) {
  const std::string path = ::testing::TempDir() + "/BENCH_runner_test.json";
  RunnerStats first;
  first.jobs = 4;
  first.cells = 24;
  first.wall_seconds = 1.5;
  first.total_events = 3000;
  ASSERT_TRUE(WriteRunnerStatsJson(path, "fig3_scalability", first));

  RunnerStats second;
  second.jobs = 2;
  second.cells = 3;
  second.wall_seconds = 0.25;
  second.total_events = 500;
  ASSERT_TRUE(WriteRunnerStatsJson(path, "table1", second));
  // Overwrite fig3's entry; table1's must survive.
  first.cells = 48;
  ASSERT_TRUE(WriteRunnerStatsJson(path, "fig3_scalability", first));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonResult parsed = ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_TRUE(parsed.value.IsObject());
  const JsonValue* fig3 = parsed.value.Find("fig3_scalability");
  const JsonValue* table1 = parsed.value.Find("table1");
  ASSERT_NE(fig3, nullptr);
  ASSERT_NE(table1, nullptr);
  EXPECT_EQ(fig3->GetNumber("cells", 0), 48);
  EXPECT_EQ(fig3->GetNumber("jobs", 0), 4);
  EXPECT_EQ(table1->GetNumber("total_events", 0), 500);
  EXPECT_GT(fig3->GetNumber("events_per_second", -1), 0);
  // The schema stamp is emitted exactly once, never duplicated by the
  // keep-other-entries pass.
  EXPECT_EQ(parsed.value.GetNumber("schema_version", -1), kRunnerStatsSchemaVersion);
  int stamps = 0;
  for (const auto& [key, value] : parsed.value.members) {
    (void)value;
    stamps += key == "schema_version" ? 1 : 0;
  }
  EXPECT_EQ(stamps, 1);
}

TEST(RunnerStatsTest, OtherSchemaVersionLosesItsEntries) {
  // A file written under another layout (here a v3 file with its "kernels"
  // entry) must not pass its entries through under the current stamp.
  const std::string path = ::testing::TempDir() + "/BENCH_runner_stale.json";
  {
    std::ofstream stale(path, std::ios::trunc);
    stale << "{\"schema_version\": " << kRunnerStatsSchemaVersion - 1
          << ", \"kernels\": {\"speedup\": 2.0}, \"table1\": {\"cells\": 3}}\n";
  }
  RunnerStats stats;
  stats.jobs = 1;
  stats.cells = 6;
  ASSERT_TRUE(WriteRunnerStatsJson(path, "fig6_faults", stats));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonResult parsed = ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.GetNumber("schema_version", -1), kRunnerStatsSchemaVersion);
  EXPECT_EQ(parsed.value.Find("kernels"), nullptr);
  EXPECT_EQ(parsed.value.Find("table1"), nullptr);
  const JsonValue* faults = parsed.value.Find("fig6_faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->GetNumber("cells", 0), 6);
  EXPECT_EQ(parsed.value.members.size(), 2u);
}

}  // namespace
}  // namespace diablo
