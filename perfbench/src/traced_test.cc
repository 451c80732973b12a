// The traced run composes cells from public layer calls; its numbers are
// only meaningful while the composition reproduces Primary exactly. These
// tests pin that on one small cell per workload (plus the early-return
// outcomes), and pin that a cell which throws fails alone.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/batch.h"
#include "src/core/results.h"
#include "src/gate.h"
#include "src/traced.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

// The workload's cell named `label`, shrunk so the test stays quick.
CellSpec SmallCell(const std::string& workload, const std::string& label) {
  for (CellSpec cell : MakeWorkload(workload, /*seed=*/3, /*nproc=*/4).cells) {
    if (cell.label != label) {
      continue;
    }
    if (cell.kind == CellKind::kDapp) {
      cell.scale = 0.01;
    } else if (cell.kind == CellKind::kNative) {
      cell.seconds = 10;
    } else {
      cell.tps = 100;
    }
    return cell;
  }
  throw std::invalid_argument("no cell " + label + " in " + workload);
}

void ExpectComposedMatchesPrimary(const CellSpec& cell) {
  SCOPED_TRACE(cell.label);
  const diablo::RunResult primary = RunCell(cell);
  Tracer tracer;
  const TracedCell composed = RunCellTraced(cell, 0, &tracer);
  EXPECT_EQ(diablo::ReportToJson(composed.result.report),
            diablo::ReportToJson(primary.report));
  EXPECT_EQ(composed.result.events_executed, primary.events_executed);
  EXPECT_EQ(composed.result.unsupported, primary.unsupported);
  EXPECT_EQ(composed.result.failure_reason, primary.failure_reason);
  EXPECT_EQ(composed.result.behind_schedule, primary.behind_schedule);
  EXPECT_TRUE(CheckCell(cell, primary).empty());
  EXPECT_TRUE(CheckCell(cell, composed.result).empty());
  EXPECT_EQ(composed.layers.events, primary.events_executed);
}

TEST(TracedRunTest, ComposedReportEqualsPrimaryOnOneCellPerWorkload) {
  ExpectComposedMatchesPrimary(SmallCell("dapp-burst", "fifa/quorum"));
  ExpectComposedMatchesPrimary(SmallCell("validators", "algorand/xl-1000"));
  ExpectComposedMatchesPrimary(SmallCell("faults", "diem+equivocate-33%"));
  ExpectComposedMatchesPrimary(SmallCell("sweep", "ethereum/devnet"));
}

TEST(TracedRunTest, ComposedReportEqualsPrimaryOnExpectedOutcomes) {
  ExpectComposedMatchesPrimary(SmallCell("dapp-burst", "youtube/algorand"));
  ExpectComposedMatchesPrimary(SmallCell("dapp-burst", "uber/solana"));
}

TEST(TracedRunTest, ThrowingCellFailsAloneAndSpansStayWellFormed) {
  std::vector<CellSpec> cells = {SmallCell("sweep", "quorum/testnet"),
                                 SmallCell("sweep", "quorum/testnet"),
                                 SmallCell("sweep", "solana/testnet")};
  cells[1].deployment = "no-such-deployment";
  Tracer tracer;
  const Batch batch = RunBatch(cells, 1, [&](const CellSpec& cell, size_t i) {
    return RunCellTraced(cell, static_cast<uint32_t>(i), &tracer).result;
  });
  ASSERT_EQ(batch.cells.size(), 3u);
  EXPECT_FALSE(batch.cells[0].threw);
  EXPECT_TRUE(batch.cells[1].threw);
  EXPECT_NE(batch.cells[1].error.find("unknown deployment"), std::string::npos);
  EXPECT_FALSE(batch.cells[2].threw);
  EXPECT_TRUE(CheckCell(cells[2], batch.cells[2].result).empty());
  for (const Span& span : tracer.spans()) {
    EXPECT_GE(span.end_ns, span.begin_ns) << span.name;
  }
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    EXPECT_GE(seconds, 0.0) << name;
  }
}

TEST(TracedRunTest, ThrowingCellFailsAloneOnSeveralJobs) {
  std::vector<CellSpec> cells(4, SmallCell("sweep", "avalanche/datacenter"));
  const Batch batch = RunBatch(cells, 2, [](const CellSpec& cell, size_t i) {
    if (i == 2) {
      throw std::runtime_error("injected");
    }
    return RunCell(cell);
  });
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(batch.cells[i].threw, i == 2) << i;
  }
  EXPECT_EQ(batch.cells[2].error, "injected");
  EXPECT_EQ(ReportDigest(batch.cells[0].result.report),
            ReportDigest(batch.cells[3].result.report));
}

TEST(GateTest, FlagsBrokenConservationAndUnexpectedOutcomes) {
  const CellSpec cell = SmallCell("sweep", "quorum/datacenter");
  diablo::RunResult result = RunCell(cell);
  ASSERT_TRUE(CheckCell(cell, result).empty());
  diablo::RunResult lost = result;
  ++lost.report.submitted;
  EXPECT_FALSE(CheckCell(cell, lost).empty());
  diablo::RunResult late = result;
  late.behind_schedule = 1;
  EXPECT_FALSE(CheckCell(cell, late).empty());
  diablo::RunResult unsupported = result;
  unsupported.unsupported = true;
  EXPECT_FALSE(CheckCell(cell, unsupported).empty());
  CellSpec expects_failure = cell;
  expects_failure.expect = "budget exceeded";
  EXPECT_FALSE(CheckCell(expects_failure, result).empty());
}

}  // namespace
}  // namespace perfbench
