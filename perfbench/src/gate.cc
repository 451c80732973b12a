#include "src/gate.h"

#include "src/core/results.h"
#include "src/crypto/sha256.h"
#include "src/support/strings.h"

namespace perfbench {

std::string ReportDigest(const diablo::Report& report) {
  return diablo::DigestHex(diablo::Sha256Digest(diablo::ReportToJson(report)));
}

std::vector<std::string> CheckCell(const CellSpec& cell, const diablo::RunResult& result) {
  std::vector<std::string> violations;
  const diablo::Report& r = result.report;
  const bool expect_unsupported = cell.expect == "unsupported";
  const std::string expect_failure = expect_unsupported ? std::string() : cell.expect;
  if (result.unsupported != expect_unsupported) {
    violations.push_back(result.unsupported ? "unexpectedly unsupported"
                                            : "expected unsupported, but ran");
  }
  if (!result.unsupported && result.failure_reason != expect_failure) {
    violations.push_back("failure_reason '" + result.failure_reason + "', expected '" +
                         expect_failure + "'");
  }
  const size_t accounted = r.committed + r.dropped + r.aborted + r.pending;
  if (r.submitted != accounted) {
    violations.push_back(diablo::StrFormat(
        "conservation: submitted %zu != committed %zu + dropped %zu + aborted %zu + "
        "pending %zu",
        r.submitted, r.committed, r.dropped, r.aborted, r.pending));
  }
  const double ratio = r.submitted > 0 ? static_cast<double>(r.committed) /
                                             static_cast<double>(r.submitted)
                                       : 0.0;
  if (r.commit_ratio != ratio) {
    violations.push_back(diablo::StrFormat("commit_ratio %.17g != committed/submitted %.17g",
                                           r.commit_ratio, ratio));
  }
  if (!result.unsupported && r.submitted == 0) {
    violations.push_back("no transaction submitted");
  }
  if (result.behind_schedule != 0) {
    violations.push_back(
        diablo::StrFormat("%zu submissions behind schedule", result.behind_schedule));
  }
  return violations;
}

}  // namespace perfbench
