// The per-cell correctness gate: conservation laws every report must obey,
// the outcome the model is known to produce, and the report digest that is
// compared against the committed digests of the default seed.
#ifndef PERFBENCH_SRC_GATE_H_
#define PERFBENCH_SRC_GATE_H_

#include <string>
#include <vector>

#include "src/core/primary.h"
#include "src/workloads.h"

namespace perfbench {

// Lowercase hex sha256 of the report's ReportToJson bytes.
std::string ReportDigest(const diablo::Report& report);

// The laws `result` violates as a cell of `cell`; empty when it passes.
//  - outcome: unsupported / failure_reason match CellSpec::expect;
//  - conservation: submitted = committed + dropped + aborted + pending;
//  - commit_ratio = committed / submitted;
//  - a supported cell submits at least one transaction;
//  - no secondary fell behind its schedule.
std::vector<std::string> CheckCell(const CellSpec& cell, const diablo::RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GATE_H_
