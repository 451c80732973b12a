// perfbench_pass: runs one benchmark workload in this process and prints
// one JSON line on stdout. perfbench/run.py spawns it, once per measured pass.
//
//   perfbench_pass --workload <name> --seed <n> [--jobs <n>]
//   perfbench_pass --workload <name> --seed <n> --traced [--spans <path>]
//   perfbench_pass --workload <name> --seed <n> --setup-only
//
// Untraced: the workload's cells go through RunDappBenchmark /
// RunNativeBenchmark / RunFaultBenchmark on a ParallelRunner; the line
// carries the handoff instant (steady clock), wall time, submitted
// transactions, peak RSS and each cell's digest, seconds and law violations.
//
// Traced: the same untraced pass (runner metrics, reference reports), an
// untraced one-job pass when the workload runs more jobs (overhead baseline
// and job-count determinism), then every cell composed from its layer calls
// with spans. The line carries the per-layer metrics; a composed report that
// differs from Primary's fails its cell.
//
// Setup-only: builds the workload's cells and prints the instant they would
// be handed to the runner, so run.py can sample set-up time many times.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/batch.h"
#include "src/core/parallel_runner.h"
#include "src/core/results.h"
#include "src/gate.h"
#include "src/support/check.h"
#include "src/support/profile.h"
#include "src/support/strings.h"
#include "src/traced.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using diablo::StrFormat;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  int jobs = 0;  // 0 = the workload's own job count
  bool traced = false;
  bool setup_only = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced" || flag == "--setup-only") {
      (flag == "--traced" ? args->traced : args->setup_only) = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    int64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && diablo::ParseInt64(value, &number) && number >= 0) {
      args->seed = static_cast<uint64_t>(number);
      args->have_seed = true;
    } else if (flag == "--jobs" && diablo::ParseInt64(value, &number) && number >= 1 &&
               number <= 64) {
      args->jobs = static_cast<int>(number);
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->have_seed;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Nproc() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

std::string EnvStamp() {
  return StrFormat(
      "{\"nproc\": %d, \"build_type\": %s, \"compiler\": %s, \"checked\": %s, "
      "\"sanitized\": %s, \"optimized\": %s}",
      Nproc(), JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(CompilerName()).c_str(),
      diablo::kCheckedBuild ? "true" : "false", kSanitizedBuild ? "true" : "false",
      kOptimizedBuild ? "true" : "false");
}

// Why this process must not time anything, or empty.
std::string RefusalReason() {
  if (diablo::kCheckedBuild) {
    return "checked build (DIABLO_CHECKED): invariant assertions distort timings";
  }
  if (kSanitizedBuild) {
    return "sanitizer build";
  }
  if (!kOptimizedBuild) {
    return "unoptimized build";
  }
  if (diablo::ParallelRunner::CellWorkersFromEnv() != 0) {
    return "DIABLO_CELL_WORKERS is set";
  }
  if (diablo::profile::Enabled()) {
    return "DIABLO_PROFILE is set";
  }
  return {};
}

// Digest, seconds and law violations of every cell, plus any extra violations.
std::string CellsJson(const Workload& workload, const Batch& batch,
                      const std::vector<std::vector<std::string>>& extra) {
  std::string out = "[";
  for (size_t i = 0; i < workload.cells.size(); ++i) {
    const CellOutcome& cell = batch.cells[i];
    std::vector<std::string> violations;
    if (cell.threw) {
      violations.push_back("threw: " + cell.error);
    } else {
      violations = CheckCell(workload.cells[i], cell.result);
    }
    violations.insert(violations.end(), extra[i].begin(), extra[i].end());
    std::string list;
    for (const std::string& v : violations) {
      list += (list.empty() ? "" : ", ") + JsonString(v);
    }
    out += StrFormat(
        "%s{\"label\": %s, \"digest\": %s, \"cell_s\": %.9f, \"violations\": [%s]}",
        i == 0 ? "" : ", ", JsonString(workload.cells[i].label).c_str(),
        JsonString(cell.threw ? "" : ReportDigest(cell.result.report)).c_str(), cell.cell_s,
        list.c_str());
  }
  return out + "]";
}

// Peak resident set of this process image in MB: VmHWM. getrusage's
// ru_maxrss would also carry the high-water mark of the process that forked
// this one, since Linux folds the pre-exec image's peak into it.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    int64_t kb = 0;
    if (line.rfind("VmHWM:", 0) == 0 &&
        diablo::ParseInt64(diablo::Trim(line.substr(6, line.size() - 6 - 3)), &kb)) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return static_cast<double>(diablo::profile::PeakRssBytes()) / (1024.0 * 1024.0);
}

uint64_t Submitted(const Batch& batch) {
  uint64_t total = 0;
  for (const CellOutcome& cell : batch.cells) {
    total += cell.result.report.submitted;
  }
  return total;
}

long long SteadyNs(Clock::time_point t) {
  return static_cast<long long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count());
}

std::string Header(const Workload& workload, const Args& args, int jobs) {
  return StrFormat("\"workload\": %s, \"seed\": %llu, \"jobs\": %d, \"env\": %s",
                   JsonString(workload.name).c_str(),
                   static_cast<unsigned long long>(args.seed), jobs, EnvStamp().c_str());
}

int RunUntraced(const Workload& workload, const Args& args) {
  const int jobs = args.jobs > 0 ? args.jobs : workload.jobs;
  const Batch batch = RunBatch(workload.cells, jobs, [](const CellSpec& cell, size_t) {
    return RunCell(cell);
  });
  const std::vector<std::vector<std::string>> none(workload.cells.size());
  std::printf(
      "{%s, \"handoff_ns\": %lld, \"wall_s\": %.9f, \"submitted\": %llu, "
      "\"peak_rss_mb\": %.6f, \"cells\": %s}\n",
      Header(workload, args, jobs).c_str(), SteadyNs(batch.handoff), batch.wall_s,
      static_cast<unsigned long long>(Submitted(batch)), PeakRssMb(),
      CellsJson(workload, batch, none).c_str());
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The per-layer metrics of a traced run as JSON members: layer seconds and
// counters summed over the cells, runner metrics from the untraced pass at
// the workload's job count, overhead against the untraced one-job pass.
std::string LayerMetricsJson(const std::vector<CellLayers>& layers, const Tracer& tracer,
                             const Batch& reference, const Batch& baseline,
                             const Batch& traced) {
  CellLayers sum;
  uint64_t heap_at_start_max = 0;
  double submitted = 0;
  for (size_t i = 0; i < layers.size(); ++i) {
    const CellLayers& l = layers[i];
    sum.trace_s += l.trace_s;
    sum.arrivals_s += l.arrivals_s;
    sum.build_s += l.build_s;
    sum.setup_s += l.setup_s;
    sum.deploy_s += l.deploy_s;
    sum.encode_s += l.encode_s;
    sum.assign_s += l.assign_s;
    sum.start_s += l.start_s;
    sum.run_s += l.run_s;
    sum.trigger_s += l.trigger_s;
    sum.report_s += l.report_s;
    sum.txs += l.txs;
    sum.triggers += l.triggers;
    sum.heap_growth_b += l.heap_growth_b;
    heap_at_start_max = std::max(heap_at_start_max, l.heap_at_start);
    sum.events += l.events;
    sum.behind_schedule += l.behind_schedule;
    sum.blocks += l.blocks;
    sum.empty_blocks += l.empty_blocks;
    sum.txs_in_blocks += l.txs_in_blocks;
    sum.admitted += l.admitted;
    sum.rejected += l.rejected;
    sum.evictions += l.evictions;
    sum.view_changes += l.view_changes;
    sum.blocks_abandoned += l.blocks_abandoned;
    sum.loss_drops += l.loss_drops;
    sum.unreachable_drops += l.unreachable_drops;
    sum.client_retries += l.client_retries;
    sum.client_aborts += l.client_aborts;
    submitted += static_cast<double>(traced.cells[i].result.report.submitted);
  }
  double cell_span_s = 0;
  double cell_self_s = 0;
  for (const Span& span : tracer.spans()) {
    if (span.parent < 0) {
      cell_span_s += static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
    }
  }
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    if (name == "cell") {
      cell_self_s = seconds;
    }
  }
  std::vector<double> cell_s;
  double busy_s = 0;
  double queue_wait_s = 0;
  for (const CellOutcome& cell : reference.cells) {
    cell_s.push_back(cell.cell_s);
    busy_s += cell.cell_s;
    queue_wait_s += cell.queue_wait_s;
  }
  std::sort(cell_s.begin(), cell_s.end());
  const double cell_p50 = cell_s.empty() ? 0.0 : cell_s[(cell_s.size() - 1) / 2];
  const double cell_max = cell_s.empty() ? 0.0 : cell_s.back();
  const double harness_s =
      sum.arrivals_s + sum.encode_s + sum.assign_s + sum.start_s + sum.trigger_s;
  const double txs = static_cast<double>(sum.txs);
  const double chain_self_s = sum.run_s - sum.trigger_s;

  const std::vector<std::pair<const char*, double>> metrics = {
      {"workload.trace_s", sum.trace_s},
      {"workload.arrivals_s", sum.arrivals_s},
      {"workload.txs", txs},
      {"chains.build_s", sum.build_s},
      {"contracts.deploy_s", sum.deploy_s},
      {"core.setup_s", sum.setup_s},
      {"core.encode_s", sum.encode_s},
      {"core.encode_ns_per_tx", 1e9 * Ratio(sum.encode_s, txs)},
      {"core.assign_s", sum.assign_s},
      {"core.start_s", sum.start_s},
      {"core.bytes_per_tx", Ratio(static_cast<double>(sum.heap_growth_b), txs)},
      {"sim.heap_at_start", static_cast<double>(heap_at_start_max)},
      {"sim.run_s", sum.run_s},
      {"sim.events", static_cast<double>(sum.events)},
      {"sim.events_per_s", Ratio(static_cast<double>(sum.events), sum.run_s)},
      {"core.trigger_s", sum.trigger_s},
      {"core.trigger_ns_per_tx",
       1e9 * Ratio(sum.trigger_s, static_cast<double>(sum.triggers))},
      {"core.behind_schedule", static_cast<double>(sum.behind_schedule)},
      {"chain.self_s", chain_self_s},
      {"chain.blocks", static_cast<double>(sum.blocks)},
      {"chain.empty_blocks", static_cast<double>(sum.empty_blocks)},
      {"chain.txs_per_block", Ratio(static_cast<double>(sum.txs_in_blocks),
                                    static_cast<double>(sum.blocks))},
      {"mempool.admitted", static_cast<double>(sum.admitted)},
      {"mempool.rejected", static_cast<double>(sum.rejected)},
      {"mempool.evictions", static_cast<double>(sum.evictions)},
      {"mempool.admit_ratio", Ratio(static_cast<double>(sum.admitted), submitted)},
      {"chain.view_changes", static_cast<double>(sum.view_changes)},
      {"chain.blocks_abandoned", static_cast<double>(sum.blocks_abandoned)},
      {"net.loss_drops", static_cast<double>(sum.loss_drops)},
      {"net.unreachable_drops", static_cast<double>(sum.unreachable_drops)},
      {"core.client_retries", static_cast<double>(sum.client_retries)},
      {"core.client_aborts", static_cast<double>(sum.client_aborts)},
      {"core.report_s", sum.report_s},
      {"cell.self_s", cell_self_s},
      {"core.harness_share", Ratio(harness_s, cell_span_s)},
      {"runner.cell_s.p50", cell_p50},
      {"runner.cell_s.max", cell_max},
      {"runner.queue_wait_s",
       Ratio(queue_wait_s, static_cast<double>(reference.cells.size()))},
      {"runner.efficiency", Ratio(busy_s, reference.jobs * reference.wall_s)},
      {"support.arena_hwm_b", static_cast<double>(diablo::profile::ArenaHighWater())},
      {"trace.overhead_s", traced.wall_s - baseline.wall_s},
  };
  std::string metrics_json;
  for (const auto& [name, value] : metrics) {
    metrics_json += StrFormat("%s\"%s\": %.17g", metrics_json.empty() ? "" : ", ", name,
                              value);
  }
  return metrics_json;

}

int RunTraced(const Workload& workload, const Args& args) {
  const size_t n = workload.cells.size();
  const auto untraced = [](const CellSpec& cell, size_t) { return RunCell(cell); };
  const Batch reference = RunBatch(workload.cells, workload.jobs, untraced);
  std::vector<std::vector<std::string>> extra(n);
  // One job is the traced pass's own setting, so its untraced twin is the
  // overhead baseline; with more jobs it doubles as the determinism check.
  Batch serial;
  const Batch* baseline = &reference;
  if (workload.jobs > 1) {
    serial = RunBatch(workload.cells, 1, untraced);
    baseline = &serial;
    for (size_t i = 0; i < n; ++i) {
      if (!serial.cells[i].threw && !reference.cells[i].threw &&
          ReportDigest(serial.cells[i].result.report) !=
              ReportDigest(reference.cells[i].result.report)) {
        extra[i].push_back(StrFormat("report at 1 job differs from %d jobs", workload.jobs));
      }
    }
  }

  Tracer tracer;
  std::vector<CellLayers> layers(n);
  const Batch traced = RunBatch(workload.cells, 1, [&](const CellSpec& cell, size_t i) {
    TracedCell t = RunCellTraced(cell, static_cast<uint32_t>(i), &tracer);
    layers[i] = t.layers;
    return std::move(t.result);
  });
  for (size_t i = 0; i < n; ++i) {
    const CellOutcome& composed = traced.cells[i];
    const CellOutcome& primary = reference.cells[i];
    if (composed.threw != primary.threw) {
      extra[i].push_back(composed.threw ? "composed cell threw: " + composed.error
                                        : "composed cell ran where Primary threw");
      continue;
    }
    if (composed.threw) {
      continue;
    }
    const diablo::RunResult& a = composed.result;
    const diablo::RunResult& b = primary.result;
    if (diablo::ReportToJson(a.report) != diablo::ReportToJson(b.report) ||
        a.events_executed != b.events_executed || a.unsupported != b.unsupported ||
        a.failure_reason != b.failure_reason || a.behind_schedule != b.behind_schedule) {
      extra[i].push_back("composed report differs from Primary's");
    }
  }

  if (!args.spans_path.empty()) {
    std::vector<std::string> labels;
    for (const CellSpec& cell : workload.cells) {
      labels.push_back(cell.label);
    }
    std::ofstream spans(args.spans_path);
    spans << tracer.ToJson(labels);
    if (!spans) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  }
  std::printf("{%s, \"wall_s\": %.9f, \"traced_wall_s\": %.9f, \"cells\": %s, "
              "\"metrics\": {%s}}\n",
              Header(workload, args, workload.jobs).c_str(), reference.wall_s, traced.wall_s,
              CellsJson(workload, reference, extra).c_str(),
              LayerMetricsJson(layers, tracer, reference, *baseline, traced).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_pass --workload <name> --seed <n> [--jobs <n>] "
                 "[--traced [--spans <path>] | --setup-only]\n");
    return 2;
  }
  const std::string refusal = perfbench::RefusalReason();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this process: %s\n", refusal.c_str());
    return 3;
  }
  perfbench::Workload workload;
  try {
    workload = perfbench::MakeWorkload(args.workload, args.seed, perfbench::Nproc());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (args.setup_only) {
    std::printf("{\"handoff_ns\": %lld}\n", perfbench::SteadyNs(perfbench::Clock::now()));
    return 0;
  }
  return args.traced ? perfbench::RunTraced(workload, args)
                     : perfbench::RunUntraced(workload, args);
}
