// The traced run: a cell composed from the public layer calls that
// Primary::RunStreams makes, each call timed from outside as a span. The
// composition is only trusted while its report is byte-equal to Primary's
// for the same inputs; RunTraced in main.cc checks that on every traced cell.
#ifndef PERFBENCH_SRC_TRACED_H_
#define PERFBENCH_SRC_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/batch.h"
#include "src/core/primary.h"
#include "src/workloads.h"

namespace perfbench {

// One timed layer call. Spans of one cell share `cell`; `parent` is the id of
// the enclosing span, -1 for the cell span itself.
struct Span {
  uint32_t cell = 0;
  int32_t parent = -1;
  const char* name = "";
  int64_t begin_ns = 0;  // steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
};

// Keeps spans in memory until the run writes them out. Single-threaded: the
// traced pass runs its cells one at a time.
class Tracer {
 public:
  Tracer();

  int32_t Begin(uint32_t cell, int32_t parent, const char* name);
  // Closes span `id` and returns its duration in seconds.
  double End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span name, in seconds: each span's duration minus the part
  // its children cover, summed over spans of that name.
  std::vector<std::pair<std::string, double>> SelfSeconds() const;

  // Chrome trace-event JSON (one complete event per span).
  std::string ToJson(const std::vector<std::string>& cell_labels) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Per-cell layer split: seconds spent inside each public call, plus the
// counters the layers expose after the run.
struct CellLayers {
  double trace_s = 0;     // GetDappWorkload / ConstantTrace + Trace::Scaled
  double arrivals_s = 0;  // ExpandArrivals
  double build_s = 0;     // GetDeployment + GetChainParams + BuildChainFromParams
  double setup_s = 0;     // connector, fault injector, accounts, clients
  double deploy_s = 0;    // contract CreateResource
  double encode_s = 0;    // ReserveTxs + SimConnector::Encode per tx
  double assign_s = 0;    // Secondary::Assign per tx
  double start_s = 0;     // Simulation::Reserve + ChainInstance/Secondary::Start
  double run_s = 0;       // Simulation::RunUntil
  double trigger_s = 0;   // BlockchainClient::Trigger, summed (inside run_s)
  double report_s = 0;    // BuildReport + AddResilienceMetrics
  uint64_t txs = 0;
  uint64_t triggers = 0;
  int64_t heap_growth_b = 0;  // live-heap growth across encode + assign
  uint64_t heap_at_start = 0;
  uint64_t events = 0;
  uint64_t behind_schedule = 0;
  uint64_t blocks = 0;
  uint64_t empty_blocks = 0;
  uint64_t txs_in_blocks = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t evictions = 0;
  uint64_t view_changes = 0;
  uint64_t blocks_abandoned = 0;
  uint64_t loss_drops = 0;
  uint64_t unreachable_drops = 0;
  uint64_t client_retries = 0;
  uint64_t client_aborts = 0;
};

struct TracedCell {
  diablo::RunResult result;
  CellLayers layers;
};

// Runs `cell` as Primary::RunStreams would for its single stream, recording
// one "cell" span and a child span per layer call on `tracer`.
TracedCell RunCellTraced(const CellSpec& cell, uint32_t cell_id, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_H_
