#include "src/traced.h"

#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "src/chains/chain_factory.h"
#include "src/chains/params.h"
#include "src/core/interface.h"
#include "src/core/report.h"
#include "src/core/secondary.h"
#include "src/fault/injector.h"
#include "src/support/strings.h"
#include "src/workload/arrival.h"
#include "src/workload/dapps.h"

namespace perfbench {

using namespace diablo;  // the composition names most of the public API

namespace {

int64_t DurationNs(const Span& span) { return span.end_ns - span.begin_ns; }

// Closes its span when it goes out of scope, so a layer call that throws
// still leaves a well-formed span tree behind.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t cell, int32_t parent, const char* name)
      : tracer_(tracer), id_(tracer->Begin(cell, parent, name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (open_) {
      tracer_->End(id_);
    }
  }

  int32_t id() const { return id_; }

  // Closes the span now; returns its duration in seconds.
  double End() {
    open_ = false;
    return tracer_->End(id_);
  }

 private:
  Tracer* tracer_;
  int32_t id_;
  bool open_ = true;
};

// Bytes the allocator has handed out and not taken back, over all arenas.
int64_t LiveHeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

// Times every Trigger from outside and counts the calls, as per-cell
// accumulators rather than per-transaction spans.
class TimedClient : public BlockchainClient {
 public:
  TimedClient(std::unique_ptr<BlockchainClient> inner, CellLayers* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  void Trigger(TxId encoded, SimTime submit_time) override {
    const Clock::time_point start = Clock::now();
    inner_->Trigger(encoded, submit_time);
    layers_->trigger_s += SecondsBetween(start, Clock::now());
    ++layers_->triggers;
  }

 private:
  std::unique_ptr<BlockchainClient> inner_;
  CellLayers* layers_;
};

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

int32_t Tracer::Begin(uint32_t cell, int32_t parent, const char* name) {
  Span span;
  span.cell = cell;
  span.parent = parent;
  span.name = name;
  span.begin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

double Tracer::End(int32_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                    .count();
  return static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
}

std::vector<std::pair<std::string, double>> Tracer::SelfSeconds() const {
  std::vector<int64_t> self_ns(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[i] += DurationNs(spans_[i]);
    if (spans_[i].parent >= 0) {
      self_ns[static_cast<size_t>(spans_[i].parent)] -= DurationNs(spans_[i]);
    }
  }
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self_ns[i];
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, ns] : by_name) {
    out.emplace_back(name, static_cast<double>(ns) * 1e-9);
  }
  return out;
}

std::string Tracer::ToJson(const std::vector<std::string>& cell_labels) const {
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string label =
        s.cell < cell_labels.size() ? cell_labels[s.cell] : std::string();
    out += StrFormat(
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
        "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"cell\": \"%s\"}}",
        i == 0 ? "" : ",", s.name, s.cell, static_cast<double>(s.begin_ns) * 1e-3,
        static_cast<double>(DurationNs(s)) * 1e-3, i, s.parent, label.c_str());
  }
  out += "\n]}\n";
  return out;
}

TracedCell RunCellTraced(const CellSpec& cell, uint32_t cell_id, Tracer* tracer) {
  TracedCell out;
  CellLayers& layers = out.layers;
  RunResult& result = out.result;
  const BenchmarkSetup defaults;
  ScopedSpan root(tracer, cell_id, -1, "cell");
  auto span = [&](const char* name, double* seconds, auto&& call) {
    ScopedSpan layer(tracer, cell_id, root.id(), name);
    call();
    *seconds += layer.End();
  };

  // The single stream RunDappBenchmark / RunNativeBenchmark /
  // RunFaultBenchmark hand to Primary::RunStreams.
  WorkStream stream;
  std::string workload_name;
  span("workload.trace", &layers.trace_s, [&] {
    if (cell.kind == CellKind::kDapp) {
      const DappWorkload dapp = GetDappWorkload(cell.dapp);
      stream.trace = dapp.trace;
      stream.contract = dapp.contract;
      stream.fixed = dapp.fixed;
      stream.dapp_name = dapp.name;
      workload_name = dapp.name;
    } else {
      stream.trace = ConstantTrace(cell.tps, cell.seconds);
      workload_name = stream.trace.name;
    }
    if (cell.scale != 1.0) {
      stream.trace = stream.trace.Scaled(cell.scale);
    }
  });
  result.report.deployment = cell.deployment;
  result.report.workload = workload_name;

  Simulation sim(cell.seed);
  Network net(&sim);
  DeploymentConfig deployment;
  ChainParams params;
  std::unique_ptr<ChainInstance> chain;
  span("chains.build", &layers.build_s, [&] {
    deployment = GetDeployment(cell.deployment);
    params = GetChainParams(cell.chain);
    chain = BuildChainFromParams(params, deployment, &sim, &net);
  });
  ChainContext& ctx = chain->context();
  SimConnector connector(chain.get());
  connector.set_retry_policy(cell.retry);
  result.report.chain = params.name;

  FaultInjector injector(cell.faults, &ctx);
  Resource accounts;
  bool installed = true;
  span("core.setup", &layers.setup_s, [&] {
    if (!cell.faults.empty()) {
      std::string error;
      installed = injector.Install(&error);
      if (!installed) {
        result.failure_reason = "fault schedule: " + error;
        return;
      }
    }
    int account_count = defaults.accounts;
    if (params.name == "diem" && deployment.node_count >= 200) {
      account_count = std::min(account_count, 130);
    }
    ResourceSpec accounts_spec;
    accounts_spec.kind = ResourceSpec::Kind::kAccounts;
    accounts_spec.account_count = account_count;
    connector.CreateResource(accounts_spec, &accounts);
  });
  if (!installed) {
    return out;
  }

  Resource contract;
  bool deployed = true;
  if (!stream.contract.empty()) {
    span("contracts.deploy", &layers.deploy_s, [&] {
      ResourceSpec contract_spec;
      contract_spec.kind = ResourceSpec::Kind::kContract;
      contract_spec.contract_name = stream.contract;
      deployed = connector.CreateResource(contract_spec, &contract);
    });
  }
  if (!deployed) {
    result.unsupported = true;
    result.failure_reason = "contract not deployable on " + params.vm_name;
    return out;
  }

  // The collocated default set of secondaries, one endpoint each.
  std::vector<std::unique_ptr<Secondary>> secondaries;
  span("core.setup", &layers.setup_s, [&] {
    for (int s = 0; s < defaults.secondaries; ++s) {
      const int endpoint = s % deployment.node_count;
      const Region region = deployment.NodeRegion(endpoint);
      auto client = std::make_unique<TimedClient>(connector.CreateClient(region, {endpoint}),
                                                  &layers);
      secondaries.push_back(std::make_unique<Secondary>(static_cast<int>(secondaries.size()),
                                                        region, &sim, std::move(client)));
    }
  });

  std::vector<SimTime> arrivals;
  span("workload.arrivals", &layers.arrivals_s, [&] {
    arrivals = ExpandArrivals(stream.trace, ArrivalProcess::kUniform, nullptr);
  });
  layers.txs = arrivals.size();

  // Encode and Assign touch disjoint state (the connector and transaction
  // store versus each secondary's schedule), so encoding every transaction
  // before assigning any leaves the same state as RunStreams' interleaving.
  std::vector<TxId> encoded(arrivals.size());
  const int64_t heap_before = LiveHeapBytes();
  span("core.encode", &layers.encode_s, [&] {
    ctx.ReserveTxs(arrivals.size());
    DappWorkload mix;
    mix.name = stream.dapp_name.empty() ? stream.contract : stream.dapp_name;
    mix.fixed = stream.fixed;
    for (size_t k = 0; k < arrivals.size(); ++k) {
      InteractionSpec spec;
      if (!stream.contract.empty()) {
        const Invocation invocation = mix.InvocationFor(k);
        spec.type = InteractionSpec::Type::kInvoke;
        spec.contract_index = contract.contract_index;
        spec.function = invocation.function;
        spec.args = invocation.args;
      }
      encoded[k] = connector.Encode(spec, accounts, arrivals[k]);
    }
  });
  span("core.assign", &layers.assign_s, [&] {
    for (size_t k = 0; k < arrivals.size(); ++k) {
      secondaries[k % secondaries.size()]->Assign(arrivals[k], encoded[k]);
    }
  });
  layers.heap_growth_b = LiveHeapBytes() - heap_before;
  if (!encoded.empty() && !stream.contract.empty()) {
    const VmStatus status = ctx.txs().at(encoded[0]).exec_status;
    if (status != VmStatus::kOk) {
      result.failure_reason = std::string(VmStatusName(status));
    }
  }

  const size_t duration = stream.trace.duration_seconds();
  span("core.start", &layers.start_s, [&] {
    sim.Reserve(std::min<size_t>(arrivals.size(), 65536));
    chain->Start();
    for (const auto& secondary : secondaries) {
      secondary->Start();
    }
  });
  layers.heap_at_start = sim.pending_events();

  const SimTime horizon = Seconds(static_cast<int64_t>(duration)) + defaults.drain;
  span("sim.run", &layers.run_s, [&] { sim.RunUntil(horizon); });
  result.events_executed = sim.events_executed();

  span("core.report", &layers.report_s, [&] {
    result.report = BuildReport(ctx.txs(), horizon, params.name, cell.deployment,
                                workload_name, static_cast<double>(duration));
    result.chain_stats = ctx.stats();
    for (const auto& secondary : secondaries) {
      result.behind_schedule += secondary->behind_schedule();
    }
    if (!cell.faults.empty() || cell.retry.enabled()) {
      result.report.view_changes = ctx.stats().view_changes;
      result.report.blocks_abandoned = ctx.stats().blocks_abandoned;
      result.report.client_retries = connector.client_stats().retries;
      result.report.client_aborts = connector.client_stats().aborts;
      AddResilienceMetrics(&result.report, ctx.txs(), horizon, cell.faults.HealTimes());
    }
    bool any_byzantine = false;
    for (const FaultEvent& event : cell.faults.events) {
      any_byzantine = any_byzantine || IsByzantine(event.kind);
    }
    if (any_byzantine) {
      result.report.byzantine = true;
      result.report.equivocations_seen = ctx.stats().equivocations_seen;
      result.report.double_votes_seen = ctx.stats().double_votes_seen;
      result.report.votes_withheld = ctx.stats().votes_withheld;
      result.report.txs_censored = ctx.stats().txs_censored;
      result.report.lazy_proposals = ctx.stats().lazy_proposals;
    }
  });
  root.End();

  const ChainStats& stats = ctx.stats();
  layers.events = result.events_executed;
  layers.behind_schedule = result.behind_schedule;
  layers.blocks = stats.blocks_produced;
  layers.empty_blocks = stats.empty_blocks;
  layers.txs_in_blocks = stats.txs_committed;
  layers.admitted = ctx.mempool().admitted();
  layers.rejected = ctx.mempool().rejected();
  layers.evictions = ctx.mempool().evictions();
  layers.view_changes = stats.view_changes;
  layers.blocks_abandoned = stats.blocks_abandoned;
  layers.loss_drops = net.stats().loss_drops;
  layers.unreachable_drops = net.stats().unreachable_drops;
  layers.client_retries = connector.client_stats().retries;
  layers.client_aborts = connector.client_stats().aborts;
  return out;
}

}  // namespace perfbench
