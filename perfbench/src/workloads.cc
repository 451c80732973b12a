#include "src/workloads.h"

#include <algorithm>
#include <stdexcept>

#include "src/chains/params.h"
#include "src/core/runner.h"
#include "src/support/strings.h"
#include "src/workload/dapps.h"

namespace perfbench {
namespace {

using diablo::FaultSchedule;
using diablo::FaultScheduleBuilder;
using diablo::Milliseconds;
using diablo::Seconds;

// Fig. 2's rate scale. At 0.05 the grid still submits ~2.5M pre-signed txs, so
// arrival planning, encode, per-tx heap events, client Trigger and mempool
// rejection dominate, while one pass stays a few host seconds.
constexpr double kDappScale = 0.05;
// Offered fault-run load: five times fig6_faults' 200 TPS, so the pools of
// the capped chains fill and admission rejects (and clients retry).
constexpr double kFaultTps = 1000;

Workload DappBurst(uint64_t seed) {
  Workload w{"dapp-burst", 1, {}};
  for (const std::string& dapp : diablo::AllDappNames()) {
    for (const std::string& chain : diablo::AllChainNames()) {
      CellSpec cell;
      cell.label = dapp + "/" + chain;
      cell.kind = CellKind::kDapp;
      cell.chain = chain;
      cell.deployment = "consortium";
      cell.dapp = dapp;
      cell.seed = seed;
      cell.scale = kDappScale;
      // Fig. 2's absent bar and its budget-exceeded X marks.
      if (dapp == "youtube" && chain == "algorand") {
        cell.expect = "unsupported";
      } else if (dapp == "uber" &&
                 (chain == "algorand" || chain == "diem" || chain == "solana")) {
        cell.expect = "budget exceeded";
      }
      w.cells.push_back(std::move(cell));
    }
  }
  return w;
}

CellSpec Native(const std::string& chain, const std::string& deployment, double tps,
                int seconds, uint64_t seed) {
  CellSpec cell;
  cell.label = chain + "/" + deployment;
  cell.kind = CellKind::kNative;
  cell.chain = chain;
  cell.deployment = deployment;
  cell.tps = tps;
  cell.seconds = seconds;
  cell.seed = seed;
  return cell;
}

// fig3_xl's validator axis plus IBFT on the 200-node consortium: light
// client load, so the vote plane and block cadence carry the cost.
Workload Validators(uint64_t seed) {
  Workload w{"validators", 1, {}};
  for (const std::string chain : {"diem", "algorand", "avalanche"}) {
    for (const int n : {1000, 5000, 10000}) {
      w.cells.push_back(Native(chain, "xl-" + std::to_string(n), 100, 30, seed));
    }
  }
  w.cells.push_back(Native("quorum", "consortium", 100, 30, seed));
  return w;
}

struct Scenario {
  std::string name;
  FaultSchedule faults;
};

// fig6_faults' scenarios plus equivocating leaders at 33% of the deployment
// (fig7_byzantine's highest fraction the BFT chains still commit through).
std::vector<Scenario> FaultScenarios() {
  std::vector<Scenario> out;
  out.push_back({"leader-crash",
                 FaultScheduleBuilder().Crash(0, Seconds(10), Seconds(30)).Build()});
  out.push_back({"minority-part", FaultScheduleBuilder()
                                      .Partition({0, 1, 2}, Seconds(10), Seconds(40))
                                      .Build()});
  out.push_back({"majority-part",
                 FaultScheduleBuilder()
                     .Partition({0, 1, 2, 3, 4, 5}, Seconds(10), Seconds(40))
                     .Build()});
  for (const double rate : {0.01, 0.05, 0.10}) {
    out.push_back({diablo::StrFormat("loss-%.0f%%", 100.0 * rate),
                   FaultScheduleBuilder().Loss(rate, Seconds(10), Seconds(40)).Build()});
  }
  out.push_back({"equivocate-33%", FaultScheduleBuilder()
                                       .EquivocateFraction(0.33, Seconds(10), Seconds(40))
                                       .Build()});
  return out;
}

Workload Faults(uint64_t seed) {
  Workload w{"faults", 1, {}};
  diablo::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = Seconds(2);
  retry.backoff = Milliseconds(500);
  std::vector<std::string> chains = diablo::AllChainNames();
  chains.push_back("redbelly");
  const std::vector<Scenario> scenarios = FaultScenarios();
  for (const std::string& chain : chains) {
    for (const Scenario& scenario : scenarios) {
      CellSpec cell = Native(chain, "testnet", kFaultTps, 60, seed);
      cell.label = chain + "+" + scenario.name;
      cell.kind = CellKind::kFault;
      cell.faults = scenario.faults;
      cell.retry = retry;
      w.cells.push_back(std::move(cell));
    }
  }
  return w;
}

// The fig3 grid: cell costs differ by about 10x, so with several workers the
// slowest cells and the dispatch order set the makespan.
Workload Sweep(uint64_t seed, int nproc) {
  Workload w{"sweep", std::clamp(nproc, 1, 4), {}};
  for (const std::string& chain : diablo::AllChainNames()) {
    for (const std::string deployment : {"datacenter", "testnet", "devnet", "community"}) {
      w.cells.push_back(Native(chain, deployment, 1000, 120, seed));
    }
  }
  return w;
}

}  // namespace

Workload MakeWorkload(const std::string& name, uint64_t seed, int nproc) {
  if (name == "dapp-burst") {
    return DappBurst(seed);
  }
  if (name == "validators") {
    return Validators(seed);
  }
  if (name == "faults") {
    return Faults(seed);
  }
  if (name == "sweep") {
    return Sweep(seed, nproc);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

diablo::RunResult RunCell(const CellSpec& cell) {
  switch (cell.kind) {
    case CellKind::kDapp:
      return diablo::RunDappBenchmark(cell.chain, cell.deployment, cell.dapp, cell.seed,
                                      cell.scale);
    case CellKind::kNative:
      return diablo::RunNativeBenchmark(cell.chain, cell.deployment, cell.tps,
                                        cell.seconds, cell.seed, cell.scale);
    case CellKind::kFault:
      return diablo::RunFaultBenchmark(cell.chain, cell.deployment, cell.tps,
                                       cell.seconds, cell.faults, cell.retry, cell.seed,
                                       cell.scale);
  }
  throw std::logic_error("unhandled cell kind");
}

}  // namespace perfbench
