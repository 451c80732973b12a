// Binding between the §3 DApps and their workloads: which contract and
// functions a trace invokes, with what arguments and payload sizes.
#ifndef SRC_WORKLOAD_DAPPS_H_
#define SRC_WORKLOAD_DAPPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/trace.h"

namespace diablo {

struct Invocation {
  std::string function;
  std::vector<int64_t> args;
};

struct DappWorkload {
  std::string name;      // "exchange", "dota", "fifa", "uber", "youtube"
  std::string contract;  // contract registry key
  Trace trace;
  // When set, every transaction performs exactly this invocation
  // (workload-spec-driven runs).
  std::optional<Invocation> fixed;

  // The invocation the i-th transaction performs. Deterministic in i.
  Invocation InvocationFor(uint64_t i) const;

  // Which function of the mix the i-th transaction calls: the index of its
  // stock in the buy mix for "exchange", 0 for every other mix, per-stock
  // run and fixed invocation. Transactions with equal slots call the same function, and
  // the cost oracle profiles a function once, so they encode to the same
  // call fields (contract, function, gas, size, status). Allocates nothing.
  size_t InvocationSlot(uint64_t i) const;
};

// The five default DIABLO DApps, Table 2 order: exchange/NASDAQ,
// dota/Dota 2, fifa/FIFA, uber/Uber, youtube/YouTube.
DappWorkload GetDappWorkload(std::string_view name);

const std::vector<std::string>& AllDappNames();

}  // namespace diablo

#endif  // SRC_WORKLOAD_DAPPS_H_
