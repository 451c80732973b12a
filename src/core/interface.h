// The blockchain abstraction of §4: a blockchain is ⟨E, R, I⟩ — endpoints,
// resources and interaction types — and porting diablo to a new chain means
// implementing four functions: create_client, create_resource, encode and
// trigger. SimConnector implements them over this repository's simulated
// chains; examples/custom_blockchain.cc shows a from-scratch implementation.
#ifndef SRC_CORE_INTERFACE_H_
#define SRC_CORE_INTERFACE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/chains/chain_factory.h"

namespace diablo {

// φ^R: a resource needed by the benchmark — a set of accounts or a deployed
// contract.
struct ResourceSpec {
  enum class Kind { kAccounts, kContract };
  Kind kind = Kind::kAccounts;
  int account_count = 0;
  std::string contract_name;  // registry key for kContract
};

struct Resource {
  // kAccounts: [first_account, first_account + account_count)
  uint32_t first_account = 0;
  int account_count = 0;
  // kContract: index usable in InteractionSpec::contract_index.
  int contract_index = -1;
};

// φ^i: one interaction type instance — transfer_X, invoke_D_Xs, or a
// read-only query served without consensus (§4).
struct InteractionSpec {
  enum class Type { kTransfer, kInvoke, kQuery };
  Type type = Type::kTransfer;
  int64_t amount = 1;                 // transfer_X
  int contract_index = -1;            // invoke_D_Xs
  std::string function;
  std::vector<int64_t> args;
};

// Submission timeout + exponential-backoff retry policy for clients. The
// default (max_attempts = 1) is fire-and-forget: exactly the behaviour the
// paper's secondaries have, and what every healthy-path benchmark uses. A
// fault run enables retries so the harness distinguishes "the chain
// rejected it" from "the client gave up after bounded attempts".
struct RetryPolicy {
  int max_attempts = 1;  // 1 = retries disabled
  // Deadline for one submission RPC; an unreachable endpoint costs this
  // long before the client moves on.
  SimDuration timeout = Seconds(5);
  SimDuration backoff = Milliseconds(500);  // before attempt 2
  double backoff_multiplier = 2.0;
  SimDuration max_backoff = Seconds(30);

  bool enabled() const { return max_attempts > 1; }

  // Wait after failed attempt number `attempt` (0-based), exponential with
  // a ceiling.
  SimDuration BackoffAfter(int attempt) const;
};

// Aggregated client-side submission accounting (across all of a
// connector's clients): how many attempts ran, how many were retries, and
// how many transactions the clients abandoned after exhausting the policy.
struct ClientStats {
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t endpoint_failures = 0;  // timed-out or rejected attempts
  uint64_t aborts = 0;             // transactions given up on
};

// c.trigger(e): a client bound to one secondary location submitting encoded
// interactions to its view of the endpoints.
class BlockchainClient {
 public:
  virtual ~BlockchainClient() = default;

  // Sends the encoded interaction at `submit_time` (diablo records the
  // submission clock right before the send).
  virtual void Trigger(TxId encoded, SimTime submit_time) = 0;
};

class BlockchainConnector {
 public:
  virtual ~BlockchainConnector() = default;

  // s.create_client(E): a client at `location` that routes submissions to
  // `endpoint_view` (node indices).
  virtual std::unique_ptr<BlockchainClient> CreateClient(
      Region location, std::vector<int> endpoint_view) = 0;

  // create_resource(φ^r). Returns false when the resource cannot exist on
  // this chain (e.g. a contract the chain's VM cannot host, §5.2).
  virtual bool CreateResource(const ResourceSpec& spec, Resource* out) = 0;

  // encode(φ^i, r, t): pre-signs and encodes; returns an opaque handle.
  virtual TxId Encode(const InteractionSpec& spec, const Resource& accounts,
                      SimTime scheduled_time) = 0;
};

// Connector over a simulated ChainInstance.
class SimConnector : public BlockchainConnector {
 public:
  explicit SimConnector(ChainInstance* chain);

  std::unique_ptr<BlockchainClient> CreateClient(Region location,
                                                 std::vector<int> endpoint_view) override;
  bool CreateResource(const ResourceSpec& spec, Resource* out) override;
  TxId Encode(const InteractionSpec& spec, const Resource& accounts,
              SimTime scheduled_time) override;

  // Encode for a transaction that performs the same call as `like`, an
  // earlier Encode result of this connector: copies its call fields
  // (contract, function, gas, size_bytes, read_only, exec_status) instead of
  // resolving the spec through the cost oracle, and signs with the next
  // account and sequence number exactly as Encode would.
  TxId EncodeRepeat(TxId like, const Resource& accounts, SimTime scheduled_time);

  // The call fields Encode(spec, ...) gives, without signing or storing a
  // transaction. The first call for a function profiles it against the
  // contract's state, like Encode.
  Transaction CallFields(const InteractionSpec& spec);

  ChainInstance* chain() const { return chain_; }

  // Applies to every client created afterwards; call before CreateClient.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  // Submission accounting summed over all clients of this connector.
  const ClientStats& client_stats() const { return client_stats_; }

 private:
  // Stamps account, sequence and submit time onto `tx` and stores it.
  TxId Sign(Transaction tx, const Resource& accounts, SimTime scheduled_time);

  ChainInstance* chain_;
  uint32_t next_account_ = 0;
  uint64_t encode_counter_ = 0;
  RetryPolicy retry_;
  ClientStats client_stats_;
};

}  // namespace diablo

#endif  // SRC_CORE_INTERFACE_H_
