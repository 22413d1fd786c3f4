#ifndef XPLAIN_CLUSTER_COORDINATOR_H_
#define XPLAIN_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/merge.h"
#include "cluster/shard_map.h"
#include "relational/database.h"
#include "server/protocol.h"
#include "server/request_shell.h"
#include "server/tcp_client.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace xplain {
namespace cluster {

/// Configuration of one coordinator instance.
/// Thread-safety: plain data, externally synchronized.
struct CoordinatorOptions {
  /// The shard endpoints, in shard-map order (index = shard id).
  std::vector<ShardEndpoint> shards;
  /// Partition attributes ("Rel.attr"), resolved against the bootstrapped
  /// catalog. Must match what tools/xplain_shard partitioned by.
  std::vector<std::string> partition_attrs;
  /// Worker threads executing EXPLAIN/TOPK fan-outs (the max in-flight
  /// bound). 0 = ThreadPool::DefaultNumThreads().
  int num_workers = 0;
  /// Requests allowed to wait beyond the in-flight ones (admission rejects
  /// with kResourceExhausted past num_workers + max_queue_depth).
  size_t max_queue_depth = 64;
  /// Whole-fan-out attempts per request: a kUnavailable shard or a
  /// version-fence trip (kFailedPrecondition) retries the fan-out up to
  /// this many times before the request fails with a structured ok:false
  /// naming the shard. >= 1.
  int fanout_attempts = 3;
  /// Backoff between fan-out attempts: retry_backoff_ms << (attempt-1),
  /// capped at max_retry_backoff_ms.
  int retry_backoff_ms = 50;
  int max_retry_backoff_ms = 2000;
  /// Socket knobs for the per-shard connections. Set recv_timeout_ms so a
  /// killed shard surfaces as kUnavailable instead of a hang.
  server::TcpClientOptions client;
  /// Dial policy for connect and reconnect (bounded; DESIGN.md §13).
  server::RetryOptions connect_retry;
  /// Flight-recorder ring capacity (per-request records; clamped >= 1).
  size_t flight_capacity = 256;
  /// Slow-query threshold on queue+execute+flush time: offenders are
  /// logged and pinned in the flight recorder. < 0 disables (default).
  int64_t slow_query_us = -1;
  /// Test-only hook: runs at the start of every fan-out attempt (before
  /// the version snapshot), so tests can inject shard-side deltas or kills
  /// at the exact race point.
  std::function<void()> fanout_hook;
};

/// The scatter-gather cluster coordinator (DESIGN.md §13): speaks the same
/// NDJSON protocol as xplaind, but instead of owning a database it owns a
/// static ShardMap over K xplaind workers. EXPLAIN/TOPK fan out as partial
/// requests pinned to the per-shard versions last observed, the fragments
/// merge through cluster/merge (bit-identical to a single node over the
/// union database), and exact rescores fan out a second round. DELTA
/// (where-form only) routes to the owning shard when the predicate pins
/// the partition key, else broadcasts, under a version barrier that
/// excludes concurrent fan-outs. STATS/METRICS/FLIGHT/DRAIN are local.
/// Parsing, admission, drain, tracing and flight records come from the
/// shared request shell (LineService; DESIGN.md §8) — the coordinator
/// supplies only its DELTA, fan-out and STATS steps.
///
/// Per-shard failures never hang a merge: a dead shard surfaces as a
/// structured ok:false response naming the shard after bounded retries.
///
/// Thread-safety: safe — SubmitLineWith/HandleLine/Drain may be called
/// concurrently from any number of transport threads.
class Coordinator : public server::LineService {
 public:
  /// Dials every shard, bootstraps the rows-free catalog from STATS
  /// {"schema":true} (all shards must serve byte-identical schema DDL),
  /// and records the per-shard database versions.
  [[nodiscard]] static Result<std::unique_ptr<Coordinator>> Create(
      const CoordinatorOptions& options);

  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The rows-free catalog bootstrapped from the shards' schema.
  const Database& catalog() const { return catalog_; }
  const ShardMap& shard_map() const { return shard_map_; }

  /// Live counters for STATS payloads and tests.
  /// Thread-safety: plain data, externally synchronized.
  struct Stats {
    int64_t received = 0;
    int64_t served = 0;
    int64_t rejected = 0;
    int64_t errors = 0;
    int64_t in_flight = 0;
    int64_t fanout_retries = 0;  // extra attempts beyond the first
    std::vector<uint64_t> shard_versions;
  };
  Stats GetStats() const;

 private:
  explicit Coordinator(const CoordinatorOptions& options);

  /// One pooled-connection slot per shard. Lease pops an idle connection
  /// (or dials a new one); Return pushes it back. Broken connections are
  /// simply dropped — the next lease re-dials.
  struct ShardPool {
    Mutex mu;
    std::vector<server::TcpClient> idle XPLAIN_GUARDED_BY(mu);
  };

  [[nodiscard]] Result<server::TcpClient> LeaseConnection(size_t shard);
  void ReturnConnection(size_t shard, server::TcpClient client);

  /// One synchronous request/response round trip against `shard`, with a
  /// bounded reconnect on kUnavailable. Error statuses name the shard.
  [[nodiscard]] Result<std::string> CallShard(size_t shard,
                                              const std::string& line);

  /// `status` as a shard failure: prefixed "shard s (host:port): " and
  /// counted in cluster.shard_errors.
  Status ShardError(size_t shard, const Status& status) const;

  /// Re-reads one shard's database version via STATS and stores it.
  [[nodiscard]] Status ReprobeVersion(size_t shard);

  /// The fan-out + merge body of one EXPLAIN/TOPK, run on a pool worker:
  /// bounded attempts around FanoutOnce with re-probe on fence trips.
  [[nodiscard]] Result<std::string> RunExplain(const server::Request& request);

  /// One scatter-gather attempt at the current version snapshot:
  /// partial fan-out, merge, optional rescore fan-out, payload assembly.
  [[nodiscard]] Result<std::string> FanoutOnce(
      const server::Request& request, const UserQuestion& question,
      const std::vector<ColumnRef>& attributes)
      XPLAIN_REQUIRES_SHARED(versions_mu_);

  /// Scatter `lines[s]` to every shard in `targets` and gather the
  /// responses (pipelined across shards: all sends first, then reads).
  [[nodiscard]] Result<std::vector<std::string>> ScatterGather(
      const std::vector<size_t>& targets,
      const std::vector<std::string>& lines);

  /// Shell hooks (DESIGN.md §8): DELTA runs synchronously under the
  /// version barrier; the worker step is RunExplain. No pre-admission step.
  std::string Delta(const server::Request& request,
                    server::FlightRecord* record) override;
  std::string Execute(const server::Request& request,
                      const std::string& carry,
                      server::FlightRecord* record) override;
  std::string StatsPayload(bool want_schema) const override;

  CoordinatorOptions options_;

  Database catalog_;
  ShardMap shard_map_;

  /// Serializes DELTA requests against each other (outermost, like the
  /// service's delta lock).
  mutable Mutex delta_mu_{kMutexRankDeltaApply};

  /// The version barrier: fan-outs hold it shared for their whole
  /// scatter-gather (including the rescore round), DELTA holds it
  /// exclusive across its shard writes — so a fan-out can never observe a
  /// half-applied cluster delta (DESIGN.md §13).
  mutable SharedMutex versions_mu_;
  std::vector<uint64_t> versions_ XPLAIN_GUARDED_BY(versions_mu_);

  std::vector<std::unique_ptr<ShardPool>> pools_;

  /// Extra fan-out attempts beyond the first (relaxed tally).
  std::atomic<int64_t> fanout_retries_{0};
};

}  // namespace cluster
}  // namespace xplain

#endif  // XPLAIN_CLUSTER_COORDINATOR_H_
