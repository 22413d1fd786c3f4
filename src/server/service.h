#ifndef XPLAIN_SERVER_SERVICE_H_
#define XPLAIN_SERVER_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "relational/database.h"
#include "server/explain_cache.h"
#include "server/protocol.h"
#include "server/request_shell.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace xplain {
namespace server {

/// Configuration of one xplaind service instance.
/// Thread-safety: plain data, externally synchronized.
struct ServiceOptions {
  /// Worker threads executing EXPLAIN/TOPK requests (the max in-flight
  /// bound). 0 = ThreadPool::DefaultNumThreads().
  int num_workers = 0;
  /// Requests allowed to wait beyond the in-flight ones. Admission rejects
  /// with kResourceExhausted once num_workers + max_queue_depth requests
  /// are pending — overload never queues unboundedly (DESIGN.md §8).
  size_t max_queue_depth = 64;
  /// Serve repeated requests from the explanation cache.
  bool enable_cache = true;
  ExplainCacheOptions cache;
  /// Probe budget for targeted cache invalidation: when cache entries x
  /// removed universal rows exceeds this, ApplyDelta gives up on probing
  /// read sets and wipes the cache instead (still incremental otherwise).
  size_t max_targeted_probe = 1u << 20;
  /// Request-scoped trace sampling: sample one of every N EXPLAIN / TOPK
  /// / DELTA requests that did not bring their own wire trace context
  /// (1 = every request, 0 = off). When > 0 the service enables process
  /// trace collection and caps the per-thread buffers (ring overwrite), so
  /// a long-running daemon can sample forever in bounded memory
  /// (DESIGN.md §12).
  uint64_t trace_sample_period = 0;
  /// Flight-recorder ring capacity (per-request records; clamped >= 1).
  size_t flight_capacity = 256;
  /// Slow-query threshold on queue+execute+flush time: offenders are
  /// logged and pinned in the flight recorder. < 0 disables (default).
  int64_t slow_query_us = -1;
  /// Test-only hook: when set, every admitted EXPLAIN/TOPK executes it on
  /// the worker before touching the engine. Lets tests hold workers inside
  /// the execution phase to make admission decisions deterministic.
  std::function<void()> execute_hook;
  /// Test-only hook: runs between ApplyDelta's read-only planning phase
  /// and its exclusive commit phase. Lets tests prove reads make progress
  /// while a delta is being planned, and widen the commit race window.
  std::function<void()> delta_plan_hook;
};

/// The xplaind explanation-serving service: owns a Database and its
/// ExplainEngine, and serves the NDJSON protocol (server/protocol) through
/// the shared request shell (LineService: parse, admission, pool, drain,
/// flight record; DESIGN.md §8). Its own steps are the dispatch-time
/// version fence plus the version-keyed ExplainCache probe, the DELTA
/// mutation, and engine execution on a shell worker.
///
/// Lifecycle: Create -> serve -> Drain (stop admitting, finish in-flight,
/// flush metrics) -> destructor. The destructor drains implicitly.
///
/// Thread-safety: safe — SubmitLine/HandleLine/GetStats/Drain may be
/// called concurrently from any number of transport threads. ApplyDelta is
/// the only mutator and serializes against in-flight requests via an
/// internal reader/writer lock.
class XplaindService : public LineService {
 public:
  /// Takes ownership of `db`. Fails when the engine cannot be built
  /// (broken referential integrity, disconnected FK graph).
  [[nodiscard]] static Result<std::unique_ptr<XplaindService>> Create(
      Database db, const ServiceOptions& options = ServiceOptions());

  ~XplaindService() override;

  /// Applies a tuple delta to the owned database (removing dangling rows
  /// like the paper's D - Delta semantics), maintaining the engine in
  /// place (DESIGN.md §10): the expensive planning — delta closure, U(D)
  /// remap, cube patches, read-set probing — runs under a *reader* lock
  /// so concurrent requests keep executing; only the final pointer/state
  /// swap excludes readers. The database version bumps
  /// exactly once per delta that removes rows, and not at all for an empty
  /// delta; cache entries whose read sets the delta did not touch survive
  /// under the new version. Deltas serialize against each other.
  [[nodiscard]] Status ApplyDelta(const DeltaSet& delta);

  /// Live counters for STATS payloads and tests.
  /// Thread-safety: plain data, externally synchronized.
  struct Stats {
    int64_t received = 0;       // lines seen
    int64_t served = 0;         // ok EXPLAIN/TOPK responses (incl. cached)
    int64_t cache_hits = 0;     // served straight from the cache (= cache.hits)
    int64_t rejected = 0;       // kResourceExhausted admissions
    int64_t errors = 0;         // error responses other than rejections
    int64_t in_flight = 0;      // admitted, not yet finished
    uint64_t db_version = 0;
    ExplainCache::Stats cache;
  };
  Stats GetStats() const;

  /// The serving database (stable address; mutated only by ApplyDelta).
  const Database& db() const {
    ReaderMutexLock lock(&db_mu_);
    return db_;
  }
  uint64_t db_version() const;

 private:
  explicit XplaindService(Database db, const ServiceOptions& options);

  /// The body of ApplyDelta, for callers already holding delta_mu_ (the
  /// DELTA request handler builds and applies under one lock so row
  /// positions cannot go stale in between).
  Status ApplyDeltaLocked(const DeltaSet& delta) XPLAIN_REQUIRES(delta_mu_);

  /// Shell hooks (DESIGN.md §8): the dispatch-time version fence plus the
  /// cache probe (a hit answers without a worker slot; a miss carries the
  /// cache key to Execute), the synchronous DELTA step, the worker step
  /// (ExecutePayload + cache insert), and the STATS payload.
  bool Prepare(const Request& request, FlightRecord* record,
               std::string* payload, std::string* cache_key) override;
  std::string Delta(const Request& request, FlightRecord* record) override;
  std::string Execute(const Request& request, const std::string& cache_key,
                      FlightRecord* record) override;
  /// `want_schema` attaches the schema DDL (STATS {"schema":true}).
  std::string StatsPayload(bool want_schema) const override;

  /// Executes an admitted EXPLAIN/TOPK on the current engine and returns
  /// the response payload (or an error payload). Runs on a pool worker.
  /// `*ok` reports whether the payload is a success payload (cacheable);
  /// `*code` receives the payload's status code (kOk on success); on
  /// success `*read_set` (if non-null) receives what the computation
  /// read, for targeted cache invalidation.
  std::string ExecutePayload(const Request& request, bool* ok,
                             StatusCode* code,
                             std::shared_ptr<const CacheReadSet>* read_set);

  ServiceOptions options_;

  /// Serializes whole ApplyDelta calls against each other, so a plan made
  /// under the reader lock can never be invalidated by a concurrent delta
  /// before its commit. Outermost in the lock order (rank
  /// kMutexRankDeltaApply); db_mu_ is always acquired after it.
  mutable Mutex delta_mu_{kMutexRankDeltaApply};

  /// Guards db_/engine_ swaps (ApplyDelta) against in-flight reads.
  mutable SharedMutex db_mu_;
  Database db_ XPLAIN_GUARDED_BY(db_mu_);
  std::unique_ptr<ExplainEngine> engine_ XPLAIN_GUARDED_BY(db_mu_)
      XPLAIN_PT_GUARDED_BY(db_mu_);

  std::unique_ptr<ExplainCache> cache_;
};

}  // namespace server
}  // namespace xplain

#endif  // XPLAIN_SERVER_SERVICE_H_
