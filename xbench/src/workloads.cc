#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cluster/coordinator.h"
#include "cluster/partition.h"
#include "cluster/shard_map.h"
#include "datagen/dblp.h"
#include "datagen/natality.h"
#include "load.h"
#include "questions.h"
#include "replay.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "util/metrics.h"

namespace xbench {

namespace {

using xplain::server::FlightRecord;
using xplain::server::FlightRecorder;
using xplain::server::RequestOp;
using xplain::server::TcpServer;
using xplain::server::XplaindService;

// ---- workload parameters (README.md states each and why) -----------------

constexpr size_t kNatalityRows = 400000;
/// Generator seed of both datasets. The data is fixed, like the paper's
/// natality and DBLP tables; --seed varies the requests. A per-seed
/// dataset moved the non-additive rescore cost (linear in |U(D)|) by
/// several percent between seeds, which would hide regressions that size.
constexpr uint64_t kDataSeed = 1;
/// Each run sets its system up at least kSetupRepeats times and for at
/// least kSetupMinSeconds, and reports the median. The time floor gives
/// the 20 ms DBLP cluster set-up ~50 samples; its median of 9 moved by
/// 25 % between sets of runs.
constexpr size_t kSetupRepeats = 9;
constexpr double kSetupMinSeconds = 1.0;
/// Per-service flight-recorder ring; the traced run polls it every
/// kFlightPollMs, far more often than the ring can wrap at any rate these
/// workloads reach, and fails if a record was lost anyway.
constexpr size_t kFlightCapacity = size_t{1} << 16;
constexpr int kFlightPollMs = 200;
constexpr int kCheckThreads = 4;

constexpr int kAdhocConnections = 2;
/// Served natality_adhoc answers compared against a direct engine.
constexpr size_t kAdhocChecked = 12;

constexpr size_t kClusterShards = 2;
constexpr int kClusterConnections = 2;
constexpr size_t kClusterPool = 200;
constexpr double kClusterZipf = 1.0;
/// dblp_cluster requests replayed through the cluster chain (traced run).
constexpr size_t kClusterReplayed = 12;

constexpr int kRwReaders = 3;
/// Distinct questions behind the 48-body natality_rw pool (8 bodies each).
constexpr size_t kRwQuestions = 6;
constexpr double kRwZipf = 1.1;
/// One DELTA every 10 s, each removing 0.05 % of the initial rows.
constexpr int64_t kRwWritePeriodNs = 10'000'000'000;
constexpr size_t kRwDeltaRows = kNatalityRows / 2000;
/// natality_rw questions replayed with layer timings (traced run).
constexpr size_t kRwReplayed = 12;

// ---- metrics -------------------------------------------------------------

const std::vector<MetricSpec> kEndToEnd = {
    {"read_p50_ms", "ms"}, {"read_p90_ms", "ms"}, {"read_rps", "1/s"},
    {"ok_ratio", "ratio"}, {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kLayers = {
    {"read_samples", "count"},
    {"write_p50_ms", "ms"},
    {"fail_ratio", "ratio"},
    {"relational.encode_ms", "ms"},
    {"relational.original_ms", "ms"},
    {"relational.universal_build_s", "s"},
    {"relational.delta_plan_ms", "ms"},
    {"relational.delta_commit_ms", "ms"},
    {"engine.explain_ms", "ms"},
    {"engine.additivity_ms", "ms"},
    {"engine.cube_build_ms", "ms"},
    {"engine.merge_ms", "ms"},
    {"engine.degree_ms", "ms"},
    {"engine.topk_ms", "ms"},
    {"engine.semijoin_ms", "ms"},
    {"engine.unattributed_ms", "ms"},
    {"engine.table_rows", "count"},
    {"engine.cube_hit_ratio", "ratio"},
    {"engine.column_hit_ratio", "ratio"},
    {"engine.pool_tasks", "count"},
    {"engine.rescore_ms", "ms"},
    {"engine.rescore_pool", "count"},
    {"engine.fixpoint_runs", "count"},
    {"engine.fixpoint_rounds", "count"},
    {"engine.fixpoint_deleted_tuples", "count"},
    {"protocol.parse_us", "us"},
    {"protocol.build_us", "us"},
    {"protocol.serialize_us", "us"},
    {"protocol.response_bytes", "bytes"},
    {"server.queue_us", "us"},
    {"server.execute_us", "us"},
    {"server.flush_us", "us"},
    {"server.transport_us", "us"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_evictions", "count"},
    {"server.cache_rekeyed", "count"},
    {"server.cache_targeted_invalidations", "count"},
    {"server.cache_full_invalidations", "count"},
    {"server.delta_execute_us", "us"},
    {"server.read_during_delta_ms", "ms"},
    {"server.rejected", "count"},
    {"server.errors", "count"},
    {"cluster.partial_round_ms", "ms"},
    {"cluster.partial_bytes", "bytes"},
    {"cluster.parse_ms", "ms"},
    {"cluster.merge_ms", "ms"},
    {"cluster.rescore_round_ms", "ms"},
    {"cluster.finish_ms", "ms"},
    {"cluster.shard_skew", "ratio"},
    {"cluster.shard_cache_hit_ratio", "ratio"},
    {"cluster.coordinator_execute_us", "us"},
    {"cluster.fanout_retries", "count"},
    {"proc.cpu_util", "ratio"},
    {"gen.write_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

/// Per-layer values of one traced run, by metric name. Metrics a workload
/// does not exercise stay 0.
class LayerValues {
 public:
  void Set(const std::string& name, double value) {
    for (const MetricSpec& spec : kLayers) {
      if (spec.first == name) {
        values_[name] = value;
        return;
      }
    }
    throw BenchError("unknown layer metric " + name);
  }
  /// Sets `name` to the median of `samples` (0 when empty).
  void SetMedian(const std::string& name, const std::vector<double>& samples) {
    Set(name, Percentile(samples, 50.0));
  }
  void AddTo(MetricSet* metrics) const {
    for (const auto& [name, unit] : kLayers) {
      const auto it = values_.find(name);
      metrics->Add(name, it == values_.end() ? 0.0 : it->second, unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// ---- systems under test --------------------------------------------------

xplain::server::ServiceOptions ServingOptions(const RunConfig& config) {
  xplain::server::ServiceOptions options;
  options.flight_capacity = kFlightCapacity;
  if (config.force_refusals) {
    options.num_workers = 1;
    options.max_queue_depth = 0;
  }
  return options;
}

/// One xplaind on an ephemeral loopback port.
struct SingleNode {
  std::unique_ptr<XplaindService> service;
  std::unique_ptr<TcpServer> server;

  int port() const { return server->port(); }
};

SingleNode StartSingleNode(xplain::Database db, const RunConfig& config) {
  SingleNode node;
  node.service = Check(XplaindService::Create(std::move(db),
                                              ServingOptions(config)),
                       "create xplaind");
  node.server = Check(TcpServer::Start(node.service.get(),
                                       xplain::server::TcpServerOptions{}),
                      "start xplaind");
  return node;
}

xplain::Database MakeNatality() {
  xplain::datagen::NatalityOptions options;
  options.num_rows = kNatalityRows;
  options.seed = kDataSeed;
  return Check(xplain::datagen::GenerateNatality(options),
               "generate natality");
}

xplain::Database MakeDblp() {
  xplain::datagen::DblpOptions options;
  options.seed = kDataSeed;
  options.scale = 1.0;
  return Check(xplain::datagen::GenerateDblp(options), "generate dblp");
}

/// K shard xplainds behind one coordinator, all in this process. Members
/// are destroyed front to back: front server, coordinator, shards.
struct Cluster {
  std::vector<std::unique_ptr<XplaindService>> shards;
  std::vector<std::unique_ptr<TcpServer>> shard_servers;
  std::unique_ptr<xplain::cluster::Coordinator> coordinator;
  std::unique_ptr<TcpServer> front;

  int port() const { return front->port(); }
  std::vector<int> shard_ports() const {
    std::vector<int> ports;
    for (const auto& server : shard_servers) ports.push_back(server->port());
    return ports;
  }
};

Cluster StartCluster(const RunConfig& config) {
  const xplain::Database db = MakeDblp();
  const std::string partition_attr = "Publication.pubid";
  const xplain::cluster::ShardMap map =
      Check(xplain::cluster::ShardMap::Create(db, {partition_attr},
                                              kClusterShards),
            "shard map");
  std::vector<xplain::Database> parts =
      Check(xplain::cluster::PartitionDatabase(db, map), "partition");
  Cluster cluster;
  xplain::cluster::CoordinatorOptions options;
  options.partition_attrs = {partition_attr};
  options.flight_capacity = kFlightCapacity;
  if (config.force_refusals) {
    options.num_workers = 1;
    options.max_queue_depth = 0;
  }
  for (xplain::Database& part : parts) {
    SingleNode node = StartSingleNode(std::move(part), config);
    options.shards.push_back({"127.0.0.1", node.port()});
    cluster.shards.push_back(std::move(node.service));
    cluster.shard_servers.push_back(std::move(node.server));
  }
  cluster.coordinator =
      Check(xplain::cluster::Coordinator::Create(options), "coordinator");
  cluster.front = Check(TcpServer::Start(cluster.coordinator.get(),
                                         xplain::server::TcpServerOptions{}),
                        "start coordinator");
  return cluster;
}

/// Sets the system up kSetupRepeats times or more, until kSetupMinSeconds
/// have passed (tearing all but the last down), and returns the last one;
/// `*setup_s` receives the median set-up time.
template <typename System, typename Make>
System SetUpTimed(const Make& make, double* setup_s) {
  std::vector<double> times;
  double spent = 0.0;
  while (times.size() + 1 < kSetupRepeats || spent < kSetupMinSeconds) {
    const double start = NowSeconds();
    System discarded = make();
    times.push_back(NowSeconds() - start);
    spent += times.back();
  }
  const double start = NowSeconds();
  System system = make();
  times.push_back(NowSeconds() - start);
  *setup_s = Percentile(times, 50.0);
  return system;
}

// ---- observation ---------------------------------------------------------

std::map<std::string, double> TakeCounters() {
  std::map<std::string, double> out;
  for (auto& [name, value] :
       xplain::MetricsRegistry::Global().CounterSnapshot()) {
    out[name] = value;
  }
  return out;
}

double CounterDelta(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after,
                    const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

/// Copies every flight record written while it runs, by polling
/// FlightRecorder::Snapshot, so no record of the traced window is lost to
/// ring overwrite before it is read (records lost anyway are counted).
class FlightPoller {
 public:
  explicit FlightPoller(std::vector<const FlightRecorder*> recorders)
      : recorders_(std::move(recorders)),
        next_seq_(recorders_.size(), 0),
        records_(recorders_.size()) {
    for (size_t r = 0; r < recorders_.size(); ++r) {
      const FlightRecorder::Dump dump = recorders_[r]->Snapshot();
      next_seq_[r] = dump.records.empty() ? 0 : dump.records.back().seq + 1;
    }
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kFlightPollMs));
        PollOnce();
      }
    });
  }
  ~FlightPoller() { Stop(); }

  FlightPoller(const FlightPoller&) = delete;
  FlightPoller& operator=(const FlightPoller&) = delete;

  /// Joins the poller and takes a last snapshot. Idempotent.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    PollOnce();
  }

  /// records()[r]: the records of recorder r, in seq order.
  const std::vector<std::vector<FlightRecord>>& records() const {
    return records_;
  }
  uint64_t lost() const { return lost_; }

 private:
  void PollOnce() {
    for (size_t r = 0; r < recorders_.size(); ++r) {
      const FlightRecorder::Dump dump = recorders_[r]->Snapshot();
      for (const FlightRecord& record : dump.records) {
        if (record.seq < next_seq_[r]) continue;
        lost_ += record.seq - next_seq_[r];
        records_[r].push_back(record);
        next_seq_[r] = record.seq + 1;
      }
    }
  }

  std::vector<const FlightRecorder*> recorders_;
  std::vector<uint64_t> next_seq_;
  std::vector<std::vector<FlightRecord>> records_;
  uint64_t lost_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- load ----------------------------------------------------------------

/// The natality_rw writer's state, kept across windows: the current Birth
/// row count (learned from each response's `removed`) and every DELTA body
/// sent, in order.
struct Writer {
  explicit Writer(uint64_t seed) : rng(seed ^ 0x777269746572ULL) {}

  void Absorb(const std::string& response) {
    if (response.empty()) return;
    xplain::Result<xplain::server::JsonValue> json =
        xplain::server::JsonValue::Parse(response);
    if (!json.ok()) return;
    const double removed = json->GetNumber("removed", 0.0);
    rows -= std::min<uint64_t>(rows, static_cast<uint64_t>(removed));
  }

  std::string Next(const std::string& last) {
    Absorb(last);
    bodies.push_back(
        NatalityDeltaBody(DeltaRowPositions(&rng, rows, kRwDeltaRows)));
    return bodies.back();
  }

  uint64_t rows = kNatalityRows;
  xplain::Rng rng;
  std::vector<std::string> bodies;
};

/// What one timed window observed.
struct Window {
  std::vector<Sample> reads;
  std::vector<Sample> writes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::map<std::string, double> counters_before;
  std::map<std::string, double> counters_after;
  /// Traced windows only: flight records per polled recorder.
  std::vector<std::vector<FlightRecord>> flight;
  uint64_t flight_lost = 0;

  std::vector<double> OkReadLatencies() const {
    std::vector<double> out;
    for (const Sample& s : reads) {
      if (s.outcome == Outcome::kOk) out.push_back(s.latency_ms());
    }
    return out;
  }
  double Delta(const std::string& counter) const {
    return CounterDelta(counters_before, counters_after, counter);
  }
};

struct WindowSpec {
  int port = 0;
  int readers = 0;
  std::function<Pick(int)> next;
  Writer* writer = nullptr;
  double seconds = 0.0;
  bool capture = false;
  /// Set for the traced window.
  SpanLog* spans = nullptr;
  std::vector<const FlightRecorder*> recorders;
};

Window RunWindow(const WindowSpec& spec, std::atomic<uint64_t>* ids) {
  Window w;
  LoadOptions options;
  options.capture = spec.capture;
  options.spans = spec.spans;
  w.counters_before = TakeCounters();
  std::unique_ptr<FlightPoller> poller;
  if (spec.spans != nullptr) {
    poller = std::make_unique<FlightPoller>(spec.recorders);
  }
  const double cpu0 = CpuSeconds();
  const int64_t start = NowNanos();
  const int64_t end = start + static_cast<int64_t>(spec.seconds * 1e9);
  std::string writer_error;
  std::thread writer_thread;
  if (spec.writer != nullptr) {
    writer_thread = std::thread([&] {
      try {
        Writer* writer = spec.writer;
        w.writes = RunOpenLoop(
            spec.port, start + kRwWritePeriodNs / 2, kRwWritePeriodNs, end,
            SIZE_MAX,
            [writer](size_t, const std::string& last) {
              return writer->Next(last);
            },
            ids, options);
        if (!w.writes.empty()) writer->Absorb(w.writes.back().response);
      } catch (const std::exception& e) {
        writer_error = e.what();
      }
    });
  }
  try {
    w.reads = RunClosedLoop(spec.port, spec.readers, end, spec.next, ids,
                            options);
  } catch (...) {
    if (writer_thread.joinable()) writer_thread.join();
    throw;
  }
  if (writer_thread.joinable()) writer_thread.join();
  if (!writer_error.empty()) throw BenchError("writer: " + writer_error);
  w.wall_s = static_cast<double>(NowNanos() - start) / 1e9;
  w.cpu_s = CpuSeconds() - cpu0;
  if (poller != nullptr) {
    poller->Stop();
    w.flight = poller->records();
    w.flight_lost = poller->lost();
  }
  w.counters_after = TakeCounters();
  return w;
}

void TallyAll(const std::vector<Sample>& samples, Tally* tally) {
  for (const Sample& s : samples) tally->Add(s.outcome);
}

/// Compares a served response line with the reference line; records a
/// problem on mismatch.
void CheckAnswer(const std::string& what, const std::string& served,
                 const std::string& expected,
                 std::vector<std::string>* problems) {
  if (served == expected) return;
  problems->push_back(what + ": served answer differs from the reference\n" +
                      "  served:   " + served.substr(0, 300) + "\n" +
                      "  expected: " + expected.substr(0, 300));
}

/// Alters one served answer (the corrupt_one_answer test hook).
void Corrupt(std::string* response) {
  if (response->empty()) return;
  (*response)[response->size() / 2] ^= 1;
}

// ---- metric assembly -----------------------------------------------------

void AddEndToEnd(const Window& w, const Tally& tally, double setup_s,
                 double peak_rss_mb, MetricSet* metrics,
                 std::vector<std::string>* problems) {
  const std::vector<double> latencies = w.OkReadLatencies();
  const size_t needed = MinSamplesFor(90.0, 10);
  if (latencies.size() < needed) {
    problems->push_back("only " + std::to_string(latencies.size()) +
                        " ok reads; read_p90_ms needs " +
                        std::to_string(needed));
  }
  metrics->Add("read_p50_ms", Percentile(latencies, 50.0), "ms");
  metrics->Add("read_p90_ms", Percentile(latencies, 90.0), "ms");
  metrics->Add("read_rps", static_cast<double>(latencies.size()) / w.wall_s,
               "1/s");
  metrics->Add("ok_ratio", tally.ok_ratio(), "ratio");
  metrics->Add("setup_s", setup_s, "s");
  metrics->Add("peak_rss_mb", peak_rss_mb, "MB");
}

/// Layer metrics every workload reports from its traced window `w`
/// (compared against the untraced window `base`). `front` indexes the
/// recorder of the process clients talk to; `serving` the recorders whose
/// queue/execute/flush times count as the serving layer.
void AddCommonLayers(const Window& base, const Window& w, const Tally& tally,
                     size_t front, const std::vector<size_t>& serving,
                     LayerValues* layers, std::vector<std::string>* problems) {
  if (w.flight_lost > 0) {
    problems->push_back(std::to_string(w.flight_lost) +
                        " flight records were overwritten before read");
  }
  const std::vector<double> latencies = w.OkReadLatencies();
  layers->Set("read_samples", static_cast<double>(latencies.size()));
  layers->Set("fail_ratio", 1.0 - tally.ok_ratio());
  const double base_p50 = Percentile(base.OkReadLatencies(), 50.0);
  layers->Set("trace.overhead_pct",
              100.0 * Ratio(Percentile(latencies, 50.0) - base_p50, base_p50));
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  layers->Set("proc.cpu_util", w.cpu_s / (w.wall_s * cores));

  // Serving phases of reads, from the flight records.
  std::vector<double> queue, execute, flush, delta_execute;
  for (size_t r : serving) {
    for (const FlightRecord& rec : w.flight[r]) {
      if (rec.op == RequestOp::kDelta) {
        delta_execute.push_back(static_cast<double>(rec.execute_us));
      } else if (rec.op == RequestOp::kExplain || rec.op == RequestOp::kTopK) {
        queue.push_back(static_cast<double>(rec.queue_us));
        execute.push_back(static_cast<double>(rec.execute_us));
        flush.push_back(static_cast<double>(rec.flush_us));
      }
    }
  }
  layers->SetMedian("server.queue_us", queue);
  layers->SetMedian("server.execute_us", execute);
  layers->SetMedian("server.flush_us", flush);
  layers->SetMedian("server.delta_execute_us", delta_execute);

  // Client round trip minus the front process's queue+execute+flush,
  // matched by request id.
  std::unordered_map<uint64_t, const FlightRecord*> by_id;
  for (const FlightRecord& rec : w.flight[front]) by_id[rec.request_id] = &rec;
  std::vector<double> transport, uncovered;
  for (const Sample& s : w.reads) {
    if (s.outcome != Outcome::kOk) continue;
    const auto it = by_id.find(s.id);
    if (it == by_id.end()) continue;
    const FlightRecord& rec = *it->second;
    const double rtt_us = static_cast<double>(s.recv_ns - s.send_ns) / 1e3;
    const double rest = rtt_us - static_cast<double>(rec.queue_us +
                                                     rec.execute_us +
                                                     rec.flush_us);
    transport.push_back(rest);
    uncovered.push_back(100.0 * Ratio(rest, rtt_us));
  }
  layers->SetMedian("server.transport_us", transport);
  layers->SetMedian("trace.unattributed_pct", uncovered);

  const double reads = static_cast<double>(w.reads.size());
  const double cube_hits = w.Delta("workspace.cube_hits");
  const double column_hits = w.Delta("workspace.column_hits");
  layers->Set("engine.cube_hit_ratio",
              Ratio(cube_hits, cube_hits + w.Delta("workspace.cube_misses")));
  layers->Set("engine.column_hit_ratio",
              Ratio(column_hits,
                    column_hits + w.Delta("workspace.column_misses")));
  layers->Set("engine.pool_tasks", Ratio(w.Delta("threadpool.tasks"), reads));
  const double cache_hits = w.Delta("server.cache.hits");
  layers->Set("server.cache_hit_ratio",
              Ratio(cache_hits, cache_hits + w.Delta("server.cache.misses")));
  layers->Set("server.cache_evictions", w.Delta("server.cache.evictions"));
  layers->Set("server.cache_rekeyed", w.Delta("server.cache.rekeyed_entries"));
  layers->Set("server.cache_targeted_invalidations",
              w.Delta("server.cache.targeted_invalidations"));
  layers->Set("server.cache_full_invalidations",
              w.Delta("server.cache.full_invalidations"));
}

/// Engine, program-P and protocol layer metrics from single-node replays.
void AddReplayLayers(const std::vector<SingleReplay>& replays,
                     LayerValues* layers) {
  std::map<std::string, std::vector<double>> v;
  for (const SingleReplay& r : replays) {
    const xplain::QueryStats& s = r.stats;
    v["relational.encode_ms"].push_back(r.encode_ms);
    v["relational.original_ms"].push_back(r.original_ms);
    v["engine.explain_ms"].push_back(r.explain_ms);
    v["engine.additivity_ms"].push_back(r.additivity_ms);
    v["engine.cube_build_ms"].push_back(s.cube_build_ms);
    v["engine.merge_ms"].push_back(s.merge_ms);
    v["engine.degree_ms"].push_back(s.degree_ms);
    v["engine.topk_ms"].push_back(s.topk_ms);
    v["engine.semijoin_ms"].push_back(s.semijoin_ms);
    v["engine.unattributed_ms"].push_back(
        r.explain_ms - (s.cube_build_ms + s.merge_ms + s.degree_ms +
                        s.topk_ms + s.exact_rescore_ms));
    v["engine.table_rows"].push_back(static_cast<double>(s.table_rows));
    v["engine.rescore_ms"].push_back(s.exact_rescore_ms);
    v["engine.rescore_pool"].push_back(static_cast<double>(r.rescore_pool));
    v["engine.fixpoint_runs"].push_back(static_cast<double>(s.fixpoint_runs));
    v["engine.fixpoint_rounds"].push_back(
        static_cast<double>(s.fixpoint_rounds));
    v["engine.fixpoint_deleted_tuples"].push_back(
        static_cast<double>(s.fixpoint_deleted_tuples));
    v["protocol.parse_us"].push_back(r.parse_us);
    v["protocol.build_us"].push_back(r.build_us);
    v["protocol.serialize_us"].push_back(r.serialize_us);
    v["protocol.response_bytes"].push_back(
        static_cast<double>(r.response.size()));
  }
  for (const auto& [name, samples] : v) layers->SetMedian(name, samples);
}

/// Everything a workload run hands to Finish.
struct Outcomes {
  Tally tally;
  double setup_s = 0.0;
  /// Peak RSS when the timed window starts: set-up and warm state, without
  /// the per-request samples the load generator keeps during the window.
  double peak_rss_mb = 0.0;
  Window base;    // the end-to-end window
  Window traced;  // traced run only
  LayerValues layers;
  std::vector<std::string> problems;
};

RunResult Finish(const RunConfig& config, Outcomes* o, SpanLog* spans) {
  RunResult result;
  if (config.trace) {
    o->layers.AddTo(&result.metrics);
    std::ofstream out(config.out_dir + "/" + config.workload + "-" +
                      std::to_string(config.seed) + ".trace.json");
    out << spans->ToChromeJson();
    if (!out) o->problems.push_back("could not write the span file");
    if (spans->dropped() > 0) {
      std::cerr << "xbench: " << spans->dropped()
                << " spans beyond the per-name cap were not written\n";
    }
  } else {
    AddEndToEnd(o->base, o->tally, o->setup_s, o->peak_rss_mb,
                &result.metrics, &o->problems);
  }
  result.tally = o->tally;
  result.problems = o->problems;
  if (o->tally.failed() > 0 && !config.force_refusals) {
    result.problems.push_back(std::to_string(o->tally.failed()) + " of " +
                              std::to_string(o->tally.attempted) +
                              " requests failed");
  }
  result.correct = result.problems.empty();
  return result;
}

/// The window the answer checks and layer metrics use: the traced one in
/// a traced run.
const Window& Measured(const RunConfig& config, const Outcomes& o) {
  return config.trace ? o.traced : o.base;
}

/// Runs the untraced window and, in a traced run, the traced one after it.
void RunWindows(const RunConfig& config, WindowSpec spec, SpanLog* spans,
                std::atomic<uint64_t>* ids, Outcomes* o) {
  o->peak_rss_mb = PeakRssMb();
  o->base = RunWindow(spec, ids);
  TallyAll(o->base.reads, &o->tally);
  TallyAll(o->base.writes, &o->tally);
  if (!config.trace) return;
  spec.spans = spans;
  o->traced = RunWindow(spec, ids);
  TallyAll(o->traced.reads, &o->tally);
  TallyAll(o->traced.writes, &o->tally);
}

// ---- natality_adhoc ------------------------------------------------------

RunResult RunNatalityAdhoc(const RunConfig& config) {
  Outcomes o;
  SpanLog spans;
  std::atomic<uint64_t> ids{1};
  SingleNode node = SetUpTimed<SingleNode>(
      [&] { return StartSingleNode(MakeNatality(), config); },
      &o.setup_s);

  // Every request is a fresh question from the seeded stream.
  xplain::Mutex mu;
  NatalityQuestionStream stream(config.seed);
  std::vector<std::string> bodies;
  auto next = [&](int) {
    xplain::MutexLock lock(&mu);
    bodies.push_back(stream.Next());
    return Pick{bodies.back(), static_cast<int64_t>(bodies.size() - 1)};
  };
  // Warm-up: one question per connection, from the same stream.
  std::vector<std::string> warm;
  for (int c = 0; c < kAdhocConnections; ++c) warm.push_back(next(c).body);
  TallyAll(RunEach(node.port(), kAdhocConnections, warm, &ids, LoadOptions{}),
           &o.tally);

  WindowSpec spec;
  spec.port = node.port();
  spec.readers = kAdhocConnections;
  spec.next = next;
  spec.seconds = config.seconds;
  spec.capture = true;
  spec.recorders = {&node.service->flight_recorder()};
  const XplaindService::Stats before = node.service->GetStats();
  RunWindows(config, spec, &spans, &ids, &o);
  const XplaindService::Stats after = node.service->GetStats();
  const Window& w = Measured(config, o);

  // Reference: a direct engine over an identical copy of the database.
  xplain::Database db = node.service->db().Clone();
  std::unique_ptr<xplain::ExplainEngine> engine;
  const double build_us = TimeSpan(config.trace ? &spans : nullptr,
                                   "relational.universal_build", 0, [&] {
    engine = std::make_unique<xplain::ExplainEngine>(
        Check(xplain::ExplainEngine::Create(&db), "reference engine"));
  });
  std::vector<const Sample*> ok;
  for (const Sample& s : w.reads) {
    if (s.outcome == Outcome::kOk) ok.push_back(&s);
  }
  xplain::Rng pick(config.seed ^ 0x636865636bULL);
  for (size_t i = 0; i < ok.size(); ++i) {
    std::swap(ok[i], ok[static_cast<size_t>(pick.UniformInt(
                         static_cast<int64_t>(i),
                         static_cast<int64_t>(ok.size()) - 1))]);
  }
  ok.resize(std::min(ok.size(), kAdhocChecked));
  std::vector<SingleReplay> replays;
  for (size_t i = 0; i < ok.size(); ++i) {
    const Sample& s = *ok[i];
    std::string served = s.response;
    if (config.corrupt_one_answer && i == 0) Corrupt(&served);
    replays.push_back(ReplaySingle(
        *engine, MakeLine(s.id, bodies[static_cast<size_t>(s.slot)]),
        config.trace, config.trace ? &spans : nullptr));
    CheckAnswer("natality_adhoc request " + std::to_string(s.id), served,
                replays.back().response, &o.problems);
  }
  if (ok.empty()) o.problems.push_back("no ok reads to check");

  if (config.trace) {
    AddCommonLayers(o.base, w, o.tally, 0, {0}, &o.layers, &o.problems);
    AddReplayLayers(replays, &o.layers);
    o.layers.Set("relational.universal_build_s", build_us / 1e6);
    o.layers.Set("server.rejected",
                 static_cast<double>(after.rejected - before.rejected));
    o.layers.Set("server.errors",
                 static_cast<double>(after.errors - before.errors));
  }
  return Finish(config, &o, &spans);
}

// ---- dblp_cluster --------------------------------------------------------

RunResult RunDblpCluster(const RunConfig& config) {
  Outcomes o;
  SpanLog spans;
  std::atomic<uint64_t> ids{1};
  Cluster cluster = SetUpTimed<Cluster>(
      [&] { return StartCluster(config); }, &o.setup_s);

  const std::vector<std::string> pool = DblpPool(config.seed, kClusterPool);
  const ZipfSampler zipf(pool.size(), kClusterZipf);
  std::vector<xplain::Rng> rngs;
  xplain::Rng root(config.seed ^ 0x636c7573ULL);
  for (int c = 0; c < kClusterConnections; ++c) rngs.push_back(root.Split());
  auto next = [&](int c) {
    const size_t slot = zipf.Sample(&rngs[static_cast<size_t>(c)]);
    return Pick{pool[slot], static_cast<int64_t>(slot)};
  };
  std::vector<std::string> warm;
  for (int i = 0; i < 2 * kClusterConnections; ++i) {
    warm.push_back(next(i % kClusterConnections).body);
  }
  TallyAll(RunEach(cluster.port(), kClusterConnections, warm, &ids,
                   LoadOptions{}),
           &o.tally);

  WindowSpec spec;
  spec.port = cluster.port();
  spec.readers = kClusterConnections;
  spec.next = next;
  spec.seconds = config.seconds;
  spec.capture = true;
  spec.recorders = {&cluster.coordinator->flight_recorder()};
  for (const auto& shard : cluster.shards) {
    spec.recorders.push_back(&shard->flight_recorder());
  }
  const xplain::cluster::Coordinator::Stats before =
      cluster.coordinator->GetStats();
  RunWindows(config, spec, &spans, &ids, &o);
  const xplain::cluster::Coordinator::Stats after =
      cluster.coordinator->GetStats();
  const Window& w = Measured(config, o);

  // Reference: a single-node xplaind over the unpartitioned database
  // answers every distinct question served (cluster == single node).
  SingleNode reference = StartSingleNode(MakeDblp(), RunConfig{});
  std::map<int64_t, std::vector<const Sample*>> by_slot;
  for (const Sample& s : w.reads) {
    if (s.outcome == Outcome::kOk) by_slot[s.slot].push_back(&s);
  }
  std::vector<int64_t> slots;
  for (const auto& entry : by_slot) slots.push_back(entry.first);
  std::vector<std::string> expected(slots.size());
  ParallelFor(kCheckThreads, slots.size(), [&](size_t i) {
    const Sample& first = *by_slot[slots[i]].front();
    expected[i] = reference.service->HandleLine(
        MakeLine(first.id, pool[static_cast<size_t>(slots[i])]));
  });
  for (size_t i = 0; i < slots.size(); ++i) {
    for (const Sample* s : by_slot[slots[i]]) {
      std::string served = s->response;
      if (config.corrupt_one_answer && i == 0 &&
          s == by_slot[slots[i]].front()) {
        Corrupt(&served);
      }
      CheckAnswer("dblp_cluster request " + std::to_string(s->id),
                  BodyOf(served), BodyOf(expected[i]), &o.problems);
    }
  }
  if (slots.empty()) o.problems.push_back("no ok reads to check");

  if (config.trace) {
    // Cluster chain replays of the most-served questions, and their
    // single-node engine replays for the engine and program-P layers.
    std::sort(slots.begin(), slots.end(), [&](int64_t a, int64_t b) {
      return by_slot[a].size() > by_slot[b].size() ||
             (by_slot[a].size() == by_slot[b].size() && a < b);
    });
    slots.resize(std::min(slots.size(), kClusterReplayed));
    xplain::Database db = MakeDblp();
    std::unique_ptr<xplain::ExplainEngine> engine;
    const double build_us =
        TimeSpan(&spans, "relational.universal_build", 0, [&] {
          engine = std::make_unique<xplain::ExplainEngine>(
              Check(xplain::ExplainEngine::Create(&db), "reference engine"));
        });
    const std::vector<uint64_t> versions =
        cluster.coordinator->GetStats().shard_versions;
    std::vector<SingleReplay> singles;
    std::map<std::string, std::vector<double>> v;
    for (int64_t slot : slots) {
      const Sample& s = *by_slot[slot].front();
      const std::string line = MakeLine(s.id, pool[static_cast<size_t>(slot)]);
      const ClusterReplay c =
          ReplayCluster(cluster.coordinator->catalog(), cluster.shard_ports(),
                        versions, line, &spans);
      CheckAnswer("dblp_cluster replay " + std::to_string(s.id), s.response,
                  c.response, &o.problems);
      v["cluster.partial_round_ms"].push_back(c.partial_slowest_ms);
      v["cluster.partial_bytes"].push_back(c.partial_bytes);
      v["cluster.parse_ms"].push_back(c.parse_ms);
      v["cluster.merge_ms"].push_back(c.merge_ms);
      v["cluster.rescore_round_ms"].push_back(c.rescore_slowest_ms);
      v["cluster.finish_ms"].push_back(c.finish_ms);
      v["cluster.shard_skew"].push_back(
          Ratio(c.partial_slowest_ms, c.partial_fastest_ms));
      if (c.rescored) {
        v["cluster.shard_skew"].push_back(
            Ratio(c.rescore_slowest_ms, c.rescore_fastest_ms));
      }
      singles.push_back(ReplaySingle(*engine, line, true, &spans));
      CheckAnswer("dblp_cluster single-node replay " + std::to_string(s.id),
                  BodyOf(s.response), BodyOf(singles.back().response),
                  &o.problems);
    }
    AddCommonLayers(o.base, w, o.tally, 0, {1, 2}, &o.layers, &o.problems);
    AddReplayLayers(singles, &o.layers);
    for (const auto& [name, samples] : v) o.layers.SetMedian(name, samples);
    o.layers.Set("relational.universal_build_s", build_us / 1e6);
    std::vector<double> coordinator_execute;
    double shard_hits = 0.0;
    double shard_lookups = 0.0;
    for (const FlightRecord& rec : w.flight[0]) {
      coordinator_execute.push_back(static_cast<double>(rec.execute_us));
    }
    for (size_t r = 1; r < w.flight.size(); ++r) {
      for (const FlightRecord& rec : w.flight[r]) {
        if (rec.cache == FlightRecord::CacheOutcome::kBypass) continue;
        shard_lookups += 1.0;
        if (rec.cache == FlightRecord::CacheOutcome::kHit) shard_hits += 1.0;
      }
    }
    o.layers.SetMedian("cluster.coordinator_execute_us", coordinator_execute);
    o.layers.Set("cluster.shard_cache_hit_ratio",
                 Ratio(shard_hits, shard_lookups));
    o.layers.Set("cluster.fanout_retries", static_cast<double>(
                                               after.fanout_retries -
                                               before.fanout_retries));
    o.layers.Set("server.rejected",
                 static_cast<double>(after.rejected - before.rejected));
    o.layers.Set("server.errors",
                 static_cast<double>(after.errors - before.errors));
  }
  return Finish(config, &o, &spans);
}

// ---- natality_rw ---------------------------------------------------------

RunResult RunNatalityRw(const RunConfig& config) {
  Outcomes o;
  SpanLog spans;
  std::atomic<uint64_t> ids{1};
  SingleNode node = SetUpTimed<SingleNode>(
      [&] { return StartSingleNode(MakeNatality(), config); },
      &o.setup_s);

  const std::vector<std::string> pool =
      NatalityVariantPool(config.seed, kRwQuestions);
  const ZipfSampler zipf(pool.size(), kRwZipf);
  std::vector<xplain::Rng> rngs;
  xplain::Rng root(config.seed ^ 0x72776c6f6164ULL);
  for (int c = 0; c < kRwReaders; ++c) rngs.push_back(root.Split());
  auto next = [&](int c) {
    const size_t slot = zipf.Sample(&rngs[static_cast<size_t>(c)]);
    return Pick{pool[slot], static_cast<int64_t>(slot)};
  };
  // Warm-up: the whole pool once, so the timed window starts from the
  // cache state the readers' own distribution builds.
  TallyAll(RunEach(node.port(), kRwReaders, pool, &ids, LoadOptions{}),
           &o.tally);

  Writer writer(config.seed);
  WindowSpec spec;
  spec.port = node.port();
  spec.readers = kRwReaders;
  spec.next = next;
  spec.writer = &writer;
  spec.seconds = config.seconds;
  spec.recorders = {&node.service->flight_recorder()};
  const XplaindService::Stats before = node.service->GetStats();
  RunWindows(config, spec, &spans, &ids, &o);
  const XplaindService::Stats after = node.service->GetStats();
  const Window& w = Measured(config, o);

  // After the writer stopped: one read pass over the pool, compared with
  // a fresh engine built on a copy of the served database (incremental ==
  // rebuild).
  LoadOptions capture;
  capture.capture = true;
  std::vector<Sample> pass =
      RunEach(node.port(), kRwReaders, pool, &ids, capture);
  TallyAll(pass, &o.tally);
  xplain::Database db = node.service->db().Clone();
  std::unique_ptr<xplain::ExplainEngine> engine;
  const double build_us = TimeSpan(config.trace ? &spans : nullptr,
                                   "relational.universal_build", 0, [&] {
    engine = std::make_unique<xplain::ExplainEngine>(
        Check(xplain::ExplainEngine::Create(&db), "fresh engine"));
  });
  std::vector<SingleReplay> replays(pass.size());
  ParallelFor(kCheckThreads, pass.size(), [&](size_t i) {
    replays[i] = ReplaySingle(*engine, MakeLine(pass[i].id, pool[i]), false,
                              nullptr);
  });
  for (size_t i = 0; i < pass.size(); ++i) {
    std::string served = pass[i].response;
    if (config.corrupt_one_answer && i == 0) Corrupt(&served);
    CheckAnswer("natality_rw read " + std::to_string(pass[i].id), served,
                replays[i].response, &o.problems);
  }

  if (config.trace) {
    // Layer timings from a sequential (uncontended) replay of the most
    // popular questions.
    std::vector<SingleReplay> timed;
    for (size_t i = 0; i < std::min(pass.size(), kRwReplayed); ++i) {
      timed.push_back(ReplaySingle(*engine, MakeLine(pass[i].id, pool[i]),
                                   true, &spans));
    }
    AddCommonLayers(o.base, w, o.tally, 0, {0}, &o.layers, &o.problems);
    AddReplayLayers(timed, &o.layers);
    o.layers.Set("relational.universal_build_s", build_us / 1e6);
    o.layers.Set("server.rejected",
                 static_cast<double>(after.rejected - before.rejected));
    o.layers.Set("server.errors",
                 static_cast<double>(after.errors - before.errors));

    std::vector<double> write_latency, late;
    for (const Sample& s : w.writes) {
      late.push_back(static_cast<double>(s.send_ns - s.due_ns) / 1e6);
      if (s.outcome == Outcome::kOk) write_latency.push_back(s.latency_ms());
    }
    o.layers.SetMedian("write_p50_ms", write_latency);
    o.layers.Set("gen.write_late_ms",
                 late.empty() ? 0.0 : *std::max_element(late.begin(),
                                                        late.end()));
    std::vector<double> during;
    for (const Sample& r : w.reads) {
      if (r.outcome != Outcome::kOk) continue;
      for (const Sample& d : w.writes) {
        if (r.send_ns < d.recv_ns && d.send_ns < r.recv_ns) {
          during.push_back(r.latency_ms());
          break;
        }
      }
    }
    o.layers.SetMedian("server.read_during_delta_ms", during);

    // The writer's deltas replayed on a side engine that starts from the
    // initial database, warmed with the readers' pool like the served one.
    xplain::Database side_db = MakeNatality();
    xplain::ExplainEngine side =
        Check(xplain::ExplainEngine::Create(&side_db), "side engine");
    ParallelFor(kCheckThreads, pool.size(), [&](size_t i) {
      ReplaySingle(side, MakeLine(0, pool[i]), false, nullptr);
    });
    std::vector<double> plan_ms, commit_ms;
    uint64_t delta_id = 0;
    for (const std::string& body : writer.bodies) {
      const xplain::server::Request request = Check(
          xplain::server::ParseRequest(MakeLine(++delta_id, body)),
          "parse delta");
      const xplain::DeltaSet delta =
          Check(xplain::server::BuildDelta(side_db, request), "build delta");
      xplain::EngineDeltaPlan plan;
      plan_ms.push_back(TimeSpan(&spans, "relational.delta_plan", delta_id,
                                 [&] { plan = side.PlanDelta(delta); }) /
                        1e3);
      commit_ms.push_back(TimeSpan(&spans, "relational.delta_commit",
                                   delta_id, [&] {
                                     side_db.ApplyDeltaPlan(plan.db_plan);
                                     side.CommitDelta(std::move(plan));
                                   }) /
                          1e3);
    }
    o.layers.SetMedian("relational.delta_plan_ms", plan_ms);
    o.layers.SetMedian("relational.delta_commit_ms", commit_ms);
    if (side_db.TotalRows() != node.service->db().TotalRows()) {
      o.problems.push_back("delta replay left " +
                           std::to_string(side_db.TotalRows()) +
                           " rows; the server holds " +
                           std::to_string(node.service->db().TotalRows()));
    }
  }
  return Finish(config, &o, &spans);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "natality_adhoc", "dblp_cluster", "natality_rw"};
  return names;
}

const std::vector<MetricSpec>& EndToEndMetrics() { return kEndToEnd; }

const std::vector<MetricSpec>& LayerMetrics() { return kLayers; }

RunResult RunBenchmark(const RunConfig& config) {
  if (config.workload == "natality_adhoc") return RunNatalityAdhoc(config);
  if (config.workload == "dblp_cluster") return RunDblpCluster(config);
  if (config.workload == "natality_rw") return RunNatalityRw(config);
  throw BenchError("unknown workload '" + config.workload + "'");
}

}  // namespace xbench
