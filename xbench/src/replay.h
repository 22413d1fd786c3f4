#ifndef XBENCH_REPLAY_H_
#define XBENCH_REPLAY_H_

// In-process replays of served requests through the program's public
// layer functions, each call timed (and recorded as a span when a SpanLog
// is given). A replay rebuilds the exact response line the server sent, so
// comparing the two checks the served answer and ties every layer time to
// a request whose answer is known to be right.

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "harness.h"
#include "relational/database.h"

namespace xbench {

/// One request replayed through the single-node chain
/// ParseRequest -> BuildQuestion -> ExplainEngine::ExplainResolved ->
/// ReportPayload.
struct SingleReplay {
  /// MakeResponse(id, payload): what the server should have sent.
  std::string response;
  double parse_us = 0.0;
  double build_us = 0.0;
  double serialize_us = 0.0;
  double explain_ms = 0.0;
  /// Standalone timings of the layers Explain uses, each called on its
  /// own (only when `layers` was requested): ColumnCache::Build over the
  /// columns the cube path encodes, Q(D) via EvaluateOnUniversal, and
  /// CheckQueryAdditivity + CheckCellAdditivity.
  double encode_ms = 0.0;
  double original_ms = 0.0;
  double additivity_ms = 0.0;
  /// Explain's own per-phase breakdown (collect_stats).
  xplain::QueryStats stats;
  /// Candidate cells rescored exactly with program P (0 when the cube
  /// degrees were exact).
  size_t rescore_pool = 0;
};

/// Replays wire request `line` against `engine` (whose database is the
/// serving database's state). Throws BenchError when a step fails.
SingleReplay ReplaySingle(const xplain::ExplainEngine& engine,
                          const std::string& line, bool layers,
                          SpanLog* spans);

/// One request replayed through the cluster chain: partial scatter ->
/// ParsePartialPayload -> MergePartials -> rescore scatter ->
/// FinishRescore -> ReportPayload.
struct ClusterReplay {
  std::string response;
  /// Per round, the slowest and the fastest shard round trip.
  double partial_slowest_ms = 0.0;
  double partial_fastest_ms = 0.0;
  double rescore_slowest_ms = 0.0;
  double rescore_fastest_ms = 0.0;
  bool rescored = false;
  size_t rescore_pool = 0;
  /// Bytes of all partial responses.
  double partial_bytes = 0.0;
  double parse_ms = 0.0;
  double merge_ms = 0.0;
  /// FinishRescore + ReportPayload.
  double finish_ms = 0.0;
};

/// Replays wire request `line` as the coordinator would, against shard
/// xplainds listening on `shard_ports` (loopback) whose database versions
/// are `versions`. `catalog` is the coordinator's rows-free catalog.
ClusterReplay ReplayCluster(const xplain::Database& catalog,
                            const std::vector<int>& shard_ports,
                            const std::vector<uint64_t>& versions,
                            const std::string& line, SpanLog* spans);

}  // namespace xbench

#endif  // XBENCH_REPLAY_H_
