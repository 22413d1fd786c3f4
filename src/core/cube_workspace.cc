#include "core/cube_workspace.h"

#include <algorithm>
#include <numeric>

#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {

namespace {

/// Length-prefix framing ("<len>:<text>;") so concatenated fields cannot
/// collide across field boundaries.
void AppendField(std::string* out, const std::string& field) {
  *out += std::to_string(field.size());
  *out += ':';
  *out += field;
  *out += ';';
}

/// Plans one retained cube's part of a delta (see the CubeWorkspace
/// class comment for the per-kind rule). `cache` holds the cube's grouping
/// attributes as its first columns, then every column `query` reads, all
/// over the pre-delta U(D).
Status PlanEntry(const AggregateQuery& query, const DataCube& cube,
                 const DataCube::CellMap& counts, const ColumnCache& cache,
                 const UniversalRemap& remap, CubeWorkspace::Patch* patch,
                 CubeWorkspace::Patch::EntryPatch* out) {
  XPLAIN_ASSIGN_OR_RETURN(CodedFilter filter,
                          CodedFilter::Compile(cache, query.where));
  const std::vector<uint32_t> removed =
      filter.EvalRows(cache, &remap.removed_universal);
  if (removed.empty()) return Status::OK();

  const AggregateKind kind = query.agg.kind;
  const int measure = kind == AggregateKind::kCountStar
                          ? -1
                          : cache.FindColumn(query.agg.column);
  std::vector<int> attr_indices(cube.attributes().size());
  std::iota(attr_indices.begin(), attr_indices.end(), 0);
  CubeOptions options;
  options.max_attributes = static_cast<int>(attr_indices.size());
  auto kernel = [&](AggregateKind k, const std::vector<uint32_t>& rows) {
    return DataCube::Compute(cache, attr_indices, k,
                             k == AggregateKind::kCountStar ? -1 : measure,
                             &rows, options);
  };

  switch (kind) {
    case AggregateKind::kCountStar:
    case AggregateKind::kSum: {
      // Group homomorphisms: subtract the removed rows' cube. COUNT(*) is
      // its own liveness count; SUM reads its sidecar.
      XPLAIN_ASSIGN_OR_RETURN(DataCube removed_counts,
                              kernel(AggregateKind::kCountStar, removed));
      DataCube removed_sums;
      if (kind == AggregateKind::kSum) {
        XPLAIN_ASSIGN_OR_RETURN(removed_sums,
                                kernel(AggregateKind::kSum, removed));
      }
      const DataCube::CellMap& live =
          kind == AggregateKind::kSum ? counts : cube.cells();
      for (const auto& [coord, count] : removed_counts.cells()) {
        auto it = live.find(coord);
        const double left = (it == live.end() ? 0.0 : it->second) - count;
        ++patch->cells_patched;
        if (left <= 0.0) {
          out->erasures.push_back(coord);
        } else if (kind == AggregateKind::kCountStar) {
          out->updates.push_back({coord, left, 0.0});
        } else {
          out->updates.push_back(
              {coord, cube.CellValue(coord) - removed_sums.CellValue(coord),
               left});
        }
      }
      return Status::OK();
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      // A stored extremum survives when every removed value lies strictly
      // beyond it. A cell whose rows all die always fails this (its
      // removed extremum is the stored one), and so does a NaN or a cell
      // of all-NULL removed values (read as 0): both merely rebuild.
      XPLAIN_ASSIGN_OR_RETURN(DataCube removed_extrema,
                              kernel(kind, removed));
      bool extremum_died = false;
      for (const auto& [coord, value] : removed_extrema.cells()) {
        const double stored = cube.CellValue(coord);
        if (kind == AggregateKind::kMin ? !(value > stored)
                                        : !(value < stored)) {
          extremum_died = true;
          break;
        }
      }
      if (!extremum_died) return Status::OK();
      break;
    }
    case AggregateKind::kCountDistinct:
    case AggregateKind::kAvg:
      break;  // No invertible per-cell statistic: always rebuild.
  }
  XPLAIN_ASSIGN_OR_RETURN(
      DataCube rebuilt,
      kernel(kind, filter.EvalRows(cache, &remap.surviving_universal)));
  patch->cells_recomputed += static_cast<int64_t>(rebuilt.NumCells());
  out->rebuilt = std::move(*rebuilt.mutable_cells());
  return Status::OK();
}

}  // namespace

std::string CanonicalCubeKey(const Database& db, const AggregateQuery& query,
                             const std::vector<ColumnRef>& attributes) {
  std::string key = "cube;";
  AppendField(&key, query.agg.ToString(db));
  AppendField(&key, query.where.ToString(db));
  for (const ColumnRef& attr : attributes) {
    AppendField(&key, std::to_string(attr.relation) + "." +
                          std::to_string(attr.attribute));
  }
  return key;
}

void AppendQueryColumns(const AggregateQuery& query,
                        std::vector<ColumnRef>* columns) {
  auto add = [columns](const ColumnRef& column) {
    if (std::find(columns->begin(), columns->end(), column) ==
        columns->end()) {
      columns->push_back(column);
    }
  };
  if (query.agg.kind != AggregateKind::kCountStar) add(query.agg.column);
  for (const ConjunctivePredicate& disjunct : query.where.disjuncts()) {
    for (const AtomicPredicate& atom : disjunct.atoms()) add(atom.column);
  }
}

bool CubeWorkspace::CubeIsMaintainable(const Database& db,
                                       const AggregateSpec& agg) {
  switch (agg.kind) {
    case AggregateKind::kCountStar:
    case AggregateKind::kCountDistinct:
      return true;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      // Integer sums are exact in double (|sum| < 2^53); float sums are
      // order-sensitive, so subtraction would break byte-identity.
      return db.ColumnType(agg.column) == DataType::kInt64;
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return IsNumeric(db.ColumnType(agg.column));
  }
  return false;
}

std::shared_ptr<const DataCube> CubeWorkspace::LookupCube(
    const Database& db, const AggregateQuery& query,
    const std::vector<ColumnRef>& attributes) const {
  const std::string key = CanonicalCubeKey(db, query, attributes);
  MutexLock lock(&mu_);
  auto it = cubes_.find(key);
  if (it == cubes_.end()) {
    ++cube_misses_;
    XPLAIN_COUNTER_ADD("workspace.cube_misses", 1);
    return nullptr;
  }
  ++cube_hits_;
  XPLAIN_COUNTER_ADD("workspace.cube_hits", 1);
  return it->second.cube;
}

std::shared_ptr<const DataCube> CubeWorkspace::InsertCube(
    const Database& db, const AggregateQuery& query,
    const std::vector<ColumnRef>& attributes, DataCube cube,
    DataCube::CellMap counts) {
  auto shared = std::make_shared<DataCube>(std::move(cube));
  if (!CubeIsMaintainable(db, query.agg)) return shared;
  const std::string key = CanonicalCubeKey(db, query, attributes);
  MutexLock lock(&mu_);
  if (frozen_ || cubes_.size() >= limits_.max_cubes ||
      cubes_.count(key) != 0) {
    return shared;
  }
  CubeEntry entry;
  entry.query = query;
  entry.attributes = attributes;
  entry.cube = shared;
  entry.counts = std::move(counts);
  cubes_.emplace(key, std::move(entry));
  XPLAIN_COUNTER_ADD("workspace.cube_inserts", 1);
  return shared;
}

ColumnCache CubeWorkspace::Columns(const UniversalRelation& universal,
                                   const std::vector<ColumnRef>& columns) {
  std::vector<std::shared_ptr<const EncodedColumn>> encoded(columns.size());
  std::vector<size_t> missing;
  {
    MutexLock lock(&mu_);
    for (size_t c = 0; c < columns.size(); ++c) {
      auto it = columns_.find(columns[c]);
      if (it == columns_.end()) {
        missing.push_back(c);
      } else {
        encoded[c] = it->second;
      }
    }
    column_hits_ += static_cast<int64_t>(columns.size() - missing.size());
    column_misses_ += static_cast<int64_t>(missing.size());
  }
  XPLAIN_COUNTER_ADD("workspace.column_hits",
                     static_cast<int64_t>(columns.size() - missing.size()));
  XPLAIN_COUNTER_ADD("workspace.column_misses",
                     static_cast<int64_t>(missing.size()));
  if (missing.empty()) {
    return ColumnCache::FromColumns(universal, std::move(encoded));
  }

  std::vector<std::shared_ptr<EncodedColumn>> fresh;
  fresh.reserve(missing.size());
  for (size_t c : missing) {
    fresh.push_back(std::make_shared<EncodedColumn>(
        EncodedColumn::Encode(universal, columns[c])));
  }
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < missing.size(); ++i) {
      const size_t c = missing[i];
      encoded[c] = fresh[i];
      if (frozen_) continue;
      auto it = columns_.find(columns[c]);
      if (it != columns_.end()) {
        encoded[c] = it->second;  // a concurrent request retained it first
      } else if (columns_.size() < limits_.max_columns) {
        columns_.emplace(columns[c], fresh[i]);
        XPLAIN_COUNTER_ADD("workspace.column_inserts", 1);
      }
    }
  }
  return ColumnCache::FromColumns(universal, std::move(encoded));
}

void CubeWorkspace::BeginDelta() {
  MutexLock lock(&mu_);
  frozen_ = true;
}

void CubeWorkspace::AbortDelta() {
  MutexLock lock(&mu_);
  frozen_ = false;
}

CubeWorkspaceStats CubeWorkspace::GetStats() const {
  MutexLock lock(&mu_);
  CubeWorkspaceStats stats;
  stats.cube_hits = cube_hits_;
  stats.cube_misses = cube_misses_;
  stats.column_hits = column_hits_;
  stats.column_misses = column_misses_;
  stats.cells_patched = cells_patched_;
  stats.cells_recomputed = cells_recomputed_;
  stats.cube_entries = cubes_.size();
  stats.column_entries = columns_.size();
  return stats;
}

CubeWorkspace::Patch CubeWorkspace::PlanDelta(
    const UniversalRelation& old_universal,
    const UniversalRemap& remap) const {
  TraceSpan span("workspace.plan_delta");
  Patch patch;
  if (remap.removed_universal.empty()) return patch;
  // Snapshot the entries and retained columns under the lock; the per-
  // entry planning below runs without it (both are frozen between
  // BeginDelta and CommitDelta).
  std::vector<const CubeEntry*> entries;
  std::map<ColumnRef, std::shared_ptr<const EncodedColumn>> columns;
  {
    MutexLock lock(&mu_);
    entries.reserve(cubes_.size());
    for (const auto& [key, entry] : cubes_) {
      patch.entries.emplace_back().key = key;
      entries.push_back(&entry);
    }
    columns.insert(columns_.begin(), columns_.end());
  }

  for (size_t e = 0; e < entries.size(); ++e) {
    const CubeEntry& entry = *entries[e];
    std::vector<ColumnRef> needed = entry.attributes;
    AppendQueryColumns(entry.query, &needed);
    std::vector<std::shared_ptr<const EncodedColumn>> encoded;
    for (const ColumnRef& column : needed) {
      std::shared_ptr<const EncodedColumn>& slot = columns[column];
      if (slot == nullptr) {
        slot = std::make_shared<const EncodedColumn>(
            EncodedColumn::Encode(old_universal, column));
      }
      encoded.push_back(slot);
    }
    const ColumnCache cache =
        ColumnCache::FromColumns(old_universal, std::move(encoded));
    Patch::EntryPatch& entry_patch = patch.entries[e];
    if (!PlanEntry(entry.query, *entry.cube, entry.counts, cache, remap,
                   &patch, &entry_patch)
             .ok()) {
      // The workspace is an optimization: an entry the kernel cannot
      // maintain is dropped, and the next question recomputes it.
      entry_patch.drop = true;
    }
  }
  span.set_arg(patch.cells_patched);
  return patch;
}

void CubeWorkspace::CommitDelta(Patch&& patch, const UniversalRemap& remap) {
  TraceSpan span("workspace.commit_delta");
  MutexLock lock(&mu_);
  for (Patch::EntryPatch& entry_patch : patch.entries) {
    auto it = cubes_.find(entry_patch.key);
    if (it == cubes_.end()) continue;
    CubeEntry& entry = it->second;
    if (entry_patch.drop) {
      cubes_.erase(it);
      continue;
    }
    DataCube::CellMap* cells = entry.cube->mutable_cells();
    if (entry_patch.rebuilt.has_value()) {
      *cells = std::move(*entry_patch.rebuilt);
      continue;
    }
    for (const Patch::EntryPatch::CellUpdate& update : entry_patch.updates) {
      (*cells)[update.coord] = update.value;
      if (entry.query.agg.kind == AggregateKind::kSum) {
        entry.counts[update.coord] = update.count;
      }
    }
    for (const Tuple& coord : entry_patch.erasures) {
      cells->erase(coord);
      entry.counts.erase(coord);
    }
  }
  const std::vector<uint32_t>& surviving = remap.surviving_universal;
  for (auto& [column, encoded] : columns_) {
    std::vector<uint32_t> codes(surviving.size());
    for (size_t i = 0; i < surviving.size(); ++i) {
      codes[i] = encoded->codes[surviving[i]];
    }
    encoded->codes.swap(codes);
  }
  cells_patched_ += patch.cells_patched;
  cells_recomputed_ += patch.cells_recomputed;
  XPLAIN_COUNTER_ADD("workspace.cells_patched", patch.cells_patched);
  XPLAIN_COUNTER_ADD("workspace.cells_recomputed", patch.cells_recomputed);
  frozen_ = false;
}

}  // namespace xplain
