#include "core/cube_workspace.h"

#include <algorithm>

#include "relational/aggregate.h"
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

/// The per-ancestor-cell effect of the removed rows: how many filter-
/// passing rows die, their exact non-null sum, and the removed extrema
/// that decide whether a MIN/MAX cell must be recomputed.
struct RemovalRecord {
  double count = 0.0;
  double sum = 0.0;
  bool any_non_null = false;
  bool has_min = false;
  double min = 0.0;
  bool has_max = false;
  double max = 0.0;

  void MergeFrom(const RemovalRecord& other) {
    count += other.count;
    sum += other.sum;
    any_non_null = any_non_null || other.any_non_null;
    if (other.has_min && (!has_min || other.min < min)) {
      has_min = true;
      min = other.min;
    }
    if (other.has_max && (!has_max || other.max > max)) {
      has_max = true;
      max = other.max;
    }
  }
};

using RecordMap =
    std::unordered_map<Tuple, RemovalRecord, TupleHash, TupleEq>;
using AccumulatorMap =
    std::unordered_map<Tuple, AggregateAccumulator, TupleHash, TupleEq>;

/// Coordinate of `base` with every attribute whose bit is set in `mask`
/// replaced by NULL (= ALL), matching the cube rollup lattice.
Tuple MaskedCoord(const Tuple& base, uint32_t mask) {
  Tuple coord = base;
  for (size_t i = 0; i < coord.size(); ++i) {
    if (mask & (1u << i)) coord[i] = Value::Null();
  }
  return coord;
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
  // Snapshot the entries under the lock; the per-entry analysis below runs
  // without it (entries are frozen between BeginDelta and CommitDelta).
  std::vector<const CubeEntry*> entries;
  {
    MutexLock lock(&mu_);
    entries.reserve(cubes_.size());
    for (const auto& [key, entry] : cubes_) {
      patch.entries.push_back(Patch::EntryPatch{key, {}, {}, {}});
      entries.push_back(&entry);
    }
  }

  for (size_t e = 0; e < entries.size(); ++e) {
    const CubeEntry& entry = *entries[e];
    Patch::EntryPatch& entry_patch = patch.entries[e];
    const AggregateKind kind = entry.query.agg.kind;
    const bool needs_column = kind != AggregateKind::kCountStar;
    const size_t d = entry.attributes.size();
    const uint32_t num_masks = 1u << d;

    // Phase 1: fold the removed filter-passing rows into base-cell removal
    // records (one hash op per row, as in DataCube::Compute).
    RecordMap base_records;
    for (uint32_t u : remap.removed_universal) {
      if (!entry.query.where.EvalUniversal(old_universal, u)) continue;
      Tuple base;
      base.reserve(d);
      for (const ColumnRef& attr : entry.attributes) {
        base.push_back(old_universal.ValueAt(u, attr));
      }
      RemovalRecord& rec = base_records[std::move(base)];
      rec.count += 1.0;
      if (needs_column) {
        const Value& x = old_universal.ValueAt(u, entry.query.agg.column);
        if (!x.is_null()) {
          rec.any_non_null = true;
          // DISTINCT columns need not be numeric (any_non_null above is
          // all its dirtiness test reads); the numeric folds below are
          // only consulted for SUM/AVG/MIN/MAX.
          if (kind == AggregateKind::kCountDistinct) continue;
          const double v = x.AsNumeric();
          rec.sum += v;
          if (!rec.has_min || v < rec.min) {
            rec.has_min = true;
            rec.min = v;
          }
          if (!rec.has_max || v > rec.max) {
            rec.has_max = true;
            rec.max = v;
          }
        }
      }
    }
    if (base_records.empty()) continue;

    // Phase 2: roll the removal records up the 2^d lattice.
    RecordMap ancestor_records;
    for (const auto& [base, rec] : base_records) {
      for (uint32_t mask = 0; mask < num_masks; ++mask) {
        ancestor_records[MaskedCoord(base, mask)].MergeFrom(rec);
      }
    }

    // Decide which cells need full recomputation: an extremum may have
    // died (MIN/MAX) or the aggregate does not subtract (DISTINCT/AVG).
    std::unordered_map<Tuple, AggregateAccumulator, TupleHash, TupleEq>
        dirty;
    for (const auto& [coord, rec] : ancestor_records) {
      bool needs_recompute = false;
      switch (kind) {
        case AggregateKind::kCountStar:
        case AggregateKind::kSum:
          break;
        case AggregateKind::kMin:
          needs_recompute =
              rec.has_min && rec.min <= entry.cube->CellValue(coord);
          break;
        case AggregateKind::kMax:
          needs_recompute =
              rec.has_max && rec.max >= entry.cube->CellValue(coord);
          break;
        case AggregateKind::kCountDistinct:
        case AggregateKind::kAvg:
          needs_recompute = rec.any_non_null;
          break;
      }
      if (needs_recompute) {
        dirty.emplace(coord, AggregateAccumulator(kind));
      }
    }

    // Targeted recomputation over the surviving rows: base-cell
    // accumulators first, then merge only into dirty ancestors. The
    // retained accumulator kinds are order-insensitive (integer sums are
    // exact, MIN/MAX and DISTINCT are idempotent folds), so this matches
    // a fresh DataCube::Compute byte for byte.
    if (!dirty.empty()) {
      AccumulatorMap survivors;
      for (uint32_t u : remap.surviving_universal) {
        if (!entry.query.where.EvalUniversal(old_universal, u)) continue;
        Tuple base;
        base.reserve(d);
        for (const ColumnRef& attr : entry.attributes) {
          base.push_back(old_universal.ValueAt(u, attr));
        }
        auto it = survivors.try_emplace(std::move(base),
                                        AggregateAccumulator(kind))
                      .first;
        it->second.Add(needs_column ? old_universal.ValueAt(
                                          u, entry.query.agg.column)
                                    : Value::Null());
      }
      for (const auto& [base, acc] : survivors) {
        for (uint32_t mask = 0; mask < num_masks; ++mask) {
          auto it = dirty.find(MaskedCoord(base, mask));
          if (it != dirty.end()) it->second.Merge(acc);
        }
      }
    }

    // Phase 3: emit the per-cell updates.
    for (const auto& [coord, rec] : ancestor_records) {
      auto count_it = entry.counts.find(coord);
      const double old_count =
          count_it == entry.counts.end() ? 0.0 : count_it->second;
      const double new_count = old_count - rec.count;
      if (new_count <= 0.0) {
        entry_patch.erasures.push_back(coord);
        ++patch.cells_patched;
        continue;
      }
      entry_patch.count_updates.emplace_back(coord, new_count);
      auto dirty_it = dirty.find(coord);
      if (dirty_it != dirty.end()) {
        entry_patch.value_updates.emplace_back(
            coord, dirty_it->second.FinishNumeric());
        ++patch.cells_recomputed;
      } else {
        switch (kind) {
          case AggregateKind::kCountStar:
            entry_patch.value_updates.emplace_back(coord, new_count);
            break;
          case AggregateKind::kSum:
            entry_patch.value_updates.emplace_back(
                coord, entry.cube->CellValue(coord) - rec.sum);
            break;
          default:
            break;  // MIN/MAX with surviving extremum: value unchanged.
        }
      }
      ++patch.cells_patched;
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
    DataCube::CellMap* cells = entry.cube->mutable_cells();
    for (auto& [coord, value] : entry_patch.value_updates) {
      (*cells)[coord] = value;
    }
    for (auto& [coord, count] : entry_patch.count_updates) {
      entry.counts[coord] = count;
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
