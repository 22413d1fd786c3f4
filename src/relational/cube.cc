#include "relational/cube.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {

namespace {

struct CodeVecHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t seed = v.size();
    for (uint32_t c : v) {
      seed ^= c + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }
};

/// Count / count-distinct accumulator over dictionary codes.
struct CountAccumulator {
  int64_t count = 0;
  std::unordered_set<uint32_t> distinct;

  void Merge(const CountAccumulator& other) {
    count += other.count;
    distinct.insert(other.distinct.begin(), other.distinct.end());
  }
};

/// Value::Compare's order on doubles (NaN sorts last), so MIN/MAX pick
/// what AggregateAccumulator picks.
bool Before(double a, double b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

/// SUM/AVG/MIN/MAX accumulator over the non-NULL measured values.
struct NumericAccumulator {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void Add(double v) {
    sum += v;
    if (count == 0 || Before(v, min)) min = v;
    if (count == 0 || Before(max, v)) max = v;
    ++count;
  }

  void Merge(const NumericAccumulator& other) {
    sum += other.sum;
    if (other.count == 0) return;
    if (count == 0 || Before(other.min, min)) min = other.min;
    if (count == 0 || Before(max, other.max)) max = other.max;
    count += other.count;
  }

  /// AggregateAccumulator::FinishNumeric: a cell with no non-NULL input
  /// reads 0.
  double Finish(AggregateKind kind) const {
    if (count == 0) return 0.0;
    switch (kind) {
      case AggregateKind::kAvg:
        return sum / static_cast<double>(count);
      case AggregateKind::kMin:
        return min;
      case AggregateKind::kMax:
        return max;
      default:
        return sum;
    }
  }
};

/// Two-phase cube over dictionary codes, generic in the accumulator:
/// `add_input(Acc*, row)` folds one listed row into its base cell and
/// `finish(const Acc&)` yields the cell value.
template <typename Acc, typename AddInput, typename Finish>
Result<DataCube::CellMap> CodedCubeCells(const ColumnCache& cache,
                                         const std::vector<int>& attr_indices,
                                         const std::vector<uint32_t>* rows,
                                         ThreadPool* pool,
                                         const AddInput& add_input,
                                         const Finish& finish) {
  const int d = static_cast<int>(attr_indices.size());
  // Flag the dictionary codes that decode to NULL. Only base cells are
  // checked against them: a NULL that no listed row carries (or that a
  // retained dictionary keeps for a deleted row) is harmless.
  std::vector<std::vector<uint8_t>> null_code(d);
  bool any_null = false;
  for (int i = 0; i < d; ++i) {
    const size_t dict = cache.DictionarySize(attr_indices[i]);
    null_code[i].assign(dict, 0);
    for (size_t code = 0; code < dict; ++code) {
      if (cache.Decode(attr_indices[i], static_cast<uint32_t>(code))
              .is_null()) {
        null_code[i][code] = 1;
        any_null = true;
      }
    }
  }
  auto null_error = [&](int i) {
    // A data NULL would be indistinguishable from the lattice's don't-care
    // marker (SQL's GROUPING() ambiguity); the paper's candidate
    // attributes are recoded non-NULL categories.
    return Status::InvalidArgument(
        "cube attribute " +
        cache.universal().db().ColumnName(cache.columns()[attr_indices[i]]) +
        " contains NULL; recode NULLs before cubing");
  };

  // Per-attribute bit fields; code dict_size is reserved as the "ALL"
  // marker for the rollup, so a field covers dict_size + 1 values. When
  // the packed key fits in 64 bits the group-by runs allocation-free on
  // uint64 keys; otherwise fall back to code vectors.
  std::vector<int> shifts(d, 0);
  std::vector<uint64_t> field(d, 0);
  std::vector<uint32_t> all_codes(d);
  int total_bits = 0;
  for (int i = 0; i < d; ++i) {
    all_codes[i] =
        static_cast<uint32_t>(cache.DictionarySize(attr_indices[i]));
    int bits = 1;
    while ((uint64_t{1} << bits) < uint64_t{all_codes[i]} + 1) ++bits;
    shifts[i] = total_bits;
    field[i] = (uint64_t{1} << bits) - 1;
    total_bits += bits;
  }
  const size_t n = rows == nullptr ? cache.NumRows() : rows->size();
  auto row_at = [rows](size_t i) -> size_t {
    return rows == nullptr ? i : (*rows)[i];
  };
  const uint32_t num_masks = 1u << d;
  DataCube::CellMap cells;

  if (total_bits <= 64) {
    // Phase 1 shards the row scan into thread-local maps (the merge is
    // exact: every accumulator is mergeable, the same cell-additivity that
    // justifies the cube degrees in §4); phase 2 shards the rollup by
    // mask, which yields disjoint output cells because the reserved ALL
    // code marks exactly the masked-out attribute fields.
    const int shards =
        pool == nullptr ? 1 : std::max(pool->num_threads(), 1);
    using BaseMap = std::unordered_map<uint64_t, Acc>;
    std::vector<BaseMap> base_locals(static_cast<size_t>(shards));
    XPLAIN_RETURN_IF_ERROR(ParallelShards(
        pool, n, [&](int shard, size_t begin, size_t end) {
          XPLAIN_TRACE_SPAN("cube.base_shard");
          BaseMap& local = base_locals[static_cast<size_t>(shard)];
          for (size_t r = begin; r < end; ++r) {
            const size_t u = row_at(r);
            uint64_t key = 0;
            for (int i = 0; i < d; ++i) {
              key |= static_cast<uint64_t>(cache.Code(u, attr_indices[i]))
                     << shifts[i];
            }
            add_input(&local[key], u);
          }
          return Status::OK();
        }));
    // Merge in shard order so the combined map is reproducible for a
    // fixed thread count.
    TraceSpan base_merge_span("cube.base_merge");
    BaseMap base = std::move(base_locals[0]);
    for (size_t s = 1; s < base_locals.size(); ++s) {
      for (const auto& [key, acc] : base_locals[s]) base[key].Merge(acc);
    }
    base_merge_span.set_arg(static_cast<int64_t>(base.size()));
    base_merge_span.End();
    XPLAIN_COUNTER_ADD("cube.base_cells", static_cast<int64_t>(base.size()));
    if (any_null) {
      for (const auto& [key, acc] : base) {
        for (int i = 0; i < d; ++i) {
          if (null_code[i][(key >> shifts[i]) & field[i]]) {
            return null_error(i);
          }
        }
      }
    }

    // Precompute, per mask, the bits to clear and the ALL pattern to set.
    std::vector<uint64_t> clear_bits(num_masks, 0), set_all(num_masks, 0);
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      for (int i = 0; i < d; ++i) {
        if (!(mask & (1u << i))) {
          clear_bits[mask] |= field[i] << shifts[i];
          set_all[mask] |= static_cast<uint64_t>(all_codes[i]) << shifts[i];
        }
      }
    }
    std::vector<BaseMap> rolled_locals(static_cast<size_t>(shards));
    XPLAIN_RETURN_IF_ERROR(ParallelShards(
        pool, num_masks, [&](int shard, size_t mask_begin, size_t mask_end) {
          XPLAIN_TRACE_SPAN("cube.rollup_shard");
          BaseMap& rolled = rolled_locals[static_cast<size_t>(shard)];
          rolled.reserve(base.size());
          for (const auto& [full_key, acc] : base) {
            for (size_t mask = mask_begin; mask < mask_end; ++mask) {
              uint64_t cell =
                  (full_key & ~clear_bits[mask]) | set_all[mask];
              rolled[cell].Merge(acc);
            }
          }
          return Status::OK();
        }));
    size_t total_cells = 0;
    for (const BaseMap& rolled : rolled_locals) total_cells += rolled.size();
    cells.reserve(total_cells);
    for (const BaseMap& rolled : rolled_locals) {
      for (const auto& [cell_key, acc] : rolled) {
        Tuple cell(d);
        for (int i = 0; i < d; ++i) {
          const uint32_t code =
              static_cast<uint32_t>((cell_key >> shifts[i]) & field[i]);
          cell[i] = code == all_codes[i]
                        ? Value::Null()
                        : cache.Decode(attr_indices[i], code);
        }
        cells.emplace(std::move(cell), finish(acc));
      }
    }
    XPLAIN_COUNTER_ADD("cube.cells", static_cast<int64_t>(cells.size()));
    return cells;
  }

  // General path: code-vector keys (> 64 bits of packed codes; only hit
  // far beyond the paper's workloads). Kept sequential: the packed path
  // above is the hot one, and a pool here would complicate the overflow
  // fallback for no measured benefit.
  std::unordered_map<std::vector<uint32_t>, Acc, CodeVecHash> base;
  std::vector<uint32_t> key(d);
  for (size_t r = 0; r < n; ++r) {
    const size_t u = row_at(r);
    for (int i = 0; i < d; ++i) {
      key[i] = cache.Code(u, attr_indices[i]);
    }
    add_input(&base[key], u);
  }
  if (any_null) {
    for (const auto& [codes, acc] : base) {
      for (int i = 0; i < d; ++i) {
        if (null_code[i][codes[i]]) return null_error(i);
      }
    }
  }
  constexpr uint32_t kNoValue = 0xffffffffu;
  std::unordered_map<std::vector<uint32_t>, Acc, CodeVecHash> rolled;
  rolled.reserve(base.size() * 2);
  for (const auto& [full_key, acc] : base) {
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      std::vector<uint32_t> cell(d);
      for (int i = 0; i < d; ++i) {
        cell[i] = (mask & (1u << i)) ? full_key[i] : kNoValue;
      }
      rolled[std::move(cell)].Merge(acc);
    }
  }
  cells.reserve(rolled.size());
  for (const auto& [cell_codes, acc] : rolled) {
    Tuple cell(d);
    for (int i = 0; i < d; ++i) {
      cell[i] = cell_codes[i] == kNoValue
                    ? Value::Null()
                    : cache.Decode(attr_indices[i], cell_codes[i]);
    }
    cells.emplace(std::move(cell), finish(acc));
  }
  return cells;
}

}  // namespace

Result<DataCube> DataCube::Compute(const ColumnCache& cache,
                                   const std::vector<int>& attr_indices,
                                   AggregateKind kind, int measure_index,
                                   const std::vector<uint32_t>* rows,
                                   const CubeOptions& options) {
  XPLAIN_TRACE_SPAN("cube.compute");
  const int d = static_cast<int>(attr_indices.size());
  if (d > options.max_attributes) {
    return Status::InvalidArgument(
        "cube over " + std::to_string(d) + " attributes exceeds the cap of " +
        std::to_string(options.max_attributes));
  }
  for (int idx : attr_indices) {
    if (idx < 0 || idx >= cache.num_columns()) {
      return Status::InvalidArgument("grouping column is not in the cache");
    }
  }
  if (kind != AggregateKind::kCountStar &&
      (measure_index < 0 || measure_index >= cache.num_columns())) {
    return Status::InvalidArgument("aggregated column is not in the cache");
  }

  DataCube cube;
  cube.attributes_.reserve(d);
  for (int idx : attr_indices) {
    cube.attributes_.push_back(cache.columns()[idx]);
  }
  if (kind == AggregateKind::kCountStar ||
      kind == AggregateKind::kCountDistinct) {
    const bool is_distinct = kind == AggregateKind::kCountDistinct;
    XPLAIN_ASSIGN_OR_RETURN(
        cube.cells_,
        CodedCubeCells<CountAccumulator>(
            cache, attr_indices, rows, options.pool,
            [&](CountAccumulator* acc, size_t u) {
              if (is_distinct) {
                uint32_t code = cache.Code(u, measure_index);
                if (!cache.Decode(measure_index, code).is_null()) {
                  acc->distinct.insert(code);
                }
              } else {
                ++acc->count;
              }
            },
            [&](const CountAccumulator& acc) {
              return is_distinct ? static_cast<double>(acc.distinct.size())
                                 : static_cast<double>(acc.count);
            }));
    return cube;
  }

  // SUM/AVG/MIN/MAX read the measured column as doubles, decoding each
  // listed row's code.
  const ColumnRef& measured = cache.columns()[measure_index];
  if (!IsNumeric(cache.universal().db().ColumnType(measured))) {
    return Status::InvalidArgument(
        std::string(AggregateKindToString(kind)) +
        " needs a numeric column, got " +
        cache.universal().db().ColumnName(measured));
  }
  XPLAIN_ASSIGN_OR_RETURN(
      cube.cells_,
      CodedCubeCells<NumericAccumulator>(
          cache, attr_indices, rows, options.pool,
          [&](NumericAccumulator* acc, size_t u) {
            const Value& v =
                cache.Decode(measure_index, cache.Code(u, measure_index));
            if (!v.is_null()) acc->Add(v.AsNumeric());
          },
          [&](const NumericAccumulator& acc) { return acc.Finish(kind); }));
  return cube;
}

DataCube DataCube::FromCells(std::vector<ColumnRef> attributes,
                             CellMap cells) {
  DataCube cube;
  cube.attributes_ = std::move(attributes);
  cube.cells_ = std::move(cells);
  return cube;
}

double DataCube::CellValue(const Tuple& coords) const {
  auto it = cells_.find(coords);
  return it == cells_.end() ? 0.0 : it->second;
}

double DataCube::GrandTotal() const {
  return CellValue(Tuple(attributes_.size(), Value::Null()));
}

std::string DataCube::ToString(const Database& db, size_t max_cells) const {
  std::string out = "cube over (";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += db.ColumnName(attributes_[i]);
  }
  out += "): " + std::to_string(cells_.size()) + " cells";
  // Deterministic rendering: sort coordinates.
  std::vector<const Tuple*> keys;
  keys.reserve(cells_.size());
  for (const auto& [coords, value] : cells_) keys.push_back(&coords);
  std::sort(keys.begin(), keys.end(), [](const Tuple* a, const Tuple* b) {
    return CompareTuples(*a, *b) < 0;
  });
  size_t shown = std::min(max_cells, keys.size());
  for (size_t i = 0; i < shown; ++i) {
    out += "\n  " + TupleToString(*keys[i]) + " -> " +
           std::to_string(cells_.at(*keys[i]));
  }
  if (shown < keys.size()) out += "\n  ...";
  return out;
}

Result<CubeJoinResult> FullOuterJoinCubes(
    const std::vector<const DataCube*>& cubes) {
  TraceSpan span("cube.full_outer_join");
  if (cubes.empty()) {
    return Status::InvalidArgument(
        "FullOuterJoinCubes needs at least one cube operand");
  }
  for (size_t j = 0; j < cubes.size(); ++j) {
    const DataCube* cube = cubes[j];
    if (cube == nullptr) {
      return Status::InvalidArgument("cube operand " + std::to_string(j) +
                                     " is null");
    }
    if (!(cube->attributes() == cubes[0]->attributes())) {
      return Status::InvalidArgument(
          "cube operand " + std::to_string(j) + " groups by " +
          std::to_string(cube->attributes().size()) +
          " attribute(s) that differ from operand 0's " +
          std::to_string(cubes[0]->attributes().size()) +
          "; cubes must share one attribute list to be joined");
    }
  }
  CubeJoinResult out;
  out.attributes = cubes[0]->attributes();
  // Collect the union of coordinates. (The paper replaces NULL with a dummy
  // value to make the SQL equi-join work; our Tuple hash treats NULL as an
  // ordinary groupable value, which is equivalent.)
  std::unordered_map<Tuple, size_t, TupleHash, TupleEq> row_of;
  for (const DataCube* cube : cubes) {
    for (const auto& [coords, value] : cube->cells()) {
      if (row_of.emplace(coords, out.coords.size()).second) {
        out.coords.push_back(coords);
      }
    }
  }
  // Canonical row order: the union above inherits the cubes' hash-map
  // iteration order, which varies with how the cells were inserted (e.g.
  // across num_threads settings). Sorting pins table M — and everything
  // downstream of it — to a single representation (DESIGN.md §6).
  std::sort(out.coords.begin(), out.coords.end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
  for (size_t row = 0; row < out.coords.size(); ++row) {
    row_of[out.coords[row]] = row;
  }
  out.values.assign(cubes.size(), std::vector<double>(out.coords.size(), 0.0));
  out.present.assign(cubes.size(),
                     std::vector<uint8_t>(out.coords.size(), 0));
  for (size_t j = 0; j < cubes.size(); ++j) {
    for (const auto& [coords, value] : cubes[j]->cells()) {
      const size_t row = row_of[coords];
      out.values[j][row] = value;
      out.present[j][row] = 1;
    }
  }
  span.set_arg(static_cast<int64_t>(out.coords.size()));
  XPLAIN_COUNTER_ADD("cube.joined_rows",
                     static_cast<int64_t>(out.coords.size()));
  return out;
}

}  // namespace xplain
