#ifndef XPLAIN_RELATIONAL_COLUMN_CACHE_H_
#define XPLAIN_RELATIONAL_COLUMN_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "relational/predicate.h"
#include "relational/universal.h"

namespace xplain {

/// One dictionary-encoded universal-relation column: a dense code per
/// universal row plus the dictionary the codes index. Encoded once per
/// engine and shared by pointer across every ColumnCache that needs the
/// column (DESIGN.md §10).
///
/// Thread-safety: thread-compatible — immutable while shared; only
/// CubeWorkspace::CommitDelta rewrites `codes`, under exclusive access.
struct EncodedColumn {
  /// Encodes `column` of `universal`. Codes are assigned in first-
  /// appearance base-row order; the dictionary is deduplicated and
  /// bijective with the values present in the base relation.
  static EncodedColumn Encode(const UniversalRelation& universal,
                              const ColumnRef& column);

  ColumnRef column;
  std::vector<uint32_t> codes;    // [universal row]
  std::vector<Value> dictionary;  // [code]
};

/// A columnar, dictionary-encoded view of selected universal-relation
/// columns, in request order.
///
/// The only input of the cube kernel (DataCube::Compute): the cache holds
/// each needed column — grouping attributes, the aggregated column, filter
/// columns — as a dense uint32 code array plus a per-column dictionary, so
/// group-by keys are packed integers and WHERE clauses are code lookups
/// instead of Value hashing per input row.
///
/// Thread-safety: safe for concurrent const access — the encoded columns
/// it shares are immutable while any request holds them.
class ColumnCache {
 public:
  /// Encodes every column in `columns` of `universal` afresh (see
  /// EncodedColumn::Encode).
  static ColumnCache Build(const UniversalRelation& universal,
                           const std::vector<ColumnRef>& columns);

  /// Assembles a cache from already-encoded columns, shared by pointer.
  /// Every column must cover all rows of `universal`.
  static ColumnCache FromColumns(
      const UniversalRelation& universal,
      std::vector<std::shared_ptr<const EncodedColumn>> columns);

  /// The universal relation the codes index into.
  const UniversalRelation& universal() const { return *universal_; }
  /// The cached columns, in cache order.
  const std::vector<ColumnRef>& columns() const { return columns_; }
  /// Number of cached columns.
  int num_columns() const { return static_cast<int>(columns_.size()); }
  /// Number of encoded rows (equals universal().NumRows()).
  size_t NumRows() const { return num_rows_; }

  /// Dictionary code of column `col` in universal row `row`.
  uint32_t Code(size_t row, int col) const {
    return codes_[col][row];
  }

  /// Decoded value for a column code.
  const Value& Decode(int col, uint32_t code) const {
    return (*dictionaries_[col])[code];
  }

  /// Number of codes in column `col`'s dictionary. Also used as the
  /// reserved "ALL" sentinel code for rolled-up cube coordinates. A
  /// column retained across deltas keeps its dictionary, so it may be a
  /// superset of the live values; every consumer keys by code or decodes
  /// per live row, which is unaffected.
  size_t DictionarySize(int col) const {
    return dictionaries_[col]->size();
  }

  /// Index of `column` within the cache, or -1.
  int FindColumn(const ColumnRef& column) const;

 private:
  const UniversalRelation* universal_ = nullptr;
  std::vector<ColumnRef> columns_;
  size_t num_rows_ = 0;
  std::vector<std::shared_ptr<const EncodedColumn>> encoded_;
  // Raw views into `encoded_`, so Code() costs what a flat array would.
  std::vector<const uint32_t*> codes_;                    // [col][row]
  std::vector<const std::vector<Value>*> dictionaries_;  // [col][code]
};

/// A DNF predicate compiled against a ColumnCache: every atom becomes a
/// per-dictionary-code match table, so row evaluation is a handful of
/// array lookups instead of Value comparisons. Requires every atom's
/// column to be cached.
/// Thread-safety: safe after Compile — Eval only reads.
class CodedFilter {
 public:
  [[nodiscard]] static Result<CodedFilter> Compile(const ColumnCache& cache,
                                     const DnfPredicate& filter);

  bool Eval(const ColumnCache& cache, size_t row) const {
    for (const auto& conjunct : disjuncts_) {
      bool pass = true;
      for (const auto& atom : conjunct) {
        if (!atom.match[cache.Code(row, atom.column_index)]) {
          pass = false;
          break;
        }
      }
      if (pass) return true;
    }
    return false;
  }

  /// The rows of the ascending list `rows` (nullptr = every cached row)
  /// that pass, in list order: the row list DataCube::Compute takes.
  std::vector<uint32_t> EvalRows(const ColumnCache& cache,
                                 const std::vector<uint32_t>* rows) const;

 private:
  struct CodedAtom {
    int column_index = -1;
    std::vector<uint8_t> match;  // indexed by dictionary code
  };
  std::vector<std::vector<CodedAtom>> disjuncts_;
};

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_COLUMN_CACHE_H_
