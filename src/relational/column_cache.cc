#include "relational/column_cache.h"

#include <unordered_map>

#include "util/logging.h"

namespace xplain {

EncodedColumn EncodedColumn::Encode(const UniversalRelation& universal,
                                    const ColumnRef& column) {
  EncodedColumn out;
  out.column = column;
  // Encode at the base-relation level first -- in join workloads the base
  // table is much smaller than U(D), so the Value hashing happens once per
  // base row and the per-universal-row work is an integer gather.
  const Relation& base_rel = universal.db().relation(column.relation);
  std::vector<uint32_t> base_codes(base_rel.NumRows());
  std::unordered_map<Value, uint32_t> code_of;
  for (size_t row = 0; row < base_rel.NumRows(); ++row) {
    const Value& v = base_rel.at(row, column.attribute);
    auto [it, inserted] =
        code_of.emplace(v, static_cast<uint32_t>(out.dictionary.size()));
    if (inserted) out.dictionary.push_back(v);
    base_codes[row] = it->second;
  }
  out.codes.resize(universal.NumRows());
  for (size_t u = 0; u < out.codes.size(); ++u) {
    out.codes[u] = base_codes[universal.BaseRow(u, column.relation)];
  }
  return out;
}

ColumnCache ColumnCache::Build(const UniversalRelation& universal,
                               const std::vector<ColumnRef>& columns) {
  std::vector<std::shared_ptr<const EncodedColumn>> encoded;
  encoded.reserve(columns.size());
  for (const ColumnRef& column : columns) {
    encoded.push_back(std::make_shared<const EncodedColumn>(
        EncodedColumn::Encode(universal, column)));
  }
  return FromColumns(universal, std::move(encoded));
}

ColumnCache ColumnCache::FromColumns(
    const UniversalRelation& universal,
    std::vector<std::shared_ptr<const EncodedColumn>> columns) {
  ColumnCache cache;
  cache.universal_ = &universal;
  cache.num_rows_ = universal.NumRows();
  cache.columns_.reserve(columns.size());
  cache.codes_.reserve(columns.size());
  cache.dictionaries_.reserve(columns.size());
  for (const std::shared_ptr<const EncodedColumn>& column : columns) {
    XPLAIN_CHECK(column->codes.size() == cache.num_rows_)
        << "encoded column covers " << column->codes.size()
        << " rows, universal relation has " << cache.num_rows_;
    cache.columns_.push_back(column->column);
    cache.codes_.push_back(column->codes.data());
    cache.dictionaries_.push_back(&column->dictionary);
  }
  cache.encoded_ = std::move(columns);
  return cache;
}

int ColumnCache::FindColumn(const ColumnRef& column) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == column) return static_cast<int>(c);
  }
  return -1;
}

Result<CodedFilter> CodedFilter::Compile(const ColumnCache& cache,
                                         const DnfPredicate& filter) {
  CodedFilter out;
  out.disjuncts_.reserve(filter.disjuncts().size());
  for (const ConjunctivePredicate& conjunct : filter.disjuncts()) {
    std::vector<CodedAtom> coded;
    coded.reserve(conjunct.atoms().size());
    for (const AtomicPredicate& atom : conjunct.atoms()) {
      int column_index = cache.FindColumn(atom.column);
      if (column_index < 0) {
        return Status::InvalidArgument(
            "filter atom references a column outside the cache");
      }
      CodedAtom coded_atom;
      coded_atom.column_index = column_index;
      size_t dict = cache.DictionarySize(column_index);
      coded_atom.match.resize(dict);
      for (size_t code = 0; code < dict; ++code) {
        coded_atom.match[code] =
            atom.Eval(cache.Decode(column_index, static_cast<uint32_t>(code)))
                ? 1
                : 0;
      }
      coded.push_back(std::move(coded_atom));
    }
    out.disjuncts_.push_back(std::move(coded));
  }
  return out;
}

std::vector<uint32_t> CodedFilter::EvalRows(
    const ColumnCache& cache, const std::vector<uint32_t>* rows) const {
  std::vector<uint32_t> pass;
  const size_t n = rows == nullptr ? cache.NumRows() : rows->size();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t u = rows == nullptr ? static_cast<uint32_t>(i) : (*rows)[i];
    if (Eval(cache, u)) pass.push_back(u);
  }
  return pass;
}

}  // namespace xplain
