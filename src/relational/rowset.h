#ifndef XPLAIN_RELATIONAL_ROWSET_H_
#define XPLAIN_RELATIONAL_ROWSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace xplain {

/// A set of row positions within one relation, stored as one byte per
/// row plus a running count.
///
/// Used both for interventions (Delta_i, the rows to delete from R_i) and
/// for liveness masks during semijoin reduction.
/// Thread-safety: unsafe — external synchronization for mutation.
class RowSet {
 public:
  RowSet() = default;
  explicit RowSet(size_t num_rows) : bits_(num_rows, 0) {}

  size_t size() const { return bits_.size(); }
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool Test(size_t row) const {
    XPLAIN_DCHECK(row < bits_.size());
    return bits_[row] != 0;
  }

  /// Inserts `row`; returns true if it was newly inserted.
  bool Set(size_t row) {
    XPLAIN_DCHECK(row < bits_.size());
    if (bits_[row]) return false;
    bits_[row] = 1;
    ++count_;
    return true;
  }

  void Clear() {
    std::fill(bits_.begin(), bits_.end(), 0);
    count_ = 0;
  }

  /// Unions `other` into this set; returns the number of newly set rows.
  size_t UnionWith(const RowSet& other) {
    XPLAIN_DCHECK(other.size() == size());
    size_t added = 0;
    for (size_t i = 0; i < bits_.size(); ++i) {
      if (other.bits_[i] && !bits_[i]) {
        bits_[i] = 1;
        ++added;
      }
    }
    count_ += added;
    return added;
  }

  /// True if this set is a subset of `other`.
  bool IsSubsetOf(const RowSet& other) const {
    XPLAIN_DCHECK(other.size() == size());
    for (size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i] && !other.bits_[i]) return false;
    }
    return true;
  }

  bool operator==(const RowSet& other) const {
    return bits_ == other.bits_;
  }

  /// Row positions currently in the set, ascending.
  std::vector<size_t> ToRows() const {
    std::vector<size_t> rows;
    rows.reserve(count_);
    for (size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i]) rows.push_back(i);
    }
    return rows;
  }

 private:
  std::vector<uint8_t> bits_;
  size_t count_ = 0;
};

/// One RowSet per relation of a database, aligned with relation indices.
/// As an intervention this is the paper's Delta = (Delta_1, ..., Delta_k).
using DeltaSet = std::vector<RowSet>;

/// Total number of rows across all components.
inline size_t DeltaCount(const DeltaSet& delta) {
  size_t n = 0;
  for (const RowSet& rs : delta) n += rs.count();
  return n;
}

/// True if every component of `a` is a subset of the matching component of
/// `b`.
inline bool DeltaIsSubsetOf(const DeltaSet& a, const DeltaSet& b) {
  XPLAIN_DCHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].IsSubsetOf(b[i])) return false;
  }
  return true;
}

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_ROWSET_H_
