#ifndef XBENCH_QUESTIONS_H_
#define XBENCH_QUESTIONS_H_

// Seeded request generators. A request is kept as its "body": the wire
// line without the leading {"id":N, member, so the same question can be
// sent under many ids. The same seed always yields the same bodies in the
// same order.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "datagen/rng.h"

namespace xbench {

/// The wire line {"id":<id>,<body>.
std::string MakeLine(uint64_t id, const std::string& body);

/// The body of response or request `line`: everything after its leading
/// {"id":N, member (the whole line when it has none).
std::string BodyOf(const std::string& line);

/// What sets a natality question's cost: its family (0 = Q_Race,
/// 1 = Q'_Race, 2 = Q_Marital), whether the filter has an extra
/// common-value conjunct, and its number of candidate attributes (2-5).
struct NatalityShape {
  int family = 0;
  bool extra = false;
  size_t num_attrs = 2;
};

/// An endless stream of distinct additive count(*) ratio questions over
/// natality Birth. Shapes cycle with period 12 (see questions.cc); the
/// seed picks filter values (race, marital order, the extra conjunct),
/// the candidate attributes from the Birth columns outside the filter,
/// and EXPLAIN or TOPK with equal odds. Never repeats a body.
class NatalityQuestionStream {
 public:
  explicit NatalityQuestionStream(uint64_t seed);

  std::string Next();

 private:
  std::string Draw(const NatalityShape& shape);

  xplain::Rng rng_;
  std::unordered_set<std::string> seen_;
};

/// The natality_rw pool: `questions` distinct seeded natality questions,
/// each asked as EXPLAIN and TOPK with top_k 3, 5, 7 and 10 (8 bodies per
/// question). Question i has the stream's i-th shape, so the pool's
/// recompute cost after a delta does not depend on the seed. Few distinct
/// questions keep their cubes and column caches within the engine
/// workspace's bounds. Bodies are ordered variant-major (every question's
/// EXPLAIN top_k 3 first, ...), so under Zipf draws the share of each
/// response shape does not depend on the seed.
std::vector<std::string> NatalityVariantPool(uint64_t seed, size_t questions);

/// `n` distinct non-additive count(*) venue-ratio questions over DBLP:
/// venue pair x year window x candidate attributes (Author.name, plus one
/// of Author.inst/dom/country half the time), EXPLAIN
/// or TOPK with equal odds, in generation order (rank 0 is the most popular
/// under Zipf draws).
std::vector<std::string> DblpPool(uint64_t seed, size_t n);

/// `count` distinct row positions in [0, num_rows), ascending.
std::vector<uint64_t> DeltaRowPositions(xplain::Rng* rng, uint64_t num_rows,
                                        size_t count);

/// Rows-form DELTA body removing `rows` of relation Birth.
std::string NatalityDeltaBody(const std::vector<uint64_t>& rows);

}  // namespace xbench

#endif  // XBENCH_QUESTIONS_H_
