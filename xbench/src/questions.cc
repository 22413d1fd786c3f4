#include "questions.h"

#include <algorithm>
#include <utility>

namespace xbench {

namespace {

/// Birth columns a question may use as candidate attributes (schema order;
/// `id` and `ap` are never candidates).
const char* const kBirthAttributes[] = {
    "race",     "marital",   "age", "tobacco",      "prenatal",
    "education", "sex",      "hypertension", "diabetes"};

const char* const kRaces[] = {"White", "Black", "AmInd", "Asian"};

/// Extra filter conjuncts: (column, value) pairs each held by at least
/// about a tenth of the rows, so no subquery of any family is empty.
const std::pair<const char*, const char*> kCommonValues[] = {
    {"sex", "M"},           {"sex", "F"},
    {"tobacco", "non smoking"}, {"hypertension", "no"},
    {"diabetes", "no"},     {"prenatal", "1st trim"},
    {"age", "20-24"},       {"age", "25-29"},
    {"age", "30-34"},       {"education", "12yrs"},
    {"education", "13-15yrs"}, {"education", ">=16yrs"}};

const char* const kVenues[] = {"SIGMOD", "VLDB", "PODS"};
const char* const kOtherAuthorAttributes[] = {"Author.inst", "Author.dom",
                                              "Author.country"};

template <typename T, size_t N>
const T& Pick(xplain::Rng* rng, const T (&items)[N]) {
  return items[rng->UniformInt(0, static_cast<int64_t>(N) - 1)];
}

void AppendQuoted(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

/// One count(*) subquery member.
std::string Subquery(const std::string& name, const std::string& where) {
  std::string out = "{\"name\":\"" + name + "\",\"agg\":\"count(*)\",\"where\":";
  AppendQuoted(where, &out);
  out += "}";
  return out;
}

/// The body of an EXPLAIN/TOPK request.
std::string QuestionBody(bool topk, const std::vector<std::string>& wheres,
                         const std::string& expr, bool high,
                         const std::vector<std::string>& attrs, int top_k) {
  std::string out = topk ? "\"op\":\"TOPK\"" : "\"op\":\"EXPLAIN\"";
  out += ",\"question\":{\"subqueries\":[";
  for (size_t j = 0; j < wheres.size(); ++j) {
    if (j > 0) out += ",";
    out += Subquery("q" + std::to_string(j + 1), wheres[j]);
  }
  out += "],\"expr\":";
  AppendQuoted(expr, &out);
  out += high ? ",\"direction\":\"high\"}" : ",\"direction\":\"low\"}";
  out += ",\"attrs\":[";
  for (size_t a = 0; a < attrs.size(); ++a) {
    if (a > 0) out += ",";
    AppendQuoted(attrs[a], &out);
  }
  out += "],\"options\":{\"top_k\":" + std::to_string(top_k) + "}}";
  return out;
}

/// `count` distinct entries of `candidates`, kept in their given order.
std::vector<std::string> Subset(xplain::Rng* rng,
                                const std::vector<std::string>& candidates,
                                size_t count) {
  std::vector<size_t> index(candidates.size());
  for (size_t i = 0; i < index.size(); ++i) index[i] = i;
  for (size_t i = 0; i < count; ++i) {
    const size_t j = static_cast<size_t>(rng->UniformInt(
        static_cast<int64_t>(i), static_cast<int64_t>(index.size()) - 1));
    std::swap(index[i], index[j]);
  }
  index.resize(count);
  std::sort(index.begin(), index.end());
  std::vector<std::string> out;
  for (size_t i : index) out.push_back(candidates[i]);
  return out;
}

/// A natality ratio question without its op and top_k.
struct NatalityQuestion {
  std::vector<std::string> wheres;
  std::string expr;
  bool high = true;
  std::vector<std::string> attrs;
};


/// The shape of question `i` of a sequence. Every 12 consecutive questions
/// hold each family 4 times, each attribute count 3 times and the extra
/// conjunct 6 times, so a run's cost mix does not depend on the seed.
NatalityShape ShapeAt(size_t i) {
  NatalityShape shape;
  shape.family = static_cast<int>(i % 3);
  shape.extra = (i / 3) % 2 == 1;
  shape.num_attrs = 2 + i % 4;
  return shape;
}

/// A question of `shape` with seeded filter values and candidate
/// attributes drawn from the Birth columns outside the filter.
NatalityQuestion DrawNatalityQuestion(xplain::Rng* rng,
                                      const NatalityShape& shape) {
  const int family = shape.family;
  std::vector<std::string> filter_columns = {"ap"};
  std::vector<std::pair<std::string, std::string>> groups;  // (col, value)
  NatalityQuestion q;
  if (family == 0) {
    groups.emplace_back("race", Pick(rng, kRaces));
    filter_columns.push_back("race");
    q.expr = "q1 / q2";
  } else if (family == 1) {
    const std::string r1 = Pick(rng, kRaces);
    std::string r2 = r1;
    while (r2 == r1) r2 = Pick(rng, kRaces);
    groups.emplace_back("race", r1);
    groups.emplace_back("race", r2);
    filter_columns.push_back("race");
    q.expr = "(q1 / q2) / (q3 / q4)";
  } else {
    const bool married_first = rng->Bernoulli(0.5);
    groups.emplace_back("marital", married_first ? "married" : "unmarried");
    groups.emplace_back("marital", married_first ? "unmarried" : "married");
    filter_columns.push_back("marital");
    q.expr = "(q1 / q2) / (q3 / q4)";
  }
  std::string extra;
  if (shape.extra) {
    const auto& [column, value] = Pick(rng, kCommonValues);
    extra = std::string(" AND Birth.") + column + " = '" + value + "'";
    filter_columns.push_back(column);
  }
  for (const auto& [column, value] : groups) {
    for (const char* ap : {"good", "poor"}) {
      q.wheres.push_back(std::string("Birth.ap = '") + ap + "' AND Birth." +
                         column + " = '" + value + "'" + extra);
    }
  }
  std::vector<std::string> candidates;
  for (const char* attr : kBirthAttributes) {
    if (std::find(filter_columns.begin(), filter_columns.end(), attr) ==
        filter_columns.end()) {
      candidates.push_back(std::string("Birth.") + attr);
    }
  }
  q.attrs = Subset(rng, candidates, shape.num_attrs);
  q.high = rng->Bernoulli(0.75);
  return q;
}

}  // namespace

std::string MakeLine(uint64_t id, const std::string& body) {
  return "{\"id\":" + std::to_string(id) + "," + body;
}

std::string BodyOf(const std::string& line) {
  if (line.rfind("{\"id\":", 0) != 0) return line;
  const size_t comma = line.find(',');
  return comma == std::string::npos ? line : line.substr(comma + 1);
}

NatalityQuestionStream::NatalityQuestionStream(uint64_t seed)
    : rng_(seed ^ 0x6e6174616c697479ULL) {}

std::string NatalityQuestionStream::Next() {
  const NatalityShape shape = ShapeAt(seen_.size());
  for (;;) {
    std::string body = Draw(shape);
    if (seen_.insert(body).second) return body;
  }
}

std::string NatalityQuestionStream::Draw(const NatalityShape& shape) {
  const NatalityQuestion q = DrawNatalityQuestion(&rng_, shape);
  const bool topk = rng_.Bernoulli(0.5);
  const int top_k = static_cast<int>(rng_.UniformInt(3, 10));
  return QuestionBody(topk, q.wheres, q.expr, q.high, q.attrs, top_k);
}

std::vector<std::string> NatalityVariantPool(uint64_t seed, size_t questions) {
  xplain::Rng rng(seed ^ 0x7277706f6f6cULL);
  std::unordered_set<std::string> seen;
  std::vector<NatalityQuestion> drawn;
  while (drawn.size() < questions) {
    NatalityQuestion q = DrawNatalityQuestion(&rng, ShapeAt(drawn.size()));
    if (seen.insert(QuestionBody(false, q.wheres, q.expr, q.high, q.attrs, 0))
            .second) {
      drawn.push_back(std::move(q));
    }
  }
  std::vector<std::string> pool;
  for (bool topk : {false, true}) {
    for (int top_k : {3, 5, 7, 10}) {
      for (const NatalityQuestion& q : drawn) {
        pool.push_back(
            QuestionBody(topk, q.wheres, q.expr, q.high, q.attrs, top_k));
      }
    }
  }
  return pool;
}

std::vector<std::string> DblpPool(uint64_t seed, size_t n) {
  xplain::Rng rng(seed ^ 0x64626c70ULL);
  std::unordered_set<std::string> seen;
  std::vector<std::string> pool;
  pool.reserve(n);
  while (pool.size() < n) {
    const std::string v1 = Pick(&rng, kVenues);
    std::string v2 = v1;
    while (v2 == v1) v2 = Pick(&rng, kVenues);
    const int width = 2 * static_cast<int>(rng.UniformInt(1, 3));
    const int y0 = static_cast<int>(rng.UniformInt(1990, 2011 - width));
    const std::string window = " AND Publication.year >= " +
                               std::to_string(y0) +
                               " AND Publication.year <= " +
                               std::to_string(y0 + width);
    const std::vector<std::string> wheres = {
        "Publication.venue = '" + v1 + "'" + window,
        "Publication.venue = '" + v2 + "'" + window};
    // Author.name always, so table M has enough cells for a full
    // exact-rescore pool and every question costs about the same; one more
    // author attribute half the time.
    std::vector<std::string> attrs = {"Author.name"};
    if (rng.Bernoulli(0.5)) attrs.push_back(Pick(&rng, kOtherAuthorAttributes));
    const bool topk = rng.Bernoulli(0.5);
    const bool high = rng.Bernoulli(0.5);
    const int top_k = static_cast<int>(rng.UniformInt(3, 8));
    std::string body =
        QuestionBody(topk, wheres, "q1 / (q2 + 1)", high, attrs, top_k);
    if (seen.insert(body).second) pool.push_back(std::move(body));
  }
  return pool;
}

std::vector<uint64_t> DeltaRowPositions(xplain::Rng* rng, uint64_t num_rows,
                                        size_t count) {
  count = std::min<uint64_t>(count, num_rows);
  std::unordered_set<uint64_t> chosen;
  while (chosen.size() < count) {
    chosen.insert(static_cast<uint64_t>(
        rng->UniformInt(0, static_cast<int64_t>(num_rows) - 1)));
  }
  std::vector<uint64_t> rows(chosen.begin(), chosen.end());
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string NatalityDeltaBody(const std::vector<uint64_t>& rows) {
  std::string out = "\"op\":\"DELTA\",\"relation\":\"Birth\",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(rows[i]);
  }
  out += "]}";
  return out;
}

}  // namespace xbench
