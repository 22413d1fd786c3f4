// Determinism contract of the parallel execution layer (DESIGN.md §6):
// on the DBLP workload, table M, the top-K rankings, and full Explain
// reports must be identical whether computed sequentially or sharded
// across 2 or 8 worker threads. COUNT-based questions carry no fp merge
// slack, so the comparison is exact (bitwise on the degree columns).

#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "core/cube_algorithm.h"
#include "core/engine.h"
#include "core/topk.h"
#include "datagen/dblp.h"
#include "relational/parser.h"
#include "relational/universal.h"
#include "util/thread_pool.h"

namespace xplain {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DblpOptions options;
    options.scale = 0.25;
    auto db = datagen::GenerateDblp(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new Database(std::move(db).ValueOrDie());
    auto engine = ExplainEngine::Create(db_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = new ExplainEngine(std::move(engine).ValueOrDie());
    auto question = datagen::MakeDblpBumpQuestion(*db_);
    ASSERT_TRUE(question.ok()) << question.status().ToString();
    question_ = new UserQuestion(std::move(question).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete question_;
    question_ = nullptr;
    delete engine_;
    engine_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static void ExpectBitIdentical(const TableM& a, const TableM& b) {
    ASSERT_EQ(a.NumRows(), b.NumRows());
    for (size_t row = 0; row < a.NumRows(); ++row) {
      EXPECT_EQ(CompareTuples(a.coords[row], b.coords[row]), 0)
          << "row " << row;
    }
    auto same_bits = [](const std::vector<double>& x,
                        const std::vector<double>& y) {
      return x.size() == y.size() &&
             (x.empty() ||
              std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
    };
    EXPECT_TRUE(same_bits(a.mu_interv, b.mu_interv));
    EXPECT_TRUE(same_bits(a.mu_aggr, b.mu_aggr));
    ASSERT_EQ(a.subquery_values.size(), b.subquery_values.size());
    for (size_t j = 0; j < a.subquery_values.size(); ++j) {
      EXPECT_TRUE(same_bits(a.subquery_values[j], b.subquery_values[j]))
          << "subquery " << j;
    }
  }

  static void ExpectSameRanking(const std::vector<RankedExplanation>& a,
                                const std::vector<RankedExplanation>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].m_row, b[i].m_row) << "rank " << i;
      EXPECT_EQ(a[i].degree, b[i].degree) << "rank " << i;
    }
  }

  std::vector<ColumnRef> Attrs() const {
    auto attrs = engine_->ResolveAttributes({"Author.name", "Author.inst"});
    EXPECT_TRUE(attrs.ok());
    return attrs.ValueOrDie();
  }

  static Database* db_;
  static ExplainEngine* engine_;
  static UserQuestion* question_;
};

Database* ParallelDeterminismTest::db_ = nullptr;
ExplainEngine* ParallelDeterminismTest::engine_ = nullptr;
UserQuestion* ParallelDeterminismTest::question_ = nullptr;

TEST_F(ParallelDeterminismTest, TableMMatchesSequentialAcrossPoolSizes) {
  TableMOptions sequential_options;
  auto sequential = ComputeTableM(engine_->universal(), *question_, Attrs(),
                                  sequential_options);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    TableMOptions options;
    options.cube.pool = &pool;
    auto parallel =
        ComputeTableM(engine_->universal(), *question_, Attrs(), options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(sequential.ValueOrDie(), parallel.ValueOrDie());
  }
}

TEST_F(ParallelDeterminismTest, NumericTableMMatchesSequentialAcrossPoolSizes) {
  // SUM/AVG/MIN/MAX run on the same coded kernel as the counts, through
  // their own accumulator; integer sums are exact, so sharding cannot move
  // a bit.
  const std::pair<std::string, std::string> specs[] = {
      {"q1", "sum(Publication.year)"}, {"q2", "avg(Publication.year)"},
      {"q3", "min(Publication.year)"}, {"q4", "max(Publication.year)"}};
  std::vector<AggregateQuery> subqueries;
  for (const auto& [name, agg] : specs) {
    auto spec = ParseAggregate(*db_, agg);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    subqueries.push_back(AggregateQuery{name, *spec});
  }
  auto expr = ParseExpression("(q1 - q2) / (q4 - q3 + 1)",
                              {"q1", "q2", "q3", "q4"});
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  auto query = NumericalQuery::Create(std::move(subqueries), *expr);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const UserQuestion question{std::move(query).ValueOrDie(), Direction::kHigh};
  auto sequential =
      ComputeTableM(engine_->universal(), question, Attrs(), TableMOptions());
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    TableMOptions options;
    options.cube.pool = &pool;
    auto parallel =
        ComputeTableM(engine_->universal(), question, Attrs(), options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(sequential.ValueOrDie(), parallel.ValueOrDie());
  }
}

TEST_F(ParallelDeterminismTest, TopKMatchesSequentialForEveryStrategy) {
  auto table =
      ComputeTableM(engine_->universal(), *question_, Attrs());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const TableM& m = table.ValueOrDie();
  for (MinimalityStrategy strategy :
       {MinimalityStrategy::kNone, MinimalityStrategy::kSelfJoin,
        MinimalityStrategy::kAppend}) {
    for (DegreeKind kind : {DegreeKind::kIntervention, DegreeKind::kAggravation}) {
      for (size_t k : {size_t{1}, size_t{5}, size_t{50}}) {
        auto sequential = TopKExplanations(m, kind, k, strategy, nullptr);
        for (int threads : {2, 8}) {
          ThreadPool pool(threads);
          auto parallel = TopKExplanations(m, kind, k, strategy, &pool);
          ExpectSameRanking(sequential, parallel);
        }
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, ExplainReportsIdenticalAcrossThreadCounts) {
  ExplainOptions options;
  options.top_k = 9;
  options.minimality = MinimalityStrategy::kAppend;
  options.num_threads = 1;
  auto baseline = engine_->Explain(*question_, {"Author.name", "Author.inst"},
                                   options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    auto report = engine_->Explain(*question_, {"Author.name", "Author.inst"},
                                   options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectSameRanking(baseline.ValueOrDie().explanations,
                      report.ValueOrDie().explanations);
    ExpectBitIdentical(baseline.ValueOrDie().table,
                       report.ValueOrDie().table);
  }
}

TEST_F(ParallelDeterminismTest, DefaultThreadCountMatchesSequential) {
  // num_threads = 0 (one worker per core) must agree with the sequential
  // legacy path too — this is what every caller gets by default.
  ExplainOptions sequential_options;
  sequential_options.num_threads = 1;
  auto baseline = engine_->Explain(*question_, {"Author.name", "Author.inst"},
                                   sequential_options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExplainOptions options;
  options.num_threads = 0;
  auto report =
      engine_->Explain(*question_, {"Author.name", "Author.inst"}, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSameRanking(baseline.ValueOrDie().explanations,
                    report.ValueOrDie().explanations);
}

}  // namespace
}  // namespace xplain
