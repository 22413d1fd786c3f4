#include "cli/cli.h"

#include <filesystem>
#include <sstream>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/xplain_cli_test";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Runs the CLI, asserting the expected exit code; returns stdout.
  std::string Run(const std::vector<std::string>& args, int expected_code) {
    std::ostringstream out, err;
    int code = cli::RunCli(args, out, err);
    EXPECT_EQ(code, expected_code)
        << "stdout: " << out.str() << "\nstderr: " << err.str();
    return out.str();
  }

  std::string dir_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  std::string help = Run({"help"}, 0);
  EXPECT_NE(help.find("usage:"), std::string::npos);
  Run({}, 1);
  Run({"frobnicate"}, 1);
}

TEST_F(CliTest, GenSchemaQueryFlow) {
  std::string gen = Run({"gen", "running-example", dir_}, 0);
  EXPECT_NE(gen.find("12 rows"), std::string::npos);

  std::string schema = Run({"schema", dir_}, 0);
  EXPECT_NE(schema.find("Authored.pubid <-> Publication.pubid"),
            std::string::npos);
  EXPECT_NE(schema.find("static convergence bound: 4"), std::string::npos);

  std::string query = Run({"query", dir_, "--agg", "count(*)"}, 0);
  EXPECT_NE(query.find("count(*) = 6"), std::string::npos);

  std::string filtered =
      Run({"query", dir_, "--agg", "count(distinct Publication.pubid)",
           "--where", "Author.dom = 'com'"},
          0);
  EXPECT_NE(filtered.find("= 3"), std::string::npos);
}

TEST_F(CliTest, InterveneShowsExample28) {
  Run({"gen", "running-example", dir_}, 0);
  std::string out = Run({"intervene", dir_, "--phi",
                         "Author.name = 'JG' AND Publication.year = 2001"},
                        0);
  EXPECT_NE(out.find("3 of 12 tuples"), std::string::npos);
  EXPECT_NE(out.find("Delta_Author: 0 tuples"), std::string::npos);
  EXPECT_NE(out.find("Delta_Publication: 1 tuples"), std::string::npos);
  EXPECT_NE(out.find("closed=yes semijoin_reduced=yes phi_free=yes"),
            std::string::npos);
}

TEST_F(CliTest, AskRanksExplanations) {
  Run({"gen", "running-example", dir_}, 0);
  std::string out = Run(
      {"ask", dir_, "--subquery",
       "q1|count(distinct Publication.pubid)|Publication.venue = 'SIGMOD'",
       "--subquery",
       "q2|count(distinct Publication.pubid)|Publication.venue = 'VLDB'",
       "--expr", "q1 / q2", "--direction", "high", "--attrs",
       "Author.name,Publication.year", "--topk", "2"},
      0);
  EXPECT_NE(out.find("[Publication.year = 2001]"), std::string::npos);
  EXPECT_NE(out.find("[Author.name = 'RR']"), std::string::npos);
  EXPECT_NE(out.find("cell-additive"), std::string::npos);
}

TEST_F(CliTest, AskSupportsAggravationAndNaive) {
  Run({"gen", "running-example", dir_}, 0);
  std::string aggr = Run(
      {"ask", dir_, "--subquery",
       "q1|count(distinct Publication.pubid)|Publication.venue = 'SIGMOD'",
       "--subquery",
       "q2|count(distinct Publication.pubid)|Publication.venue = 'VLDB'",
       "--expr", "q1 / q2", "--attrs", "Author.name", "--degree", "aggr",
       "--minimality", "selfjoin", "--naive"},
      0);
  EXPECT_NE(aggr.find("aggravation"), std::string::npos);
  EXPECT_NE(aggr.find("naive"), std::string::npos);
}

TEST_F(CliTest, AskHybridDegree) {
  Run({"gen", "running-example", dir_}, 0);
  std::string out = Run(
      {"ask", dir_, "--subquery", "q1|count(*)|Author.dom = 'com'",
       "--subquery", "q2|count(*)|Author.dom = 'edu'", "--expr", "q1 / q2",
       "--attrs", "Author.name", "--degree", "hybrid"},
      0);
  EXPECT_NE(out.find("hybrid"), std::string::npos);
  Run({"ask", dir_, "--subquery", "q1|count(*)|", "--expr", "q1", "--attrs",
       "Author.name", "--degree", "bogus"},
      1);
}

TEST_F(CliTest, GenDblpAndNatality) {
  Run({"gen", "dblp", dir_ + "/dblp", "--scale", "0.1"}, 0);
  std::string schema = Run({"schema", dir_ + "/dblp"}, 0);
  EXPECT_NE(schema.find("back-and-forth-keys=1"), std::string::npos);

  Run({"gen", "natality", dir_ + "/nat", "--rows", "500"}, 0);
  std::string count = Run({"query", dir_ + "/nat", "--agg", "count(*)"}, 0);
  EXPECT_NE(count.find("= 500"), std::string::npos);
}

TEST_F(CliTest, FlattenTransform) {
  Run({"gen", "running-example", dir_}, 0);
  std::string out =
      Run({"flatten", dir_, dir_ + "/flat", "--fanout", "2"}, 0);
  EXPECT_NE(out.find("no back-and-forth keys remain"), std::string::npos);
  std::string schema = Run({"schema", dir_ + "/flat"}, 0);
  EXPECT_NE(schema.find("Publication_flat"), std::string::npos);
  EXPECT_NE(schema.find("back-and-forth-keys=0"), std::string::npos);
  // Fanout too small for 2-author papers.
  Run({"flatten", dir_, dir_ + "/flat1", "--fanout", "1"}, 1);
  Run({"flatten", dir_}, 1);
}

TEST_F(CliTest, ErrorPaths) {
  Run({"gen", "nonsense", dir_}, 1);
  Run({"gen", "natality"}, 1);                       // missing dir
  Run({"schema", "/nonexistent/nowhere"}, 1);        // unreadable
  Run({"gen", "running-example", dir_}, 0);
  Run({"query", dir_}, 1);                           // missing --agg
  Run({"query", dir_, "--agg", "median(x)"}, 1);     // bad aggregate
  Run({"intervene", dir_, "--phi", "Nope.x = 1"}, 1);
  Run({"ask", dir_, "--expr", "q1"}, 1);             // missing subqueries
  Run({"ask", dir_, "--subquery", "q1-count-missing-pipes", "--expr", "q1",
       "--attrs", "Author.name"},
      1);
  Run({"query", dir_, "--agg"}, 1);                  // flag without value
  Run({"ask", dir_, "--subquery", "q1|count(*)|", "--expr", "q1", "--attrs",
       "Author.name", "--direction", "sideways"},
      1);
}

TEST_F(CliTest, NonNumericMinMaxQueriesButDoesNotAsk) {
  Run({"gen", "running-example", dir_}, 0);
  // A plain query may ask for the largest string ...
  const std::string largest =
      Run({"query", dir_, "--agg", "max(Author.name)"}, 0);
  EXPECT_NE(largest.find("max(Author.name) = RR"), std::string::npos)
      << largest;
  // ... but a question combines its subqueries arithmetically, so `ask`
  // refuses it with a status instead of aborting.
  std::ostringstream out, err;
  EXPECT_EQ(cli::RunCli({"ask", dir_, "--subquery", "q1|max(Author.name)|",
                         "--expr", "q1", "--attrs", "Author.inst"},
                        out, err),
            1);
  EXPECT_NE(err.str().find("numeric"), std::string::npos) << err.str();
}

}  // namespace
}  // namespace xplain
