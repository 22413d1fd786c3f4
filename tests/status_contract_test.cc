// Tests for the error-handling contract: StatusCodeToString coverage and
// the XPLAIN_RETURN_IF_ERROR / XPLAIN_ASSIGN_OR_RETURN propagation macros.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/result.h"
#include "util/status.h"

namespace xplain {
namespace {

TEST(StatusCodeToStringTest, CoversEveryCode) {
  const std::vector<std::pair<StatusCode, std::string>> expected = {
      {StatusCode::kOk, "OK"},
      {StatusCode::kInvalidArgument, "InvalidArgument"},
      {StatusCode::kNotFound, "NotFound"},
      {StatusCode::kAlreadyExists, "AlreadyExists"},
      {StatusCode::kOutOfRange, "OutOfRange"},
      {StatusCode::kUnimplemented, "Unimplemented"},
      {StatusCode::kInternal, "Internal"},
      {StatusCode::kParseError, "ParseError"},
      {StatusCode::kConstraintViolation, "ConstraintViolation"},
      {StatusCode::kIoError, "IoError"},
      {StatusCode::kResourceExhausted, "ResourceExhausted"},
      {StatusCode::kUnavailable, "Unavailable"},
      {StatusCode::kFailedPrecondition, "FailedPrecondition"},
  };
  // If a new StatusCode is added this count (and the table) must grow.
  EXPECT_EQ(expected.size(), 13u);
  for (const auto& [code, name] : expected) {
    EXPECT_EQ(StatusCodeToString(code), name)
        << "code=" << static_cast<int>(code);
  }
}

TEST(StatusCodeToStringTest, UnknownCodeDoesNotCrash) {
  const auto bogus = static_cast<StatusCode>(999);
  EXPECT_NE(StatusCodeToString(bogus), nullptr);
}

TEST(StatusTest, FactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OK().code(), StatusCode::kOk);
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::ConstraintViolation("x").code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
}

Status FailIf(bool fail) {
  if (fail) return Status::Internal("boom");
  return Status::OK();
}

Status PropagateWithReturnIfError(bool fail, bool* reached_end) {
  XPLAIN_RETURN_IF_ERROR(FailIf(fail));
  *reached_end = true;
  return Status::OK();
}

TEST(ReturnIfErrorTest, PropagatesErrorAndStopsExecution) {
  bool reached_end = false;
  const Status st = PropagateWithReturnIfError(true, &reached_end);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_FALSE(reached_end);
}

TEST(ReturnIfErrorTest, PassesThroughOnOk) {
  bool reached_end = false;
  EXPECT_TRUE(PropagateWithReturnIfError(false, &reached_end).ok());
  EXPECT_TRUE(reached_end);
}

Result<int> MakeInt(bool fail) {
  if (fail) return Status::NotFound("no int");
  return 41;
}

Result<int> AddOne(bool fail) {
  XPLAIN_ASSIGN_OR_RETURN(const int value, MakeInt(fail));
  return value + 1;
}

TEST(AssignOrReturnTest, UnwrapsValue) {
  const Result<int> r = AddOne(false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(AssignOrReturnTest, PropagatesStatus) {
  const Result<int> r = AddOne(true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<std::string> ConcatTwice(bool fail) {
  std::string out;
  XPLAIN_ASSIGN_OR_RETURN(const std::string a,
                          fail ? Result<std::string>(Status::IoError("x"))
                               : Result<std::string>(std::string("ab")));
  // Two expansions in one function must not collide (__COUNTER__ naming).
  XPLAIN_ASSIGN_OR_RETURN(const std::string b,
                          Result<std::string>(std::string("cd")));
  out = a + b;
  return out;
}

TEST(AssignOrReturnTest, MultipleExpansionsInOneFunction) {
  const auto ok = ConcatTwice(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "abcd");
  EXPECT_EQ(ConcatTwice(true).status().code(), StatusCode::kIoError);
}

TEST(NodiscardTest, ExplicitDiscardCompiles) {
  // The [[nodiscard]] contract rejects silent drops; these are the two
  // sanctioned spellings for an intentional one.
  (void)FailIf(true);
  XPLAIN_IGNORE_ERROR(FailIf(true));
  XPLAIN_IGNORE_ERROR(MakeInt(true));
}

TEST(ResultTest, ValueOrFallsBack) {
  EXPECT_EQ(Result<int>(7).ValueOr(-1), 7);
  EXPECT_EQ(Result<int>(Status::Internal("x")).ValueOr(-1), -1);
}

}  // namespace
}  // namespace xplain
