#include "relational/parser.h"

#include <cctype>

#include "util/string_util.h"

namespace xplain {

namespace {

enum class TokenKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
};

/// A small shared tokenizer for predicates, expressions and aggregates.
class Tokenizer {
 public:
  explicit Tokenizer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size()) break;
      char c = input_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(ReadIdent());
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        out.push_back(ReadNumber());
      } else if (c == '\'' || c == '"') {
        XPLAIN_ASSIGN_OR_RETURN(Token t, ReadString());
        out.push_back(std::move(t));
      } else {
        XPLAIN_ASSIGN_OR_RETURN(Token t, ReadSymbol());
        out.push_back(std::move(t));
      }
    }
    out.push_back(Token{TokenKind::kEnd, ""});
    return out;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Token ReadIdent() {
    size_t start = pos_;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        ++pos_;
      } else {
        break;
      }
    }
    return Token{TokenKind::kIdent, input_.substr(start, pos_ - start)};
  }

  Token ReadNumber() {
    size_t start = pos_;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == 'e' || c == 'E' ||
          ((c == '+' || c == '-') && pos_ > start &&
           (input_[pos_ - 1] == 'e' || input_[pos_ - 1] == 'E'))) {
        ++pos_;
      } else {
        break;
      }
    }
    return Token{TokenKind::kNumber, input_.substr(start, pos_ - start)};
  }

  Result<Token> ReadString() {
    char quote = input_[pos_];
    ++pos_;
    std::string text;
    while (pos_ < input_.size()) {
      if (input_[pos_] == quote) {
        // Doubled quote escapes itself, SQL style.
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == quote) {
          text += quote;
          pos_ += 2;
          continue;
        }
        break;
      }
      text += input_[pos_++];
    }
    if (pos_ >= input_.size()) {
      return Status::ParseError("unterminated string literal in: " + input_);
    }
    ++pos_;  // closing quote
    return Token{TokenKind::kString, std::move(text)};
  }

  Result<Token> ReadSymbol() {
    // Two-char operators first.
    static constexpr const char* kTwoChar[] = {"<=", ">=", "<>", "!=", "=="};
    for (const char* op : kTwoChar) {
      if (input_.compare(pos_, 2, op) == 0) {
        pos_ += 2;
        return Token{TokenKind::kSymbol, op};
      }
    }
    char c = input_[pos_];
    static const std::string kOneChar = "=<>()+-*/^.,";
    if (kOneChar.find(c) == std::string::npos) {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' in: " + input_);
    }
    ++pos_;
    return Token{TokenKind::kSymbol, std::string(1, c)};
  }

  const std::string& input_;
  size_t pos_ = 0;
};

/// Cursor over a token stream.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  Token Next() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool ConsumeSymbol(const std::string& symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeKeyword(const std::string& word) {
    if (Peek().kind == TokenKind::kIdent &&
        EqualsIgnoreCase(Peek().text, word)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(const std::string& symbol) {
    if (!ConsumeSymbol(symbol)) {
      return Status::ParseError("expected '" + symbol + "' but found '" +
                                Peek().text + "'");
    }
    return Status::OK();
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<std::string> ParseColumnName(Cursor* cur) {
  if (cur->Peek().kind != TokenKind::kIdent) {
    return Status::ParseError("expected a column name, found '" +
                              cur->Peek().text + "'");
  }
  std::string name = cur->Next().text;
  if (cur->ConsumeSymbol(".")) {
    if (cur->Peek().kind != TokenKind::kIdent) {
      return Status::ParseError("expected attribute name after '" + name +
                                ".'");
    }
    name += '.';
    name += cur->Next().text;
  }
  return name;
}

Result<Value> ParseLiteral(Cursor* cur) {
  const Token& t = cur->Peek();
  switch (t.kind) {
    case TokenKind::kString: {
      return Value::Str(cur->Next().text);
    }
    case TokenKind::kNumber: {
      std::string text = cur->Next().text;
      if (text.find('.') != std::string::npos ||
          text.find('e') != std::string::npos ||
          text.find('E') != std::string::npos) {
        return Value::Parse(text, DataType::kDouble);
      }
      return Value::Parse(text, DataType::kInt64);
    }
    case TokenKind::kIdent: {
      if (cur->ConsumeKeyword("null")) return Value::Null();
      if (cur->ConsumeKeyword("true")) return Value::Bool(true);
      if (cur->ConsumeKeyword("false")) return Value::Bool(false);
      return Status::ParseError("expected a literal, found '" + t.text + "'");
    }
    case TokenKind::kSymbol: {
      if (t.text == "-") {
        cur->Next();
        XPLAIN_ASSIGN_OR_RETURN(Value v, ParseLiteral(cur));
        if (v.type() == DataType::kInt64) return Value::Int(-v.AsInt());
        if (v.type() == DataType::kDouble) return Value::Real(-v.AsDouble());
        return Status::ParseError("cannot negate " + v.ToString());
      }
      return Status::ParseError("expected a literal, found '" + t.text + "'");
    }
    case TokenKind::kEnd:
      return Status::ParseError("expected a literal, found end of input");
  }
  return Status::ParseError("expected a literal");
}

// ---------- Expression parsing (recursive descent) ----------

class ExpressionParser {
 public:
  ExpressionParser(Cursor* cur, const std::vector<std::string>& variables)
      : cur_(cur), variables_(variables) {}

  Result<ExprPtr> ParseSum() {
    XPLAIN_ASSIGN_OR_RETURN(ExprPtr lhs, ParseProduct());
    while (true) {
      if (cur_->ConsumeSymbol("+")) {
        XPLAIN_ASSIGN_OR_RETURN(ExprPtr rhs, ParseProduct());
        lhs = Expression::Binary(Expression::BinaryOp::kAdd, lhs, rhs);
      } else if (cur_->ConsumeSymbol("-")) {
        XPLAIN_ASSIGN_OR_RETURN(ExprPtr rhs, ParseProduct());
        lhs = Expression::Binary(Expression::BinaryOp::kSub, lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

 private:
  Result<ExprPtr> ParseProduct() {
    XPLAIN_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePower());
    while (true) {
      if (cur_->ConsumeSymbol("*")) {
        XPLAIN_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePower());
        lhs = Expression::Binary(Expression::BinaryOp::kMul, lhs, rhs);
      } else if (cur_->ConsumeSymbol("/")) {
        XPLAIN_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePower());
        lhs = Expression::Binary(Expression::BinaryOp::kDiv, lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParsePower() {
    XPLAIN_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    if (cur_->ConsumeSymbol("^")) {
      XPLAIN_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePower());  // right-assoc
      return Expression::Binary(Expression::BinaryOp::kPow, lhs, rhs);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (cur_->ConsumeSymbol("-")) {
      XPLAIN_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expression::Unary(Expression::UnaryOp::kNeg, operand);
    }
    return ParseAtom();
  }

  Result<ExprPtr> ParseAtom() {
    const Token& t = cur_->Peek();
    if (t.kind == TokenKind::kNumber) {
      XPLAIN_ASSIGN_OR_RETURN(
          Value v, Value::Parse(cur_->Next().text, DataType::kDouble));
      return Expression::Constant(v.AsDouble());
    }
    if (cur_->ConsumeSymbol("(")) {
      XPLAIN_ASSIGN_OR_RETURN(ExprPtr inner, ParseSum());
      XPLAIN_RETURN_IF_ERROR(cur_->Expect(")"));
      return inner;
    }
    if (t.kind == TokenKind::kIdent) {
      std::string name = cur_->Next().text;
      // Function call?
      if (cur_->Peek().kind == TokenKind::kSymbol &&
          cur_->Peek().text == "(") {
        Expression::UnaryOp op;
        if (EqualsIgnoreCase(name, "log")) {
          op = Expression::UnaryOp::kLog;
        } else if (EqualsIgnoreCase(name, "exp")) {
          op = Expression::UnaryOp::kExp;
        } else if (EqualsIgnoreCase(name, "sqrt")) {
          op = Expression::UnaryOp::kSqrt;
        } else if (EqualsIgnoreCase(name, "abs")) {
          op = Expression::UnaryOp::kAbs;
        } else {
          return Status::ParseError("unknown function: " + name);
        }
        cur_->Next();  // '('
        XPLAIN_ASSIGN_OR_RETURN(ExprPtr inner, ParseSum());
        XPLAIN_RETURN_IF_ERROR(cur_->Expect(")"));
        return Expression::Unary(op, inner);
      }
      // Variable reference.
      for (size_t i = 0; i < variables_.size(); ++i) {
        if (EqualsIgnoreCase(variables_[i], name)) {
          return Expression::Variable(static_cast<int>(i), name);
        }
      }
      return Status::ParseError("unknown variable: " + name);
    }
    return Status::ParseError("unexpected token '" + t.text +
                              "' in expression");
  }

  Cursor* cur_;
  const std::vector<std::string>& variables_;
};

}  // namespace

namespace {

/// Parses `atom (AND atom)*`, stopping before OR or end of input.
Result<ConjunctivePredicate> ParseConjunction(const Database& db,
                                              Cursor* cur) {
  std::vector<AtomicPredicate> atoms;
  while (true) {
    XPLAIN_ASSIGN_OR_RETURN(std::string column, ParseColumnName(cur));
    if (cur->Peek().kind != TokenKind::kSymbol) {
      return Status::ParseError("expected a comparison operator after " +
                                column);
    }
    XPLAIN_ASSIGN_OR_RETURN(CompareOp op,
                            CompareOpFromString(cur->Next().text));
    XPLAIN_ASSIGN_OR_RETURN(Value constant, ParseLiteral(cur));
    XPLAIN_ASSIGN_OR_RETURN(
        AtomicPredicate atom,
        AtomicPredicate::Create(db, column, op, std::move(constant)));
    atoms.push_back(std::move(atom));
    if (cur->ConsumeKeyword("and")) continue;
    break;
  }
  return ConjunctivePredicate(std::move(atoms));
}

}  // namespace

Result<ConjunctivePredicate> ParsePredicate(const Database& db,
                                            const std::string& text) {
  if (Trim(text).empty()) return ConjunctivePredicate();
  Tokenizer tokenizer(text);
  XPLAIN_ASSIGN_OR_RETURN(std::vector<Token> tokens, tokenizer.Tokenize());
  Cursor cur(std::move(tokens));
  XPLAIN_ASSIGN_OR_RETURN(ConjunctivePredicate conj,
                          ParseConjunction(db, &cur));
  if (!cur.AtEnd()) {
    if (cur.ConsumeKeyword("or")) {
      return Status::ParseError(
          "disjunctions are not allowed here; use ParseDnfPredicate");
    }
    return Status::ParseError("unexpected token '" + cur.Peek().text +
                              "' after predicate");
  }
  return conj;
}

Result<DnfPredicate> ParseDnfPredicate(const Database& db,
                                       const std::string& text) {
  if (Trim(text).empty()) return DnfPredicate::True();
  Tokenizer tokenizer(text);
  XPLAIN_ASSIGN_OR_RETURN(std::vector<Token> tokens, tokenizer.Tokenize());
  Cursor cur(std::move(tokens));
  std::vector<ConjunctivePredicate> disjuncts;
  while (true) {
    XPLAIN_ASSIGN_OR_RETURN(ConjunctivePredicate conj,
                            ParseConjunction(db, &cur));
    disjuncts.push_back(std::move(conj));
    if (cur.ConsumeKeyword("or")) continue;
    if (cur.AtEnd()) break;
    return Status::ParseError("unexpected token '" + cur.Peek().text +
                              "' after predicate");
  }
  return DnfPredicate(std::move(disjuncts));
}

Result<ExprPtr> ParseExpression(const std::string& text,
                                const std::vector<std::string>& variables) {
  Tokenizer tokenizer(text);
  XPLAIN_ASSIGN_OR_RETURN(std::vector<Token> tokens, tokenizer.Tokenize());
  Cursor cur(std::move(tokens));
  ExpressionParser parser(&cur, variables);
  XPLAIN_ASSIGN_OR_RETURN(ExprPtr expr, parser.ParseSum());
  if (!cur.AtEnd()) {
    return Status::ParseError("unexpected trailing token '" +
                              cur.Peek().text + "' in expression");
  }
  return expr;
}

Result<AggregateSpec> ParseAggregate(const Database& db,
                                     const std::string& text) {
  Tokenizer tokenizer(text);
  XPLAIN_ASSIGN_OR_RETURN(std::vector<Token> tokens, tokenizer.Tokenize());
  Cursor cur(std::move(tokens));
  if (cur.Peek().kind != TokenKind::kIdent) {
    return Status::ParseError("expected an aggregate function name");
  }
  std::string func = ToLower(cur.Next().text);
  XPLAIN_RETURN_IF_ERROR(cur.Expect("("));
  AggregateSpec spec;
  if (func == "count") {
    if (cur.ConsumeSymbol("*")) {
      spec.kind = AggregateKind::kCountStar;
    } else if (cur.ConsumeKeyword("distinct")) {
      spec.kind = AggregateKind::kCountDistinct;
      XPLAIN_ASSIGN_OR_RETURN(std::string column, ParseColumnName(&cur));
      XPLAIN_ASSIGN_OR_RETURN(spec.column, db.ResolveColumn(column));
    } else {
      return Status::ParseError(
          "count(...) must be count(*) or count(distinct col)");
    }
  } else {
    if (func == "sum") {
      spec.kind = AggregateKind::kSum;
    } else if (func == "min") {
      spec.kind = AggregateKind::kMin;
    } else if (func == "max") {
      spec.kind = AggregateKind::kMax;
    } else if (func == "avg") {
      spec.kind = AggregateKind::kAvg;
    } else {
      return Status::ParseError("unknown aggregate function: " + func);
    }
    XPLAIN_ASSIGN_OR_RETURN(std::string column, ParseColumnName(&cur));
    XPLAIN_ASSIGN_OR_RETURN(spec.column, db.ResolveColumn(column));
    if (spec.kind != AggregateKind::kMin && spec.kind != AggregateKind::kMax &&
        !IsNumeric(db.ColumnType(spec.column))) {
      return Status::InvalidArgument(func + " needs a numeric column, got " +
                                     db.ColumnName(spec.column));
    }
  }
  XPLAIN_RETURN_IF_ERROR(cur.Expect(")"));
  if (!cur.AtEnd()) {
    return Status::ParseError("unexpected trailing token '" +
                              cur.Peek().text + "' after aggregate");
  }
  return spec;
}

}  // namespace xplain
