#include "relational/expression.h"

#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace xplain {

ExprPtr Expression::Constant(double value) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = Kind::kConstant;
  e->constant_ = value;
  return e;
}

ExprPtr Expression::Variable(int index, std::string name) {
  XPLAIN_CHECK(index >= 0);
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = Kind::kVariable;
  e->var_index_ = index;
  e->var_name_ = std::move(name);
  return e;
}

ExprPtr Expression::Unary(UnaryOp op, ExprPtr operand) {
  XPLAIN_CHECK(operand != nullptr);
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = Kind::kUnary;
  e->unary_op_ = op;
  e->lhs_ = std::move(operand);
  return e;
}

ExprPtr Expression::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  XPLAIN_CHECK(lhs != nullptr && rhs != nullptr);
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = Kind::kBinary;
  e->binary_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

double Expression::Eval(const std::vector<double>& vars,
                        const EvalOptions& opts) const {
  switch (kind_) {
    case Kind::kConstant:
      return constant_;
    case Kind::kVariable:
      XPLAIN_CHECK(var_index_ < static_cast<int>(vars.size()))
          << "unbound variable " << var_name_;
      return vars[var_index_];
    case Kind::kUnary: {
      double v = lhs_->Eval(vars, opts);
      switch (unary_op_) {
        case UnaryOp::kNeg:
          return -v;
        case UnaryOp::kLog:
          return std::log(std::max(v, opts.epsilon));
        case UnaryOp::kExp:
          return std::exp(v);
        case UnaryOp::kSqrt:
          return std::sqrt(std::max(v, 0.0));
        case UnaryOp::kAbs:
          return std::fabs(v);
      }
      return v;
    }
    case Kind::kBinary: {
      double a = lhs_->Eval(vars, opts);
      double b = rhs_->Eval(vars, opts);
      switch (binary_op_) {
        case BinaryOp::kAdd:
          return a + b;
        case BinaryOp::kSub:
          return a - b;
        case BinaryOp::kMul:
          return a * b;
        case BinaryOp::kDiv: {
          if (std::fabs(b) < opts.epsilon) {
            b = (b < 0) ? -opts.epsilon : opts.epsilon;
          }
          return a / b;
        }
        case BinaryOp::kPow:
          return std::pow(a, b);
      }
      return 0.0;
    }
  }
  return 0.0;
}

int Expression::MaxVariableIndex() const {
  switch (kind_) {
    case Kind::kConstant:
      return -1;
    case Kind::kVariable:
      return var_index_;
    case Kind::kUnary:
      return lhs_->MaxVariableIndex();
    case Kind::kBinary:
      return std::max(lhs_->MaxVariableIndex(), rhs_->MaxVariableIndex());
  }
  return -1;
}

std::string Expression::ToString() const {
  switch (kind_) {
    case Kind::kConstant: {
      std::ostringstream os;
      os << constant_;
      return os.str();
    }
    case Kind::kVariable: {
      if (!var_name_.empty()) return var_name_;
      std::string name = "q";
      name += std::to_string(var_index_ + 1);
      return name;
    }
    case Kind::kUnary: {
      const char* name = "";
      switch (unary_op_) {
        case UnaryOp::kNeg:
          return "(-" + lhs_->ToString() + ")";
        case UnaryOp::kLog:
          name = "log";
          break;
        case UnaryOp::kExp:
          name = "exp";
          break;
        case UnaryOp::kSqrt:
          name = "sqrt";
          break;
        case UnaryOp::kAbs:
          name = "abs";
          break;
      }
      return std::string(name) + "(" + lhs_->ToString() + ")";
    }
    case Kind::kBinary: {
      const char* op = "?";
      switch (binary_op_) {
        case BinaryOp::kAdd:
          op = " + ";
          break;
        case BinaryOp::kSub:
          op = " - ";
          break;
        case BinaryOp::kMul:
          op = " * ";
          break;
        case BinaryOp::kDiv:
          op = " / ";
          break;
        case BinaryOp::kPow:
          op = " ^ ";
          break;
      }
      std::string out = "(";
      out += lhs_->ToString();
      out += op;
      out += rhs_->ToString();
      out += ')';
      return out;
    }
  }
  return "?";
}

}  // namespace xplain
