#include "sql/analyzer.h"

#include <algorithm>

#include "sql/eval.h"

namespace cacheportal::sql {

namespace {

/// True if `expr` contains no column references or parameters, i.e. it can
/// be fully evaluated now.
bool IsConstant(const Expression& expr) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
    case ExprKind::kParameter:
      return false;
    case ExprKind::kUnary:
      return IsConstant(static_cast<const UnaryExpr&>(expr).operand());
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return IsConstant(b.left()) && IsConstant(b.right());
    }
    case ExprKind::kFunctionCall:
      return false;  // Aggregates are never scalar-constant.
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (!IsConstant(in.operand())) return false;
      return std::all_of(in.items().begin(), in.items().end(),
                         [](const ExpressionPtr& e) { return IsConstant(*e); });
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      return IsConstant(bt.operand()) && IsConstant(bt.low()) &&
             IsConstant(bt.high());
    }
    case ExprKind::kIsNull:
      return IsConstant(static_cast<const IsNullExpr&>(expr).operand());
  }
  return false;
}

/// Folds a constant expression to a literal node; on evaluation error
/// (type mismatch in dead code, etc.) returns the original clone so the
/// residual keeps the information.
ExpressionPtr FoldToLiteral(const Expression& expr) {
  EmptyResolver no_columns;
  Result<Value> v = EvalExpr(expr, no_columns);
  if (!v.ok()) return expr.Clone();
  return std::make_unique<LiteralExpr>(std::move(v).value());
}

/// Classification of a folded subtree for the logical-identity rules.
enum class TriState { kTrue, kFalse, kNull, kOther };

TriState Classify(const Expression& expr) {
  if (expr.kind() != ExprKind::kLiteral) return TriState::kOther;
  const Value& v = static_cast<const LiteralExpr&>(expr).value();
  if (v.is_null()) return TriState::kNull;
  if (v.is_bool()) return v.AsBool() ? TriState::kTrue : TriState::kFalse;
  return TriState::kOther;
}

ExpressionPtr MakeBool(bool b) {
  return std::make_unique<LiteralExpr>(Value::Bool(b));
}
ExpressionPtr MakeNull() {
  return std::make_unique<LiteralExpr>(Value::Null());
}

/// Bottom-up simplification; returns a (possibly literal) expression.
ExpressionPtr SimplifyRec(const Expression& expr) {
  if (IsConstant(expr)) return FoldToLiteral(expr);

  switch (expr.kind()) {
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      ExpressionPtr inner = SimplifyRec(u.operand());
      if (u.op() == UnaryOp::kNot) {
        switch (Classify(*inner)) {
          case TriState::kTrue:
            return MakeBool(false);
          case TriState::kFalse:
            return MakeBool(true);
          case TriState::kNull:
            return MakeNull();
          case TriState::kOther:
            break;
        }
      }
      auto out = std::make_unique<UnaryExpr>(u.op(), std::move(inner));
      if (IsConstant(*out)) return FoldToLiteral(*out);
      return out;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      ExpressionPtr left = SimplifyRec(b.left());
      ExpressionPtr right = SimplifyRec(b.right());
      if (b.op() == BinaryOp::kAnd) {
        TriState lt = Classify(*left), rt = Classify(*right);
        if (lt == TriState::kFalse || rt == TriState::kFalse) {
          return MakeBool(false);
        }
        if (lt == TriState::kTrue) return right;
        if (rt == TriState::kTrue) return left;
        // NULL AND residual stays residual (could still fold to false).
        if (lt == TriState::kNull && rt == TriState::kNull) return MakeNull();
      } else if (b.op() == BinaryOp::kOr) {
        TriState lt = Classify(*left), rt = Classify(*right);
        if (lt == TriState::kTrue || rt == TriState::kTrue) {
          return MakeBool(true);
        }
        if (lt == TriState::kFalse) return right;
        if (rt == TriState::kFalse) return left;
        if (lt == TriState::kNull && rt == TriState::kNull) return MakeNull();
      }
      auto out = std::make_unique<BinaryExpr>(b.op(), std::move(left),
                                              std::move(right));
      if (IsConstant(*out)) return FoldToLiteral(*out);
      return out;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      ExpressionPtr operand = SimplifyRec(in.operand());
      std::vector<ExpressionPtr> items;
      items.reserve(in.items().size());
      for (const auto& item : in.items()) items.push_back(SimplifyRec(*item));
      auto out = std::make_unique<InListExpr>(std::move(operand),
                                              std::move(items), in.negated());
      if (IsConstant(*out)) return FoldToLiteral(*out);
      return out;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      auto out = std::make_unique<BetweenExpr>(
          SimplifyRec(bt.operand()), SimplifyRec(bt.low()),
          SimplifyRec(bt.high()), bt.negated());
      if (IsConstant(*out)) return FoldToLiteral(*out);
      return out;
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      auto out = std::make_unique<IsNullExpr>(SimplifyRec(n.operand()),
                                              n.negated());
      if (IsConstant(*out)) return FoldToLiteral(*out);
      return out;
    }
    default:
      return expr.Clone();
  }
}

void CollectTablesRec(const Expression& expr,
                      std::vector<std::string>* tables,
                      std::set<std::string>* seen) {
  for (const ColumnRefExpr* ref : CollectColumnRefs(expr)) {
    if (seen->insert(ref->table()).second) tables->push_back(ref->table());
  }
}

void CollectRefsRec(const Expression& expr,
                    std::vector<const ColumnRefExpr*>* out) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return;
    case ExprKind::kColumnRef:
      out->push_back(static_cast<const ColumnRefExpr*>(&expr));
      return;
    case ExprKind::kUnary:
      CollectRefsRec(static_cast<const UnaryExpr&>(expr).operand(), out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      CollectRefsRec(b.left(), out);
      CollectRefsRec(b.right(), out);
      return;
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(expr);
      for (const auto& a : f.args()) CollectRefsRec(*a, out);
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      CollectRefsRec(in.operand(), out);
      for (const auto& item : in.items()) CollectRefsRec(*item, out);
      return;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      CollectRefsRec(bt.operand(), out);
      CollectRefsRec(bt.low(), out);
      CollectRefsRec(bt.high(), out);
      return;
    }
    case ExprKind::kIsNull:
      CollectRefsRec(static_cast<const IsNullExpr&>(expr).operand(), out);
      return;
  }
}

/// Generic rewriting walk: applies `leaf` to column refs and parameters,
/// rebuilding interior nodes.
using LeafRewriter = std::function<ExpressionPtr(const Expression&)>;

ExpressionPtr RewriteRec(const Expression& expr, const LeafRewriter& leaf) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.Clone();
    case ExprKind::kColumnRef:
    case ExprKind::kParameter:
      return leaf(expr);
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      return std::make_unique<UnaryExpr>(u.op(), RewriteRec(u.operand(), leaf));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return std::make_unique<BinaryExpr>(b.op(), RewriteRec(b.left(), leaf),
                                          RewriteRec(b.right(), leaf));
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(expr);
      std::vector<ExpressionPtr> args;
      args.reserve(f.args().size());
      for (const auto& a : f.args()) args.push_back(RewriteRec(*a, leaf));
      return std::make_unique<FunctionCallExpr>(f.name(), std::move(args),
                                                f.star());
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      std::vector<ExpressionPtr> items;
      items.reserve(in.items().size());
      for (const auto& item : in.items()) {
        items.push_back(RewriteRec(*item, leaf));
      }
      return std::make_unique<InListExpr>(RewriteRec(in.operand(), leaf),
                                          std::move(items), in.negated());
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      return std::make_unique<BetweenExpr>(
          RewriteRec(bt.operand(), leaf), RewriteRec(bt.low(), leaf),
          RewriteRec(bt.high(), leaf), bt.negated());
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      return std::make_unique<IsNullExpr>(RewriteRec(n.operand(), leaf),
                                          n.negated());
    }
  }
  return expr.Clone();
}

}  // namespace

ExpressionPtr SubstituteColumns(const Expression& expr,
                                const ColumnSubstituter& sub) {
  return RewriteRec(expr, [&sub](const Expression& leaf) -> ExpressionPtr {
    if (leaf.kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(leaf);
      std::optional<Value> v = sub(ref.table(), ref.column());
      if (v.has_value()) return std::make_unique<LiteralExpr>(std::move(*v));
    }
    return leaf.Clone();
  });
}

Result<ExpressionPtr> BindParameters(const Expression& expr,
                                     const std::vector<Value>& bindings) {
  Status error = Status::OK();
  ExpressionPtr out =
      RewriteRec(expr, [&](const Expression& leaf) -> ExpressionPtr {
        if (leaf.kind() == ExprKind::kParameter) {
          int ordinal = static_cast<const ParameterExpr&>(leaf).ordinal();
          if (ordinal < 1 || static_cast<size_t>(ordinal) > bindings.size()) {
            if (error.ok()) {
              error = Status::InvalidArgument(
                  "parameter ordinal out of range of bindings");
            }
            return leaf.Clone();
          }
          return std::make_unique<LiteralExpr>(bindings[ordinal - 1]);
        }
        return leaf.Clone();
      });
  if (!error.ok()) return error;
  return out;
}

FoldResult FoldConstants(const Expression& expr) {
  ExpressionPtr simplified = SimplifyRec(expr);
  FoldResult result;
  switch (Classify(*simplified)) {
    case TriState::kTrue:
      result.outcome = FoldOutcome::kTrue;
      return result;
    case TriState::kFalse:
      result.outcome = FoldOutcome::kFalse;
      return result;
    case TriState::kNull:
      result.outcome = FoldOutcome::kNull;
      return result;
    case TriState::kOther:
      result.outcome = FoldOutcome::kResidual;
      result.residual = std::move(simplified);
      return result;
  }
  return result;
}

std::vector<std::string> CollectTables(const Expression& expr) {
  std::vector<std::string> tables;
  std::set<std::string> seen;
  CollectTablesRec(expr, &tables, &seen);
  return tables;
}

std::vector<const ColumnRefExpr*> CollectColumnRefs(const Expression& expr) {
  std::vector<const ColumnRefExpr*> refs;
  CollectRefsRec(expr, &refs);
  return refs;
}

bool ContainsParameters(const Expression& expr) {
  switch (expr.kind()) {
    case ExprKind::kParameter:
      return true;
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return false;
    case ExprKind::kUnary:
      return ContainsParameters(
          static_cast<const UnaryExpr&>(expr).operand());
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return ContainsParameters(b.left()) || ContainsParameters(b.right());
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const FunctionCallExpr&>(expr);
      for (const auto& a : f.args()) {
        if (ContainsParameters(*a)) return true;
      }
      return false;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (ContainsParameters(in.operand())) return true;
      for (const auto& item : in.items()) {
        if (ContainsParameters(*item)) return true;
      }
      return false;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      return ContainsParameters(bt.operand()) ||
             ContainsParameters(bt.low()) || ContainsParameters(bt.high());
    }
    case ExprKind::kIsNull:
      return ContainsParameters(
          static_cast<const IsNullExpr&>(expr).operand());
  }
  return false;
}

std::vector<const Expression*> SplitConjuncts(const Expression& expr) {
  std::vector<const Expression*> conjuncts;
  if (expr.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(expr);
    if (b.op() == BinaryOp::kAnd) {
      auto left = SplitConjuncts(b.left());
      auto right = SplitConjuncts(b.right());
      conjuncts.insert(conjuncts.end(), left.begin(), left.end());
      conjuncts.insert(conjuncts.end(), right.begin(), right.end());
      return conjuncts;
    }
  }
  conjuncts.push_back(&expr);
  return conjuncts;
}

namespace {

void AppendDisjuncts(const Expression& expr,
                     std::vector<const Expression*>* out) {
  if (expr.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(expr);
    if (b.op() == BinaryOp::kOr) {
      AppendDisjuncts(b.left(), out);
      AppendDisjuncts(b.right(), out);
      return;
    }
  }
  out->push_back(&expr);
}

}  // namespace

std::vector<const Expression*> SplitDisjuncts(const Expression& expr) {
  std::vector<const Expression*> disjuncts;
  AppendDisjuncts(expr, &disjuncts);
  return disjuncts;
}

namespace {

/// True if any node of `expr` is an aggregate function call.
bool ContainsAggregate(const Expression& expr) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kParameter:
      return false;
    case ExprKind::kUnary:
      return ContainsAggregate(static_cast<const UnaryExpr&>(expr).operand());
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return ContainsAggregate(b.left()) || ContainsAggregate(b.right());
    }
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      if (call.IsAggregate()) return true;
      for (const ExpressionPtr& arg : call.args()) {
        if (ContainsAggregate(*arg)) return true;
      }
      return false;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (ContainsAggregate(in.operand())) return true;
      for (const ExpressionPtr& item : in.items()) {
        if (ContainsAggregate(*item)) return true;
      }
      return false;
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      return ContainsAggregate(between.operand()) ||
             ContainsAggregate(between.low()) ||
             ContainsAggregate(between.high());
    }
    case ExprKind::kIsNull:
      return ContainsAggregate(static_cast<const IsNullExpr&>(expr).operand());
  }
  return false;
}

/// Walks a WHERE clause checking every node is row-decidable under 3VL.
/// Returns the first blocker found ("" when clean). The disallowed forms
/// are exactly the ones whose 3VL outcome the exact strategy's
/// row-substitution evaluation cannot be trusted to mirror the executor
/// on (LIKE), or the paper's single-table algorithm excludes outright
/// (NULL comparands, function calls standing in for subqueries).
std::string WhereBlocker(const Expression& expr) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      if (static_cast<const LiteralExpr&>(expr).value().is_null()) {
        return "NULL comparand";
      }
      return "";
    case ExprKind::kColumnRef:
    case ExprKind::kParameter:
      return "";
    case ExprKind::kUnary:
      return WhereBlocker(static_cast<const UnaryExpr&>(expr).operand());
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      if (b.op() == BinaryOp::kLike) return "LIKE pattern";
      std::string blocker = WhereBlocker(b.left());
      if (!blocker.empty()) return blocker;
      return WhereBlocker(b.right());
    }
    case ExprKind::kFunctionCall:
      return static_cast<const FunctionCallExpr&>(expr).IsAggregate()
                 ? "aggregation"
                 : "unsupported function call";
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      std::string blocker = WhereBlocker(in.operand());
      if (!blocker.empty()) return blocker;
      for (const ExpressionPtr& item : in.items()) {
        blocker = WhereBlocker(*item);
        if (!blocker.empty()) return blocker;
      }
      return "";
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      std::string blocker = WhereBlocker(between.operand());
      if (!blocker.empty()) return blocker;
      blocker = WhereBlocker(between.low());
      if (!blocker.empty()) return blocker;
      return WhereBlocker(between.high());
    }
    case ExprKind::kIsNull:
      // IS [NOT] NULL is the sanctioned way to mention NULL: its outcome
      // is two-valued and row-decidable.
      return WhereBlocker(static_cast<const IsNullExpr&>(expr).operand());
  }
  return "";
}

}  // namespace

TemplateShape ClassifyTemplateShape(const SelectStatement& statement) {
  TemplateShape shape;

  // FROM shape. A table aliased twice is a self-join even though the
  // aliases differ — what matters is one relation's delta reaching the
  // statement through two scans.
  shape.single_table = statement.from.size() == 1;
  for (size_t i = 0; i < statement.from.size() && !shape.self_join; ++i) {
    for (size_t j = i + 1; j < statement.from.size(); ++j) {
      if (statement.from[i].table.size() == statement.from[j].table.size() &&
          std::equal(statement.from[i].table.begin(),
                     statement.from[i].table.end(),
                     statement.from[j].table.begin(),
                     [](char a, char b) {
                       return std::tolower(static_cast<unsigned char>(a)) ==
                              std::tolower(static_cast<unsigned char>(b));
                     })) {
        shape.self_join = true;
        break;
      }
    }
  }

  // Aggregation anywhere: select items, GROUP BY / HAVING presence, or an
  // aggregate call inside WHERE (the parser admits it; the executor does
  // not evaluate it per row).
  shape.has_aggregation = !statement.group_by.empty() ||
                          statement.having != nullptr;
  for (const SelectItem& item : statement.items) {
    if (!shape.has_aggregation && item.expr != nullptr &&
        ContainsAggregate(*item.expr)) {
      shape.has_aggregation = true;
    }
  }
  if (!shape.has_aggregation && statement.where != nullptr &&
      ContainsAggregate(*statement.where)) {
    shape.has_aggregation = true;
  }

  std::string where_blocker;
  if (statement.where != nullptr) {
    where_blocker = WhereBlocker(*statement.where);
  }
  shape.where_row_decidable = where_blocker.empty();

  // First disqualifier wins, in severity order: the census counts these
  // strings, so they must be deterministic per template.
  if (shape.self_join) {
    shape.blocker = "self-join";
  } else if (!shape.single_table) {
    shape.blocker = "multi-table FROM";
  } else if (shape.has_aggregation) {
    shape.blocker = "aggregation";
  } else if (shape.has_subquery) {
    shape.blocker = "subquery";
  } else if (!where_blocker.empty()) {
    shape.blocker = where_blocker;
  }
  return shape;
}

ExpressionPtr QualifyColumns(
    const Expression& expr,
    const std::function<std::optional<std::string>(const std::string&)>&
        owner_of) {
  return RewriteRec(expr, [&](const Expression& leaf) -> ExpressionPtr {
    if (leaf.kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(leaf);
      if (ref.table().empty()) {
        std::optional<std::string> owner = owner_of(ref.column());
        if (owner.has_value()) {
          return std::make_unique<ColumnRefExpr>(*owner, ref.column());
        }
      }
    }
    return leaf.Clone();
  });
}

}  // namespace cacheportal::sql
