#include "invalidator/impact.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "common/strings.h"
#include "sql/analyzer.h"

namespace cacheportal::invalidator {

namespace {

using sql::Expression;
using sql::ExpressionPtr;

/// Builds `left OR right` (null-tolerant).
ExpressionPtr DisjoinExprs(ExpressionPtr left, ExpressionPtr right) {
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  return std::make_unique<sql::BinaryExpr>(sql::BinaryOp::kOr,
                                           std::move(left), std::move(right));
}

/// A top-level `column = literal` conjunct (either operand order).
struct Pin {
  const sql::ColumnRefExpr* column = nullptr;
  const sql::Value* value = nullptr;
};

std::optional<Pin> AsPin(const Expression& conjunct) {
  if (conjunct.kind() != sql::ExprKind::kBinary) return std::nullopt;
  const auto& eq = static_cast<const sql::BinaryExpr&>(conjunct);
  if (eq.op() != sql::BinaryOp::kEq) return std::nullopt;
  const Expression* column = &eq.left();
  const Expression* literal = &eq.right();
  if (column->kind() != sql::ExprKind::kColumnRef) std::swap(column, literal);
  if (column->kind() != sql::ExprKind::kColumnRef ||
      literal->kind() != sql::ExprKind::kLiteral) {
    return std::nullopt;
  }
  return Pin{static_cast<const sql::ColumnRefExpr*>(column),
             &static_cast<const sql::LiteralExpr*>(literal)->value()};
}

/// True when `residual`'s top-level conjunction pins one qualified column
/// to two different literals (`c = 18 AND c = 43`): no row satisfies it,
/// so the residual is FALSE (or NULL, for a NULL cell) at every row.
/// Decided only when both literals share the column's declared class —
/// int/int in an INT column or string/string in a STRING column — where
/// equality is exact. Anything involving a double is left to the DBMS:
/// Value::Compare widens int/double pairs to double, which is not
/// transitive beyond ±2^53 (a DOUBLE cell 2^53 equals both Int(2^53) and
/// Int(2^53 + 1)) and finds a NaN cell equal to every number, so two
/// unequal pins need not contradict.
bool PinsContradict(const Expression& residual,
                    const sql::SelectStatement& query,
                    const db::Database& database) {
  // Does the literal share the column's declared class?
  auto exact = [&](const Pin& pin) {
    for (const sql::TableRef& ref : query.from) {
      if (!EqualsIgnoreCase(ref.EffectiveName(), pin.column->table())) continue;
      const db::Table* table = database.FindTable(ref.table);
      if (table == nullptr) return false;
      const db::TableSchema& schema = table->schema();
      std::optional<size_t> idx = schema.ColumnIndex(pin.column->column());
      if (!idx.has_value()) return false;
      db::ColumnType type = schema.columns()[*idx].type;
      return (type == db::ColumnType::kInt && pin.value->is_int()) ||
             (type == db::ColumnType::kString && pin.value->is_string());
    }
    return false;
  };
  std::vector<Pin> pins;  // Exact-class pins seen so far.
  for (const Expression* conjunct : sql::SplitConjuncts(residual)) {
    std::optional<Pin> pin = AsPin(*conjunct);
    if (!pin.has_value() || !exact(*pin)) continue;
    for (const Pin& earlier : pins) {
      // One class, so representation equality is SQL equality.
      if (EqualsIgnoreCase(earlier.column->table(), pin->column->table()) &&
          EqualsIgnoreCase(earlier.column->column(), pin->column->column()) &&
          !(*earlier.value == *pin->value)) {
        return true;
      }
    }
    pins.push_back(*pin);
  }
  return false;
}

/// Builds the polling query for a residual condition: SELECT 1 FROM the
/// FROM entries still referenced by the residual WHERE residual LIMIT 1.
std::unique_ptr<sql::SelectStatement> BuildPollingQuery(
    const sql::SelectStatement& query, const std::string& removed_alias,
    ExpressionPtr residual) {
  auto poll = std::make_unique<sql::SelectStatement>();
  sql::SelectItem item;
  item.expr = std::make_unique<sql::LiteralExpr>(sql::Value::Int(1));
  item.alias = "hit";
  poll->items.push_back(std::move(item));

  // Keep FROM entries referenced by the residual; if the residual
  // references nothing (shouldn't happen), keep all but the removed one.
  std::set<std::string> referenced;
  if (residual != nullptr) {
    for (const std::string& t : sql::CollectTables(*residual)) {
      referenced.insert(AsciiToLower(t));
    }
  }
  for (const sql::TableRef& ref : query.from) {
    if (EqualsIgnoreCase(ref.EffectiveName(), removed_alias)) continue;
    if (referenced.empty() ||
        referenced.contains(AsciiToLower(ref.EffectiveName()))) {
      poll->from.push_back(ref);
    }
  }
  poll->where = std::move(residual);
  poll->limit = 1;
  return poll;
}

}  // namespace

Result<ImpactResult> ImpactAnalyzer::AnalyzeTuple(
    const sql::SelectStatement& query, const std::string& table,
    const db::Row& tuple) const {
  return AnalyzeDelta(query, table, {tuple});
}

Result<ImpactResult> ImpactAnalyzer::AnalyzeDelta(
    const sql::SelectStatement& query, const std::string& table,
    const std::vector<db::Row>& tuples) const {
  std::vector<const db::Row*> view;
  view.reserve(tuples.size());
  for (const db::Row& tuple : tuples) view.push_back(&tuple);
  return AnalyzeDelta(query, table, view);
}

Result<ImpactResult> ImpactAnalyzer::AnalyzeDelta(
    const sql::SelectStatement& query, const std::string& table,
    const std::vector<const db::Row*>& tuples) const {
  ImpactResult result;
  if (tuples.empty()) return result;  // kUnaffected.

  // FROM occurrences of the updated table.
  std::vector<const sql::TableRef*> occurrences;
  for (const sql::TableRef& ref : query.from) {
    if (EqualsIgnoreCase(ref.table, table)) occurrences.push_back(&ref);
  }
  if (occurrences.empty()) return result;  // kUnaffected.

  const db::Table* updated = database_->FindTable(table);
  if (updated == nullptr) {
    return Status::NotFound(StrCat("table ", table));
  }
  const db::TableSchema& schema = updated->schema();
  for (const db::Row* tuple : tuples) {
    CACHEPORTAL_RETURN_NOT_OK(schema.ValidateRow(*tuple));
  }

  // A query without a WHERE clause returns every tuple: any insert or
  // delete on a FROM table affects it (for single-table queries exactly;
  // for products, conservatively).
  if (query.where == nullptr) {
    result.kind = ImpactKind::kAffected;
    return result;
  }

  // Qualify unqualified columns so substitution is by (alias, column).
  auto owner_of =
      [&](const std::string& column) -> std::optional<std::string> {
    std::optional<std::string> owner;
    for (const sql::TableRef& ref : query.from) {
      const db::Table* t = database_->FindTable(ref.table);
      if (t == nullptr) continue;
      if (t->schema().ColumnIndex(column).has_value()) {
        if (owner.has_value()) return std::nullopt;  // Ambiguous.
        owner = ref.EffectiveName();
      }
    }
    return owner;
  };
  ExpressionPtr qualified = sql::QualifyColumns(*query.where, owner_of);

  // Per-occurrence, per-tuple substitution. Verdicts combine as:
  // any TRUE -> affected outright; any residual -> needs polling (residuals
  // are OR-ed per occurrence, each distinct one once: an in-place UPDATE's
  // old and new images often leave the same residual); all FALSE/NULL ->
  // unaffected. A residual whose pins contradict counts as FALSE.
  std::vector<ExpressionPtr> residuals;
  std::string residual_alias;
  for (const sql::TableRef* occ : occurrences) {
    for (const db::Row* tuple : tuples) {
      auto substituter =
          [&](const std::string& tbl,
              const std::string& col) -> std::optional<sql::Value> {
        if (!EqualsIgnoreCase(tbl, occ->EffectiveName())) {
          return std::nullopt;
        }
        std::optional<size_t> idx = schema.ColumnIndex(col);
        if (!idx.has_value()) return std::nullopt;
        return (*tuple)[*idx];
      };
      ExpressionPtr substituted =
          sql::SubstituteColumns(*qualified, substituter);
      sql::FoldResult folded = sql::FoldConstants(*substituted);
      switch (folded.outcome) {
        case sql::FoldOutcome::kTrue:
          result.kind = ImpactKind::kAffected;
          return result;
        case sql::FoldOutcome::kFalse:
        case sql::FoldOutcome::kNull:
          continue;  // This tuple cannot satisfy the condition.
        case sql::FoldOutcome::kResidual:
          if (PinsContradict(*folded.residual, query, *database_)) continue;
          if (residuals.empty()) residual_alias = occ->EffectiveName();
          if (EqualsIgnoreCase(residual_alias, occ->EffectiveName())) {
            const Expression& residual = *folded.residual;
            if (std::none_of(residuals.begin(), residuals.end(),
                             [&](const ExpressionPtr& earlier) {
                               return earlier->Equals(residual);
                             })) {
              residuals.push_back(std::move(folded.residual));
            }
          } else {
            // Residuals against different aliases cannot share one
            // polling query; be conservative.
            result.kind = ImpactKind::kAffected;
            return result;
          }
          break;
      }
    }
  }

  if (residuals.empty()) return result;  // kUnaffected.
  ExpressionPtr combined_residual;
  for (ExpressionPtr& residual : residuals) {
    combined_residual =
        DisjoinExprs(std::move(combined_residual), std::move(residual));
  }

  result.kind = ImpactKind::kNeedsPolling;
  result.polling_query = BuildPollingQuery(query, residual_alias,
                                           std::move(combined_residual));
  return result;
}

}  // namespace cacheportal::invalidator
