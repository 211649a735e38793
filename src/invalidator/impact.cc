#include "invalidator/impact.h"

#include <algorithm>
#include <optional>
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
  std::vector<Pin> pins;
  for (const Expression* conjunct : sql::SplitConjuncts(residual)) {
    if (std::optional<Pin> pin = AsPin(*conjunct)) pins.push_back(*pin);
  }
  // Schemas are read only for two different literals on one column.
  for (size_t i = 0; i < pins.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      // One class, so representation equality is SQL equality.
      if (EqualsIgnoreCase(pins[j].column->table(), pins[i].column->table()) &&
          EqualsIgnoreCase(pins[j].column->column(),
                           pins[i].column->column()) &&
          !(*pins[j].value == *pins[i].value) && exact(pins[i]) &&
          exact(pins[j])) {
        return true;
      }
    }
  }
  return false;
}

/// Appends `residual` to `residuals` unless a structurally equal one is
/// already there: an in-place UPDATE's old and new images often leave
/// the same residual.
void AddDistinct(ExpressionPtr residual, std::vector<ExpressionPtr>* residuals) {
  if (std::none_of(residuals->begin(), residuals->end(),
                   [&](const ExpressionPtr& earlier) {
                     return earlier->Equals(*residual);
                   })) {
    residuals->push_back(std::move(residual));
  }
}

/// Builds the polling query for the OR of `residuals`: SELECT 1 FROM the
/// FROM entries still referenced by it WHERE residuals LIMIT 1. If it
/// references nothing (shouldn't happen), keeps all but the removed
/// entries.
std::unique_ptr<sql::SelectStatement> BuildPollingQuery(
    const sql::SelectStatement& query,
    const std::vector<std::string>& removed_aliases,
    std::vector<ExpressionPtr> residuals) {
  ExpressionPtr combined;
  for (ExpressionPtr& residual : residuals) {
    combined = DisjoinExprs(std::move(combined), std::move(residual));
  }
  auto poll = std::make_unique<sql::SelectStatement>();
  sql::SelectItem item;
  item.expr = std::make_unique<sql::LiteralExpr>(sql::Value::Int(1));
  item.alias = "hit";
  poll->items.push_back(std::move(item));

  const std::vector<std::string> referenced =
      combined != nullptr ? sql::CollectTables(*combined)
                          : std::vector<std::string>{};
  const auto names = [&](const std::vector<std::string>& list,
                         const sql::TableRef& ref) {
    return std::any_of(list.begin(), list.end(), [&](const std::string& t) {
      return EqualsIgnoreCase(ref.EffectiveName(), t);
    });
  };
  for (const sql::TableRef& ref : query.from) {
    if (names(removed_aliases, ref)) continue;
    if (referenced.empty() || names(referenced, ref)) {
      poll->from.push_back(ref);
    }
  }
  poll->where = std::move(combined);
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

sql::ExpressionPtr ImpactAnalyzer::QualifiedWhere(
    const sql::SelectStatement& query) const {
  if (query.where == nullptr) return nullptr;
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
  return sql::QualifyColumns(*query.where, owner_of);
}

Result<ImpactResult> ImpactAnalyzer::AnalyzeDelta(
    const sql::SelectStatement& query, const std::string& table,
    const std::vector<const db::Row*>& tuples,
    const sql::Expression* qualified_where) const {
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
  ExpressionPtr own_qualified;
  if (qualified_where == nullptr) {
    own_qualified = QualifiedWhere(query);
    qualified_where = own_qualified.get();
  }

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
          sql::SubstituteColumns(*qualified_where, substituter);
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
            AddDistinct(std::move(folded.residual), &residuals);
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
  result.kind = ImpactKind::kNeedsPolling;
  result.polling_query =
      BuildPollingQuery(query, {residual_alias}, std::move(residuals));
  return result;
}

Result<ImpactResult> ImpactAnalyzer::AnalyzePairs(
    const sql::SelectStatement& query, const Expression& qualified_where,
    const std::string& r_table, const std::vector<const db::Row*>& r_deleted,
    const std::string& s_table,
    const std::vector<const db::Row*>& s_deleted) const {
  ImpactResult result;
  if (r_deleted.empty() || s_deleted.empty()) return result;  // No pairs.
  if (EqualsIgnoreCase(r_table, s_table)) {
    return Status::InvalidArgument(
        StrCat("pair term over one table ", r_table));
  }
  if (r_deleted.size() * s_deleted.size() > kMaxPairTermPairs) {
    result.kind = ImpactKind::kAffected;
    return result;
  }
  const sql::TableRef* r_ref = nullptr;
  const sql::TableRef* s_ref = nullptr;
  for (const sql::TableRef& ref : query.from) {
    if (EqualsIgnoreCase(ref.table, r_table)) r_ref = &ref;
    if (EqualsIgnoreCase(ref.table, s_table)) s_ref = &ref;
  }
  if (r_ref == nullptr || s_ref == nullptr) return result;  // kUnaffected.
  const db::Table* r_updated = database_->FindTable(r_table);
  const db::Table* s_updated = database_->FindTable(s_table);
  if (r_updated == nullptr || s_updated == nullptr) {
    return Status::NotFound(
        StrCat("table ", r_updated == nullptr ? r_table : s_table));
  }
  const db::TableSchema& r_schema = r_updated->schema();
  const db::TableSchema& s_schema = s_updated->schema();
  for (const db::Row* tuple : r_deleted) {
    CACHEPORTAL_RETURN_NOT_OK(r_schema.ValidateRow(*tuple));
  }
  for (const db::Row* tuple : s_deleted) {
    CACHEPORTAL_RETURN_NOT_OK(s_schema.ValidateRow(*tuple));
  }
  auto bind = [](const sql::TableRef& ref, const db::TableSchema& schema,
                 const db::Row& tuple) {
    return [&ref, &schema, &tuple](const std::string& tbl,
                                   const std::string& col)
               -> std::optional<sql::Value> {
      if (!EqualsIgnoreCase(tbl, ref.EffectiveName())) return std::nullopt;
      std::optional<size_t> idx = schema.ColumnIndex(col);
      if (!idx.has_value()) return std::nullopt;
      return tuple[*idx];
    };
  };
  // A residual is pollable when every column it still reads is qualified
  // by an un-updated FROM entry.
  auto pollable = [&](const Expression& residual) {
    for (const std::string& t : sql::CollectTables(residual)) {
      if (t.empty() || EqualsIgnoreCase(t, r_ref->EffectiveName()) ||
          EqualsIgnoreCase(t, s_ref->EffectiveName())) {
        return false;
      }
    }
    return true;
  };

  // Substitute r first: a row whose partial fold is FALSE/NULL (or whose
  // residual pins contradict) pairs with no s, and one that folds TRUE
  // pairs with every s.
  std::vector<ExpressionPtr> residuals;
  for (const db::Row* r : r_deleted) {
    sql::FoldResult partial = sql::FoldConstants(*sql::SubstituteColumns(
        qualified_where, bind(*r_ref, r_schema, *r)));
    if (partial.outcome == sql::FoldOutcome::kTrue) {
      result.kind = ImpactKind::kAffected;
      return result;
    }
    if (partial.outcome != sql::FoldOutcome::kResidual ||
        PinsContradict(*partial.residual, query, *database_)) {
      continue;
    }
    for (const db::Row* s : s_deleted) {
      sql::FoldResult folded = sql::FoldConstants(*sql::SubstituteColumns(
          *partial.residual, bind(*s_ref, s_schema, *s)));
      if (folded.outcome == sql::FoldOutcome::kTrue) {
        result.kind = ImpactKind::kAffected;
        return result;
      }
      if (folded.outcome != sql::FoldOutcome::kResidual ||
          PinsContradict(*folded.residual, query, *database_)) {
        continue;
      }
      if (!pollable(*folded.residual)) {
        result.kind = ImpactKind::kAffected;
        return result;
      }
      AddDistinct(std::move(folded.residual), &residuals);
    }
  }
  if (residuals.empty()) return result;  // kUnaffected.
  result.kind = ImpactKind::kNeedsPolling;
  result.polling_query =
      BuildPollingQuery(query, {r_ref->EffectiveName(), s_ref->EffectiveName()},
                        std::move(residuals));
  return result;
}

}  // namespace cacheportal::invalidator
