#include "invalidator/info_manager.h"

#include <functional>
#include <mutex>

#include "common/strings.h"
#include "sql/analyzer.h"

namespace cacheportal::invalidator {

void JoinIndex::AddRow(const db::Row& row) {
  if (column_idx_ >= row.size()) return;
  counts_[row[column_idx_]]++;
}

void JoinIndex::RemoveRow(const db::Row& row) {
  if (column_idx_ >= row.size()) return;
  auto it = counts_.find(row[column_idx_]);
  if (it == counts_.end()) return;
  if (--it->second <= 0) counts_.erase(it);
}

bool JoinIndex::Contains(const sql::Value& value) const {
  return counts_.contains(value);
}

Status InformationManager::CreateJoinIndex(const std::string& table,
                                           const std::string& column) {
  const db::Table* t = database_->FindTable(table);
  if (t == nullptr) return Status::NotFound(StrCat("table ", table));
  std::optional<size_t> idx = t->schema().ColumnIndex(column);
  if (!idx.has_value()) {
    return Status::NotFound(StrCat("column ", column, " in ", table));
  }
  auto key = std::make_pair(AsciiToLower(t->schema().name()),
                            AsciiToLower(column));
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (indexes_.contains(key)) {
    return Status::AlreadyExists(StrCat("join index on ", table, ".", column));
  }
  JoinIndex index(t->schema().name(), column, *idx,
                  t->schema().columns()[*idx].type);
  for (const auto& [id, row] : t->rows()) index.AddRow(row);
  indexes_.emplace(std::move(key), std::move(index));
  return Status::OK();
}

bool InformationManager::HasIndex(const std::string& table,
                                  const std::string& column) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return indexes_.contains(
      std::make_pair(AsciiToLower(table), AsciiToLower(column)));
}

void InformationManager::ApplyDeltas(const db::DeltaSet& deltas) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [key, index] : indexes_) {
    const db::TableDelta& delta = deltas.ForTable(index.table());
    for (const db::Row& row : delta.inserts) index.AddRow(row);
    for (const db::Row& row : delta.deletes) index.RemoveRow(row);
  }
}

namespace {

/// Extracts (column, literal) from an equality `col = lit` / `lit = col`;
/// the column must belong (by qualifier or schema) to `table_name`.
std::optional<std::pair<std::string, sql::Value>> AsColumnEquality(
    const sql::Expression& expr, const std::string& table_alias) {
  if (expr.kind() != sql::ExprKind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const sql::BinaryExpr&>(expr);
  if (bin.op() != sql::BinaryOp::kEq) return std::nullopt;
  const sql::Expression* col = nullptr;
  const sql::Expression* lit = nullptr;
  if (bin.left().kind() == sql::ExprKind::kColumnRef &&
      bin.right().kind() == sql::ExprKind::kLiteral) {
    col = &bin.left();
    lit = &bin.right();
  } else if (bin.right().kind() == sql::ExprKind::kColumnRef &&
             bin.left().kind() == sql::ExprKind::kLiteral) {
    col = &bin.right();
    lit = &bin.left();
  } else {
    return std::nullopt;
  }
  const auto& ref = static_cast<const sql::ColumnRefExpr&>(*col);
  if (!ref.table().empty() && !EqualsIgnoreCase(ref.table(), table_alias)) {
    return std::nullopt;
  }
  return std::make_pair(ref.column(),
                        static_cast<const sql::LiteralExpr&>(*lit).value());
}

}  // namespace

std::optional<bool> InformationManager::AnswerPoll(
    const sql::SelectStatement& poll) const {
  // Only single-relation polls are index-answerable: a disjunct matching
  // one row of T composes across rows (exists distributes over OR), which
  // is not true for conjunctions or joins.
  if (poll.from.size() != 1 || poll.where == nullptr) return std::nullopt;
  const sql::TableRef& ref = poll.from[0];
  std::string table_key = AsciiToLower(ref.table);
  std::shared_lock<std::shared_mutex> lock(mu_);

  bool any_true = false;
  for (const sql::Expression* d : sql::SplitDisjuncts(*poll.where)) {
    auto eq = AsColumnEquality(*d, ref.EffectiveName());
    if (!eq.has_value()) return std::nullopt;  // Can't decide soundly.
    auto it =
        indexes_.find(std::make_pair(table_key, AsciiToLower(eq->first)));
    if (it == indexes_.end()) return std::nullopt;  // Column not indexed.
    if (!it->second.Decides(eq->second)) return std::nullopt;
    if (it->second.Contains(eq->second)) {
      any_true = true;
      break;
    }
  }
  return any_true;
}

}  // namespace cacheportal::invalidator
