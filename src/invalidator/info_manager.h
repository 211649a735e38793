#ifndef CACHEPORTAL_INVALIDATOR_INFO_MANAGER_H_
#define CACHEPORTAL_INVALIDATOR_INFO_MANAGER_H_

#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "db/database.h"
#include "db/delta.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace cacheportal::invalidator {

/// A join index maintained inside the invalidator (Section 4's "external
/// indexes kept within the invalidator, that can be quickly accessed"):
/// the multiset of values of one column of one relation, kept current from
/// the update-log deltas. With the index in place, a polling query whose
/// residual is `<literal> = <col>` can be answered without touching the
/// DBMS at all.
class JoinIndex {
 public:
  JoinIndex(std::string table, std::string column, size_t column_idx,
            db::ColumnType type)
      : table_(std::move(table)),
        column_(std::move(column)),
        column_idx_(column_idx),
        type_(type) {}

  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }

  void AddRow(const db::Row& row);
  void RemoveRow(const db::Row& row);

  bool Contains(const sql::Value& value) const;
  size_t size() const { return counts_.size(); }

  /// Whether Contains(value) decides `value = column` exactly: the
  /// multiset hashes values by representation, so only a value of the
  /// column's declared class — an int in an INT column, a string in a
  /// STRING column — finds every cell SQL equality admits (Int(3) and
  /// Double(3.0) compare equal but hash apart).
  bool Decides(const sql::Value& value) const {
    return (type_ == db::ColumnType::kInt && value.is_int()) ||
           (type_ == db::ColumnType::kString && value.is_string());
  }

 private:
  std::string table_;
  std::string column_;
  size_t column_idx_;
  db::ColumnType type_;
  std::unordered_map<sql::Value, int64_t, sql::ValueHash> counts_;
};

/// The information management module (Section 4.3): maintains auxiliary
/// data structures — here, join indexes — that the invalidation module
/// consults before generating DBMS polling traffic, and keeps them in
/// sync with the update stream.
///
/// Thread-safety: the read paths (AnswerPoll, HasIndex) take a shared
/// lock and may run concurrently from the invalidator's analysis workers;
/// the mutating paths (CreateJoinIndex, ApplyDeltas) take the lock
/// exclusively and belong to the cycle's serial phases.
class InformationManager {
 public:
  /// `database` is used to bootstrap indexes from current table contents
  /// (not owned).
  explicit InformationManager(const db::Database* database)
      : database_(database) {}

  /// Starts maintaining an index on `table`.`column`, initialized from
  /// the table's current contents.
  Status CreateJoinIndex(const std::string& table, const std::string& column);

  bool HasIndex(const std::string& table, const std::string& column) const;
  size_t num_indexes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return indexes_.size();
  }

  /// Folds one synchronization interval's deltas into the indexes (the
  /// daemon process of Section 4.3).
  void ApplyDeltas(const db::DeltaSet& deltas);

  /// Attempts to answer a polling query from the maintained indexes.
  /// Succeeds when the query reads a single indexed relation and its
  /// WHERE clause is a conjunction of `literal OP col` / `col OP literal`
  /// predicates with at least one indexed equality. Returns nullopt when
  /// the indexes cannot decide (the caller then polls the DBMS),
  /// including for a literal of another class than the column's.
  std::optional<bool> AnswerPoll(const sql::SelectStatement& poll) const;

 private:
  const db::Database* database_;
  // Shared for AnswerPoll/HasIndex, exclusive for mutations.
  mutable std::shared_mutex mu_;
  // (lower table, lower column) -> index.
  std::map<std::pair<std::string, std::string>, JoinIndex> indexes_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_INFO_MANAGER_H_
