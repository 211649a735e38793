#ifndef CACHEPORTAL_INVALIDATOR_IMPACT_H_
#define CACHEPORTAL_INVALIDATOR_IMPACT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "db/table.h"
#include "sql/ast.h"

namespace cacheportal::invalidator {

/// Verdict of analyzing one update tuple against one query instance.
enum class ImpactKind {
  /// The update provably cannot change the query's result: the WHERE
  /// condition with the tuple substituted folds to FALSE (or NULL).
  kUnaffected,
  /// The update provably changes (or may change, with no way to refine
  /// without polling being necessary) the result: substituted condition
  /// folds to TRUE.
  kAffected,
  /// The substituted condition still references other relations (a join);
  /// a polling query must be issued to decide (Example 4.1 of the paper).
  kNeedsPolling,
};

/// The pair term folds at most this many (Δ⁻R, Δ⁻S) pairs per instance;
/// above it the instance is decided affected without folding any.
inline constexpr size_t kMaxPairTermPairs = 4096;

/// Result of impact analysis. When `kind == kNeedsPolling`,
/// `polling_query` holds the query to issue: a non-empty result means the
/// update affects the query instance.
struct ImpactResult {
  ImpactKind kind = ImpactKind::kUnaffected;
  std::unique_ptr<sql::SelectStatement> polling_query;
};

/// The invalidator's condition analysis (Section 4, Example 4.1).
/// Decides how an inserted or deleted tuple of `table` affects the result
/// of `query`:
///
///  1. If `table` does not appear in the query's FROM list: unaffected.
///  2. Otherwise, for each FROM occurrence of `table`, substitute the
///     tuple's attribute values into the WHERE condition and constant-fold:
///     - FALSE/NULL everywhere  -> unaffected,
///     - TRUE for an occurrence -> affected,
///     - a residual condition   -> needs polling; the polling query
///       selects from the remaining relations with the OR of the
///       distinct residuals as its WHERE clause (LIMIT 1 — only
///       emptiness matters).
///     A residual conjunction that pins one column to two different
///     literals of the column's declared class (`c = 18 AND c = 43` in
///     an INT or STRING column) counts as FALSE: no row satisfies it.
///  3. A query with no WHERE clause over `table` is always affected.
///
/// Deletions use identical logic: a deleted tuple that (possibly)
/// satisfied the condition may have contributed result rows.
class ImpactAnalyzer {
 public:
  /// `database` supplies table schemas for column resolution (not owned).
  explicit ImpactAnalyzer(const db::Database* database)
      : database_(database) {}

  /// Analyzes the impact of `tuple` (inserted into or deleted from
  /// `table`) on `query`.
  Result<ImpactResult> AnalyzeTuple(const sql::SelectStatement& query,
                                    const std::string& table,
                                    const db::Row& tuple) const;

  /// Batched form (the paper's group processing, Section 4.2.1): analyzes
  /// all `tuples` of one delta against `query`, OR-ing the residuals of
  /// tuples that individually need polling into a single polling query.
  Result<ImpactResult> AnalyzeDelta(const sql::SelectStatement& query,
                                    const std::string& table,
                                    const std::vector<db::Row>& tuples) const;

  /// Zero-copy form over borrowed rows: the invalidation cycle builds one
  /// merged view of a table's delta per cycle (and the bind index narrows
  /// it per instance) instead of copying rows per instance. Analyzing a
  /// subset of a delta's tuples yields the same verdict and polling query
  /// as the full delta whenever the dropped tuples fold FALSE/NULL — they
  /// contribute nothing to the OR-ed residual. `qualified_where`, when
  /// given, is QualifiedWhere(query), shared by every analysis of one
  /// instance in a cycle instead of re-qualified per call.
  Result<ImpactResult> AnalyzeDelta(
      const sql::SelectStatement& query, const std::string& table,
      const std::vector<const db::Row*>& tuples,
      const sql::Expression* qualified_where = nullptr) const;

  /// The pair term of a batch that updated two distinct FROM tables of
  /// `query`, `r_table` and `s_table`, each occurring once in FROM.
  /// Analyzing each table's delta against the other's current state
  /// misses exactly one kind of changed join row: one whose R and S
  /// components were both deleted in the batch (Δ⁻R ⋈ Δ⁻S), since
  /// neither is left for a poll to find. Each pair of `r_deleted` ×
  /// `s_deleted` is substituted into the WHERE together and folded:
  ///  - TRUE -> affected;
  ///  - a residual whose pins do not contradict -> affected, unless it
  ///    names only other, un-updated FROM entries: then it joins the OR
  ///    of distinct residuals of a polling query over those entries;
  ///  - FALSE/NULL (or contradicting pins) -> unaffected.
  /// More than kMaxPairTermPairs pairs -> affected without folding.
  /// `qualified_where` is QualifiedWhere(query).
  Result<ImpactResult> AnalyzePairs(
      const sql::SelectStatement& query,
      const sql::Expression& qualified_where, const std::string& r_table,
      const std::vector<const db::Row*>& r_deleted, const std::string& s_table,
      const std::vector<const db::Row*>& s_deleted) const;

  /// `query`'s WHERE with each unqualified column qualified by the one
  /// FROM entry whose schema has it (ambiguous ones are left as they
  /// are), so substitution goes by (alias, column). Null without a WHERE.
  sql::ExpressionPtr QualifiedWhere(const sql::SelectStatement& query) const;

 private:
  const db::Database* database_;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_IMPACT_H_
