// Test-side oracles for the invalidation cycle, shared by the seeded
// random-world suites (invalidator_batch_test, invalidator_matcher_test,
// invalidator_strategy_test).
#ifndef CACHEPORTAL_TESTS_IMPACT_ORACLES_H_
#define CACHEPORTAL_TESTS_IMPACT_ORACLES_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "db/database.h"
#include "db/delta.h"
#include "db/update_log.h"
#include "invalidator/impact.h"
#include "invalidator/metadata_plane.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/template.h"

namespace cacheportal::invalidator {

/// Resolves column references against one row per FROM entry — the
/// brute-force side of the pair term below. Unqualified columns resolve
/// when exactly one entry's schema has them.
class CompositeRowResolver : public sql::ColumnResolver {
 public:
  struct Binding {
    std::string name;  // The entry's effective name.
    const db::TableSchema* schema = nullptr;
    const db::Row* row = nullptr;
  };
  explicit CompositeRowResolver(const std::vector<Binding>& bindings)
      : bindings_(bindings) {}

  std::optional<sql::Value> Resolve(const std::string& table,
                                    const std::string& column) const override {
    std::optional<sql::Value> found;
    for (const Binding& b : bindings_) {
      if (!table.empty() && !EqualsIgnoreCase(table, b.name)) continue;
      std::optional<size_t> idx = b.schema->ColumnIndex(column);
      if (!idx.has_value()) continue;
      if (found.has_value()) return std::nullopt;  // Ambiguous.
      found = (*b.row)[*idx];
    }
    return found;
  }

 private:
  const std::vector<Binding>& bindings_;
};

/// The pair term by brute force: is there a row of Δ⁻R ⋈ Δ⁻S — r and s
/// both deleted in this batch — that, completed with current rows of
/// every other FROM entry, satisfies the WHERE under sql::EvalPredicate?
/// `r_ref` and `s_ref` are the two updated entries of `statement`.
inline bool BruteForcePairTerm(db::Database& db,
                               const sql::SelectStatement& statement,
                               const db::DeltaSet& deltas,
                               const sql::TableRef& r_ref,
                               const sql::TableRef& s_ref) {
  const std::vector<db::Row>& r_deleted = deltas.ForTable(r_ref.table).deletes;
  const std::vector<db::Row>& s_deleted = deltas.ForTable(s_ref.table).deletes;
  EXPECT_LE(r_deleted.size() * s_deleted.size(), kMaxPairTermPairs)
      << "the world outgrew the pair cap the reference does not model";
  std::vector<CompositeRowResolver::Binding> bindings;
  for (const sql::TableRef& ref : statement.from) {
    const db::Table* table = db.FindTable(ref.table);
    EXPECT_NE(table, nullptr) << ref.table;
    if (table == nullptr) return true;
    bindings.push_back({ref.EffectiveName(), &table->schema(), nullptr});
  }
  // Binds entry `i` and everything after it, then evaluates.
  std::function<bool(size_t)> extend = [&](size_t i) -> bool {
    if (i == statement.from.size()) {
      if (statement.where == nullptr) return true;
      CompositeRowResolver resolver(bindings);
      Result<std::optional<bool>> holds =
          sql::EvalPredicate(*statement.where, resolver);
      EXPECT_TRUE(holds.ok()) << holds.status().ToString();
      return !holds.ok() || holds->value_or(false);
    }
    const sql::TableRef& ref = statement.from[i];
    const std::vector<db::Row>* rows = nullptr;
    std::vector<db::Row> current;
    if (&ref == &r_ref) {
      rows = &r_deleted;
    } else if (&ref == &s_ref) {
      rows = &s_deleted;
    } else {
      for (const auto& [id, row] : db.FindTable(ref.table)->rows()) {
        current.push_back(row);
      }
      rows = &current;
    }
    for (const db::Row& row : *rows) {
      bindings[i].row = &row;
      if (extend(i + 1)) return true;
    }
    return false;
  };
  return extend(0);
}

/// The precision reference: the subset of `instance_sqls` that a cycle
/// consuming `records` must decide affected when polls are neither
/// rationed (no poll budget) nor served from a polling cache. Computed
/// per instance without any of the cycle's machinery — no bind index, no
/// poll consolidation, no join-index answers, no worker pool, and no
/// ImpactAnalyzer::AnalyzePairs. An instance is affected when:
///  - three or more of its FROM entries read updated tables, or two read
///    the same one (an updated self-join), or
///  - ImpactAnalyzer::AnalyzeDelta over all of an updated table's tuples
///    returns affected, or
///  - a polling query AnalyzeDelta returns yields a row on `db`, or
///  - two distinct updated tables R and S appear once each in its FROM
///    list and the pair term holds: BruteForcePairTerm finds a satisfying
///    row of Δ⁻R ⋈ Δ⁻S.
/// Run it after the cycle's updates and before the cycle (the polls read
/// the database the cycle will see). `pair_only`, when given, receives
/// the instances only the pair term decided affected.
inline std::set<std::string> ReferenceAffected(
    db::Database& db, const std::vector<db::UpdateRecord>& records,
    const std::vector<std::string>& instance_sqls,
    std::set<std::string>* pair_only = nullptr) {
  const db::DeltaSet deltas = db::DeltaSet::FromRecords(records);
  const ImpactAnalyzer analyzer(&db);
  std::set<std::string> affected;
  for (const std::string& sql_text : instance_sqls) {
    if (affected.contains(sql_text)) continue;
    auto statement = sql::Parser::ParseSelect(sql_text);
    EXPECT_TRUE(statement.ok()) << sql_text;
    if (!statement.ok()) continue;
    std::vector<const sql::TableRef*> updated;
    for (const sql::TableRef& ref : (*statement)->from) {
      if (!deltas.ForTable(ref.table).empty()) updated.push_back(&ref);
    }
    bool hit = updated.size() > 2 ||
               (updated.size() == 2 &&
                EqualsIgnoreCase(updated[0]->table, updated[1]->table));
    for (const std::string& table : deltas.Tables()) {
      if (hit) break;
      Result<ImpactResult> impact = analyzer.AnalyzeDelta(
          **statement, table, deltas.ForTable(table).MergedRows());
      EXPECT_TRUE(impact.ok()) << sql_text << ": " << impact.status().ToString();
      if (!impact.ok()) continue;
      if (impact->kind == ImpactKind::kAffected) {
        hit = true;
      } else if (impact->kind == ImpactKind::kNeedsPolling) {
        Result<db::QueryResult> rows =
            db.ExecuteSql(sql::StatementToSql(*impact->polling_query));
        EXPECT_TRUE(rows.ok()) << rows.status().ToString();
        hit = rows.ok() && !rows->rows.empty();
      }
    }
    if (!hit && updated.size() == 2) {
      hit = BruteForcePairTerm(db, **statement, deltas, *updated[0],
                               *updated[1]);
      if (hit && pair_only != nullptr) pair_only->insert(sql_text);
    }
    if (hit) affected.insert(sql_text);
  }
  return affected;
}

/// Pages of `sqls[i]` are cached under `page_of(i)`: the pages the
/// reference ejects.
template <typename PageOf>
std::set<std::string> ReferencePages(const std::set<std::string>& affected,
                                     const std::vector<std::string>& sqls,
                                     PageOf page_of) {
  std::set<std::string> pages;
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (affected.contains(sqls[i])) pages.insert(page_of(i));
  }
  return pages;
}

/// The pages of the `sqls` whose type `plane` assigned the exact tier.
/// Tiers are fixed at a type's first registration, so one call after a
/// run covers every cycle of it.
template <typename PageOf>
std::set<std::string> ExactTierPages(const MetadataPlane& plane,
                                     const std::vector<std::string>& sqls,
                                     PageOf page_of) {
  std::set<std::string> pages;
  for (size_t i = 0; i < sqls.size(); ++i) {
    Result<sql::QueryTemplate> tmpl = sql::ExtractTemplateFromSql(sqls[i]);
    EXPECT_TRUE(tmpl.ok()) << sqls[i];
    if (!tmpl.ok()) continue;
    std::optional<TierDecision> tier = plane.TierOf(tmpl->type_id);
    if (tier.has_value() && tier->tier == StrategyTier::kExact) {
      pages.insert(page_of(i));
    }
  }
  return pages;
}

/// One cycle's precision check, split by tier: every eject is one the
/// reference makes, and every reference eject of a non-exact page
/// happened. The exact tier may retain a page the reference ejects — a
/// row change no cached result reads — so its pages are only held to
/// the subset half (staleness is the re-execution oracle's check).
inline void ExpectReferencePrecision(const std::set<std::string>& ejected,
                                     const std::set<std::string>& reference,
                                     const std::set<std::string>& exact_pages) {
  for (const std::string& page : ejected) {
    EXPECT_TRUE(reference.contains(page))
        << "ejected '" << page << "' but the reference did not";
  }
  for (const std::string& page : reference) {
    if (exact_pages.contains(page)) continue;
    EXPECT_TRUE(ejected.contains(page))
        << "reference ejected non-exact '" << page << "' but the cycle did not";
  }
}

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_TESTS_IMPACT_ORACLES_H_
