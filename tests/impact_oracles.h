// Test-side oracles for the invalidation cycle, shared by the seeded
// random-world suites (invalidator_batch_test, invalidator_matcher_test,
// invalidator_strategy_test).
#ifndef CACHEPORTAL_TESTS_IMPACT_ORACLES_H_
#define CACHEPORTAL_TESTS_IMPACT_ORACLES_H_

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/delta.h"
#include "db/update_log.h"
#include "invalidator/impact.h"
#include "invalidator/metadata_plane.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/template.h"

namespace cacheportal::invalidator {

/// The precision reference: the subset of `instance_sqls` that a cycle
/// consuming `records` must decide affected when polls are neither
/// rationed (no poll budget) nor served from a polling cache. Computed
/// per instance without any of the cycle's machinery — no bind index, no
/// poll consolidation, no join-index answers, no worker pool. An
/// instance is affected when:
///  - two or more of its FROM relations were updated, or
///  - ImpactAnalyzer::AnalyzeDelta over all of an updated table's tuples
///    returns affected, or
///  - a polling query AnalyzeDelta returns yields a row on `db`.
/// Run it after the cycle's updates and before the cycle (the polls read
/// the database the cycle will see).
inline std::set<std::string> ReferenceAffected(
    db::Database& db, const std::vector<db::UpdateRecord>& records,
    const std::vector<std::string>& instance_sqls) {
  const db::DeltaSet deltas = db::DeltaSet::FromRecords(records);
  const ImpactAnalyzer analyzer(&db);
  std::set<std::string> affected;
  for (const std::string& sql_text : instance_sqls) {
    if (affected.contains(sql_text)) continue;
    auto statement = sql::Parser::ParseSelect(sql_text);
    EXPECT_TRUE(statement.ok()) << sql_text;
    if (!statement.ok()) continue;
    int updated_relations = 0;
    for (const sql::TableRef& ref : (*statement)->from) {
      if (!deltas.ForTable(ref.table).empty()) ++updated_relations;
    }
    bool hit = updated_relations >= 2;
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
