#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "impact_oracles.h"
#include "invalidator/baseline.h"
#include "invalidator/bind_index.h"
#include "invalidator/invalidator.h"
#include "invalidator/type_matcher.h"
#include "server/jdbc.h"
#include "sniffer/qiurl_map.h"

namespace cacheportal::invalidator {
namespace {

class RecordingSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    invalidated.insert(cache_key);
    return Status::OK();
  }
  std::set<std::string> invalidated;
};

// ---------------------------------------------------------------------------
// Random worlds checked against oracles. The instance pool mixes
// indexable templates with fallbacks the matcher cannot anchor, on every
// strategy tier; all of them go through the bind index. Per cycle, at
// every (workers x shards) point: the ejects cover every page the
// re-execution oracle (BaselineInvalidator) finds stale, and match the
// test-side precision reference (impact_oracles.h) — equal on non-exact
// pages, a subset on exact ones — the worlds ration no polls and cache
// none. Ejects, cycle summaries and
// StatsReport() are byte-identical across the matrix. The workload is
// generated independently of the invalidator's behavior so the runs are
// comparable.
// ---------------------------------------------------------------------------

struct WorldResult {
  std::vector<std::set<std::string>> ejected;    // Per cycle.
  std::vector<std::set<std::string>> stale;      // Re-execution oracle.
  std::vector<std::set<std::string>> reference;  // Precision reference.
  std::set<std::string> exact_pages;             // Pages of exact types.
  std::vector<std::string> summaries;            // Per-cycle report fields.
  std::string final_report;
  MatcherStats matcher;
};

WorldResult RunWorld(uint64_t seed, size_t workers, size_t shards) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  EXPECT_TRUE(db.CreateTable(db::TableSchema("T1",
                                             {{"a", db::ColumnType::kInt},
                                              {"b", db::ColumnType::kString},
                                              {"c", db::ColumnType::kInt}}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(db::TableSchema("T2",
                                             {{"k", db::ColumnType::kString},
                                              {"v", db::ColumnType::kInt}}))
                  .ok());
  for (int i = 0; i < 12; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO T1 VALUES (", rng.Uniform(100), ", 's",
                         rng.Uniform(6), "', ", rng.Uniform(100), ")"))
        .value();
  }
  for (int i = 0; i < 4; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO T2 VALUES ('s", rng.Uniform(6), "', ",
                         rng.Uniform(100), ")"))
        .value();
  }

  // Instance pool mixing indexable templates (=, <, <=, >, >=, BETWEEN,
  // IN, string equality, join anchors) with fallbacks the matcher cannot
  // anchor (OR at the top level, column-to-column comparison, no WHERE).
  std::vector<std::string> sqls;
  for (int i = 0; i < 14; ++i) {
    switch (rng.Uniform(10)) {
      case 0:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a = ", rng.Uniform(100)));
        break;
      case 1:
        sqls.push_back(
            StrCat("SELECT * FROM T1 WHERE b = 's", rng.Uniform(6), "'"));
        break;
      case 2:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a < ", rng.Uniform(100)));
        break;
      case 3:
        sqls.push_back(
            StrCat("SELECT * FROM T1 WHERE a >= ", rng.Uniform(100)));
        break;
      case 4: {
        uint64_t low = rng.Uniform(60);
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a BETWEEN ", low,
                              " AND ", low + rng.Uniform(40)));
        break;
      }
      case 5:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a IN (", rng.Uniform(50),
                              ", ", 50 + rng.Uniform(50), ")"));
        break;
      case 6:
        sqls.push_back(
            StrCat("SELECT T1.a FROM T1, T2 WHERE T1.b = T2.k AND T2.v < ",
                   rng.Uniform(100)));
        break;
      case 7:
        sqls.push_back(StrCat("SELECT * FROM T1 WHERE a = ", rng.Uniform(50),
                              " OR c = ", rng.Uniform(50)));
        break;
      case 8:
        sqls.push_back("SELECT * FROM T1 WHERE a < c");
        break;
      default:
        sqls.push_back("SELECT * FROM T2");
        break;
    }
  }
  auto page_of = [](size_t i) { return StrCat("shop/p", i, "?##"); };

  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.worker_threads = workers;
  options.metadata_shards = shards;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);
  BaselineInvalidator oracle(&db, &map);

  WorldResult result;
  uint64_t seq = db.update_log().LastSeq();
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Re-cache every page each cycle (Add is idempotent for live pages),
    // so instances keep getting exercised after ejection.
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], page_of(i), "/r", 0);
    }
    // Snapshot the (re-)cached instances before this cycle's updates.
    oracle.RunCycle().value();
    int burst = 1 + static_cast<int>(rng.Uniform(4));
    for (int u = 0; u < burst; ++u) {
      switch (rng.Uniform(4)) {
        case 0:
          db.ExecuteSql(StrCat("INSERT INTO T1 VALUES (", rng.Uniform(100),
                               ", 's", rng.Uniform(6), "', ", rng.Uniform(100),
                               ")"))
              .value();
          break;
        case 1:
          db.ExecuteSql(StrCat("INSERT INTO T2 VALUES ('s", rng.Uniform(6),
                               "', ", rng.Uniform(100), ")"))
              .value();
          break;
        case 2:
          db.ExecuteSql(StrCat("DELETE FROM T1 WHERE a > ",
                               40 + rng.Uniform(60)))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("DELETE FROM T2 WHERE v < ", rng.Uniform(30)))
              .value();
          break;
      }
    }
    result.reference.push_back(ReferencePages(
        ReferenceAffected(db, db.update_log().ReadSince(seq), sqls), sqls,
        page_of));
    seq = db.update_log().LastSeq();
    result.stale.push_back(oracle.RunCycle().value().stale_pages);
    sink.invalidated.clear();
    auto report = inv.RunCycle();
    EXPECT_TRUE(report.ok());
    result.ejected.push_back(sink.invalidated);
    result.summaries.push_back(
        StrCat(report->updates, "|", report->new_instances, "|",
               report->checks, "|", report->affected_instances, "|",
               report->polls_issued, "|", report->conservative_invalidations,
               "|", report->pages_invalidated));
  }
  result.exact_pages = ExactTierPages(inv.metadata(), sqls, page_of);
  result.final_report = inv.StatsReport();
  result.matcher = inv.matcher_stats();
  return result;
}

class MatcherDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherDifferentialTest, EjectsMatchOraclesAtAnyWorkerAndShardCount) {
  const uint64_t seed = GetParam();
  WorldResult base = RunWorld(seed, /*workers=*/1, /*shards=*/1);
  for (size_t c = 0; c < base.ejected.size(); ++c) {
    for (const std::string& page : base.stale[c]) {
      EXPECT_TRUE(base.ejected[c].contains(page))
          << "cycle " << c << ": STALE RETENTION of '" << page << "'";
    }
    SCOPED_TRACE(StrCat("cycle ", c));
    ExpectReferencePrecision(base.ejected[c], base.reference[c],
                             base.exact_pages);
  }
  EXPECT_GT(base.matcher.types_compiled, 0u);

  for (size_t workers : {1u, 4u, 8u}) {
    for (size_t shards : {1u, 4u}) {
      if (workers == 1 && shards == 1) continue;
      SCOPED_TRACE(StrCat("workers ", workers, " shards ", shards));
      WorldResult got = RunWorld(seed, workers, shards);
      EXPECT_EQ(got.ejected, base.ejected);
      EXPECT_EQ(got.summaries, base.summaries);
      EXPECT_EQ(got.final_report, base.final_report);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

// The suite's worlds must exercise real pruning: individual seeds may
// have none (all-fallback instance pools), the suite as a whole may not.
TEST(MatcherDifferentialSuiteTest, WorldsExerciseExclusionAndTheFastPath) {
  uint64_t tuples_excluded = 0;
  uint64_t fast_path_instances = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    WorldResult world = RunWorld(seed, /*workers=*/1, /*shards=*/1);
    tuples_excluded += world.matcher.tuples_excluded;
    fast_path_instances += world.matcher.fast_path_instances;
  }
  EXPECT_GT(tuples_excluded, 0u);
  EXPECT_GT(fast_path_instances, 0u);
}

// ---------------------------------------------------------------------------
// A two-table join world in the site benchmark's shape: SmallT and
// LargeT (id, grp, val), single-table pages per group on each table and
// a join page per group, `... WHERE SmallT.grp = LargeT.grp AND
// SmallT.grp = g`. The join type is anchored on SmallT by its own
// conjunct and on LargeT by the anchor derived through the equi-join, and
// a LargeT tuple pins SmallT.grp twice, which the analyzer folds. Most
// cycles update one table (in place, by moving a row's group, or by a
// delete + insert), some both. Per cycle, at workers {1,4} x shards
// {1,4}: ejects cover the re-execution oracle's stale pages and equal
// the precision reference on the join pages (a subset on the exact-tier
// single-table pages), and every point of the matrix is byte-identical.
// ---------------------------------------------------------------------------

struct JoinWorldResult {
  std::vector<std::set<std::string>> ejected;
  std::vector<std::set<std::string>> stale;
  std::vector<std::set<std::string>> reference;
  std::set<std::string> exact_pages;
  std::vector<std::string> summaries;
  std::string final_report;
  uint64_t polls_issued = 0;
  MatcherStats matcher;
};

JoinWorldResult RunJoinWorld(uint64_t seed, size_t workers, size_t shards) {
  constexpr int kGroups = 12;
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  for (const char* table : {"SmallT", "LargeT"}) {
    EXPECT_TRUE(db.CreateTable(db::TableSchema(
                                   table, {{"id", db::ColumnType::kInt},
                                           {"grp", db::ColumnType::kInt},
                                           {"val", db::ColumnType::kInt}}))
                    .ok());
  }
  int next_id = 0;
  for (int g = 0; g < kGroups; ++g) {
    for (int i = 0; i < 2; ++i) {
      db.ExecuteSql(StrCat("INSERT INTO SmallT VALUES (", next_id++, ", ", g,
                           ", ", rng.Uniform(100), ")"))
          .value();
    }
    for (int i = 0; i < 4; ++i) {
      db.ExecuteSql(StrCat("INSERT INTO LargeT VALUES (", next_id++, ", ", g,
                           ", ", rng.Uniform(100), ")"))
          .value();
    }
  }

  std::vector<std::string> sqls;
  for (int g = 0; g < kGroups; ++g) {
    sqls.push_back(StrCat(
        "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
        "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = ",
        g));
    if (g % 2 == 0) {
      sqls.push_back(StrCat("SELECT id, val FROM SmallT WHERE grp = ", g));
    } else {
      sqls.push_back(StrCat("SELECT id, val FROM LargeT WHERE grp = ", g));
    }
  }
  auto page_of = [](size_t i) { return StrCat("site/p", i, "?##"); };

  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.worker_threads = workers;
  options.metadata_shards = shards;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);
  BaselineInvalidator oracle(&db, &map);

  // One update of `table`: in place, a group move, or a delete + insert.
  auto update = [&](const char* table) {
    int g = static_cast<int>(rng.Uniform(kGroups));
    switch (rng.Uniform(3)) {
      case 0:
        db.ExecuteSql(StrCat("UPDATE ", table, " SET val = ",
                             rng.Uniform(100), " WHERE grp = ", g))
            .value();
        break;
      case 1:
        db.ExecuteSql(StrCat("UPDATE ", table, " SET grp = ",
                             rng.Uniform(kGroups), " WHERE grp = ", g))
            .value();
        break;
      default:
        db.ExecuteSql(StrCat("DELETE FROM ", table, " WHERE grp = ", g))
            .value();
        db.ExecuteSql(StrCat("INSERT INTO ", table, " VALUES (", next_id++,
                             ", ", g, ", ", rng.Uniform(100), ")"))
            .value();
        break;
    }
  };

  JoinWorldResult result;
  uint64_t seq = db.update_log().LastSeq();
  for (int cycle = 0; cycle < 16; ++cycle) {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], page_of(i), "/r", 0);
    }
    oracle.RunCycle().value();
    switch (rng.Uniform(5)) {
      case 0:
        update("SmallT");
        update("LargeT");
        break;
      case 1:
      case 2:
        update("SmallT");
        break;
      default:
        for (uint64_t u = 1 + rng.Uniform(2); u > 0; --u) update("LargeT");
        break;
    }
    result.reference.push_back(ReferencePages(
        ReferenceAffected(db, db.update_log().ReadSince(seq), sqls), sqls,
        page_of));
    seq = db.update_log().LastSeq();
    result.stale.push_back(oracle.RunCycle().value().stale_pages);
    sink.invalidated.clear();
    auto report = inv.RunCycle();
    EXPECT_TRUE(report.ok());
    result.ejected.push_back(sink.invalidated);
    result.summaries.push_back(
        StrCat(report->updates, "|", report->new_instances, "|",
               report->checks, "|", report->affected_instances, "|",
               report->polls_issued, "|", report->conservative_invalidations,
               "|", report->pages_invalidated));
  }
  result.exact_pages = ExactTierPages(inv.metadata(), sqls, page_of);
  result.final_report = inv.StatsReport();
  result.polls_issued = inv.stats().polls_issued;
  result.matcher = inv.matcher_stats();
  return result;
}

class JoinWorldDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinWorldDifferentialTest, EjectsMatchOraclesWithFewerPolls) {
  const uint64_t seed = GetParam();
  JoinWorldResult base = RunJoinWorld(seed, /*workers=*/1, /*shards=*/1);
  for (size_t c = 0; c < base.ejected.size(); ++c) {
    SCOPED_TRACE(StrCat("cycle ", c));
    for (const std::string& page : base.stale[c]) {
      EXPECT_TRUE(base.ejected[c].contains(page))
          << "STALE RETENTION of '" << page << "'";
    }
    ExpectReferencePrecision(base.ejected[c], base.reference[c],
                             base.exact_pages);
  }
  // Only the single-table pages are exact-tier, so the check above holds
  // every join page to equality with the reference.
  EXPECT_EQ(base.exact_pages.size(), 12u);
  // What the same world counted before the pinned-column fold, the
  // disjunct dedupe and derived anchors, by seed: every cached join page
  // was polled on every LargeT-only cycle, and only the single-table
  // types took the fast path. Now the derived anchor skips the join
  // instances a LargeT tuple cannot reach, and only those it can are
  // polled.
  const uint64_t kPollsBefore[] = {0, 56, 66, 82, 90};
  const uint64_t kFastPathBefore[] = {0, 255, 187, 257, 247};
  EXPECT_LT(base.polls_issued, kPollsBefore[seed]);
  EXPECT_GT(base.matcher.fast_path_instances, kFastPathBefore[seed]);

  for (size_t workers : {1u, 4u}) {
    for (size_t shards : {1u, 4u}) {
      if (workers == 1 && shards == 1) continue;
      SCOPED_TRACE(StrCat("workers ", workers, " shards ", shards));
      JoinWorldResult got = RunJoinWorld(seed, workers, shards);
      EXPECT_EQ(got.ejected, base.ejected);
      EXPECT_EQ(got.summaries, base.summaries);
      EXPECT_EQ(got.final_report, base.final_report);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinWorldDifferentialTest,
                         ::testing::Range<uint64_t>(1, 5));

// ---------------------------------------------------------------------------
// Both join tables updated in every batch. SmallT and LargeT (id, grp,
// val) and an un-updated Ref(grp, label) holding only the even groups;
// per group a two-table join page, a three-table join page through Ref
// and a single-table page. Each batch updates both tables by id: in
// place, by moving a row's group, or by a delete + insert. Some batches
// also empty one group in both tables (moving its rows to the next
// group): a join row whose two components are both deleted, which only
// the pair term finds. Per cycle, at workers {1,4,8} x shards {1,4}: ejects
// cover the re-execution oracle's stale pages and equal the precision
// reference on the join pages, and every point of the matrix is
// byte-identical.
// ---------------------------------------------------------------------------

struct BothTablesWorldResult {
  std::vector<std::set<std::string>> ejected;
  std::vector<std::set<std::string>> stale;
  std::vector<std::set<std::string>> reference;
  std::set<std::string> exact_pages;
  std::vector<std::string> summaries;
  std::string final_report;
  uint64_t pair_only = 0;  // Reference ejects only the pair term makes.
};

BothTablesWorldResult RunBothTablesWorld(uint64_t seed, size_t workers,
                                         size_t shards) {
  constexpr int kGroups = 8;
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  const char* const kTables[] = {"SmallT", "LargeT"};
  for (const char* table : kTables) {
    EXPECT_TRUE(db.CreateTable(db::TableSchema(
                                   table, {{"id", db::ColumnType::kInt},
                                           {"grp", db::ColumnType::kInt},
                                           {"val", db::ColumnType::kInt}}))
                    .ok());
  }
  EXPECT_TRUE(db.CreateTable(db::TableSchema(
                                 "Ref", {{"grp", db::ColumnType::kInt},
                                         {"label", db::ColumnType::kString}}))
                  .ok());
  // Live rows per table: id -> grp.
  std::map<int, int> live[2];
  int next_id = 0;
  auto insert = [&](int t, int g) {
    db.ExecuteSql(StrCat("INSERT INTO ", kTables[t], " VALUES (", next_id,
                         ", ", g, ", ", rng.Uniform(100), ")"))
        .value();
    live[t][next_id++] = g;
  };
  for (int g = 0; g < kGroups; ++g) {
    for (int i = 0; i < 2; ++i) insert(0, g);
    for (int i = 0; i < 4; ++i) insert(1, g);
    if (g % 2 == 0) {
      db.ExecuteSql(StrCat("INSERT INTO Ref VALUES (", g, ", 'r", g, "')"))
          .value();
    }
  }

  std::vector<std::string> sqls;
  for (int g = 0; g < kGroups; ++g) {
    sqls.push_back(StrCat(
        "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
        "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = ",
        g));
    sqls.push_back(
        StrCat("SELECT COUNT(*) AS n FROM SmallT, LargeT, Ref WHERE "
               "SmallT.grp = LargeT.grp AND LargeT.grp = Ref.grp AND "
               "SmallT.grp = ",
               g));
    sqls.push_back(StrCat("SELECT id, val FROM ", kTables[g % 2],
                          " WHERE grp = ", g));
  }
  auto page_of = [](size_t i) { return StrCat("site/p", i, "?##"); };

  sniffer::QiUrlMap map;
  RecordingSink sink;
  InvalidatorOptions options;
  options.worker_threads = workers;
  options.metadata_shards = shards;
  Invalidator inv(&db, &map, &clock, options);
  inv.AddSink(&sink);
  BaselineInvalidator oracle(&db, &map);

  // A live id of table `t`, drawn uniformly.
  auto pick = [&](int t) {
    auto it = live[t].begin();
    std::advance(it, rng.Uniform(live[t].size()));
    return it->first;
  };
  // One update of table `t` by id: in place, a group move, or a delete +
  // insert into the deleted row's group.
  auto update = [&](int t) {
    int id = pick(t);
    switch (rng.Uniform(3)) {
      case 0:
        db.ExecuteSql(StrCat("UPDATE ", kTables[t], " SET val = ",
                             rng.Uniform(100), " WHERE id = ", id))
            .value();
        break;
      case 1: {
        int g = static_cast<int>(rng.Uniform(kGroups));
        db.ExecuteSql(StrCat("UPDATE ", kTables[t], " SET grp = ", g,
                             " WHERE id = ", id))
            .value();
        live[t][id] = g;
        break;
      }
      default: {
        int g = live[t][id];
        db.ExecuteSql(StrCat("DELETE FROM ", kTables[t], " WHERE id = ", id))
            .value();
        live[t].erase(id);
        insert(t, g);
        break;
      }
    }
  };

  BothTablesWorldResult result;
  uint64_t seq = db.update_log().LastSeq();
  for (int cycle = 0; cycle < 16; ++cycle) {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], page_of(i), "/r", 0);
    }
    oracle.RunCycle().value();
    for (int t = 0; t < 2; ++t) {
      for (uint64_t u = 1 + rng.Uniform(2); u > 0; --u) update(t);
    }
    if (rng.Uniform(3) == 0) {
      // Empty group g in both tables: its rows move to the next group as
      // a delete + insert each.
      int g = static_cast<int>(rng.Uniform(kGroups));
      for (int t = 0; t < 2; ++t) {
        std::vector<int> ids;
        for (const auto& [id, grp] : live[t]) {
          if (grp == g) ids.push_back(id);
        }
        for (int id : ids) {
          db.ExecuteSql(
                StrCat("DELETE FROM ", kTables[t], " WHERE id = ", id))
              .value();
          live[t].erase(id);
          insert(t, (g + 1) % kGroups);
        }
      }
    }
    std::set<std::string> pair_only;
    result.reference.push_back(ReferencePages(
        ReferenceAffected(db, db.update_log().ReadSince(seq), sqls,
                          &pair_only),
        sqls, page_of));
    result.pair_only += pair_only.size();
    seq = db.update_log().LastSeq();
    result.stale.push_back(oracle.RunCycle().value().stale_pages);
    sink.invalidated.clear();
    auto report = inv.RunCycle();
    EXPECT_TRUE(report.ok());
    result.ejected.push_back(sink.invalidated);
    result.summaries.push_back(
        StrCat(report->updates, "|", report->new_instances, "|",
               report->checks, "|", report->affected_instances, "|",
               report->polls_issued, "|", report->conservative_invalidations,
               "|", report->pages_invalidated));
  }
  result.exact_pages = ExactTierPages(inv.metadata(), sqls, page_of);
  result.final_report = inv.StatsReport();
  return result;
}

class BothTablesWorldTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BothTablesWorldTest, EjectsMatchOraclesAcrossTheMatrix) {
  const uint64_t seed = GetParam();
  BothTablesWorldResult base =
      RunBothTablesWorld(seed, /*workers=*/1, /*shards=*/1);
  for (size_t c = 0; c < base.ejected.size(); ++c) {
    SCOPED_TRACE(StrCat("cycle ", c));
    for (const std::string& page : base.stale[c]) {
      EXPECT_TRUE(base.ejected[c].contains(page))
          << "STALE RETENTION of '" << page << "'";
    }
    ExpectReferencePrecision(base.ejected[c], base.reference[c],
                             base.exact_pages);
  }
  // Only the single-table pages are exact-tier: every join page is held
  // to equality with the reference.
  EXPECT_EQ(base.exact_pages.size(), 8u);
  for (size_t workers : {1u, 4u, 8u}) {
    for (size_t shards : {1u, 4u}) {
      if (workers == 1 && shards == 1) continue;
      SCOPED_TRACE(StrCat("workers ", workers, " shards ", shards));
      BothTablesWorldResult got = RunBothTablesWorld(seed, workers, shards);
      EXPECT_EQ(got.ejected, base.ejected);
      EXPECT_EQ(got.summaries, base.summaries);
      EXPECT_EQ(got.final_report, base.final_report);
    }
  }
  // The world exercises the pair term: some reference ejects are made by
  // it alone (4 to 10 per seed).
  EXPECT_GT(base.pair_only, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BothTablesWorldTest,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// The pair term, deterministically: one row per table in group 5, and one
// batch deleting both. Each table's poll looks for the other's row in the
// current state and finds nothing; only the pair term sees the join row
// the batch removed.
// ---------------------------------------------------------------------------

class PairTermTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* table : {"R", "S", "T"}) {
      ASSERT_TRUE(db_.CreateTable(db::TableSchema(
                                      table, {{"id", db::ColumnType::kInt},
                                              {"g", db::ColumnType::kInt}}))
                      .ok());
    }
    for (int g : {5, 6}) {
      db_.ExecuteSql(StrCat("INSERT INTO R VALUES (", g, ", ", g, ")"))
          .value();
      db_.ExecuteSql(StrCat("INSERT INTO S VALUES (", g, ", ", g, ")"))
          .value();
    }
    db_.ExecuteSql("INSERT INTO T VALUES (1, 5)").value();
    inv_.AddSink(&sink_);
    ASSERT_TRUE(inv_.RunCycle().ok());  // Drain the seeding inserts.
  }

  /// Caches `sql` under the page key `page?##`.
  void Cache(const std::string& sql, const std::string& page) {
    map_.Add(sql, StrCat(page, "?##"), "/r", 0);
  }

  std::set<std::string> Cycle() {
    sink_.invalidated.clear();
    EXPECT_TRUE(inv_.RunCycle().ok());
    return sink_.invalidated;
  }

  ManualClock clock_;
  db::Database db_{&clock_};
  sniffer::QiUrlMap map_;
  RecordingSink sink_;
  Invalidator inv_{&db_, &map_, &clock_, InvalidatorOptions{}};
};

TEST_F(PairTermTest, DeletingBothJoinPartnersEjectsThePage) {
  Cache("SELECT COUNT(*) FROM R, S WHERE R.g = S.g AND R.g = 5", "pair/5");
  Cache("SELECT COUNT(*) FROM R, S WHERE R.g = S.g AND R.g = 6", "pair/6");
  BaselineInvalidator oracle(&db_, &map_);
  oracle.RunCycle().value();
  EXPECT_TRUE(Cycle().empty());  // Registers the instances.

  db_.ExecuteSql("DELETE FROM R WHERE g = 5").value();
  db_.ExecuteSql("DELETE FROM S WHERE g = 5").value();
  std::set<std::string> stale = oracle.RunCycle().value().stale_pages;
  EXPECT_EQ(stale, std::set<std::string>{"pair/5?##"});
  EXPECT_EQ(Cycle(), std::set<std::string>{"pair/5?##"});
  // Group 6 was neither probed nor polled.
  EXPECT_EQ(inv_.stats().polls_issued, 0u);
}

TEST_F(PairTermTest, AThirdTableTurnsThePairIntoAPoll) {
  // T holds group 5 only: deleting both partners of group 5 removes a
  // join row, of group 6 removes nothing (the join had no row).
  Cache("SELECT COUNT(*) FROM R, S, T WHERE R.g = S.g AND S.g = T.g AND "
        "R.g = 5",
        "triple/5");
  Cache("SELECT COUNT(*) FROM R, S, T WHERE R.g = S.g AND S.g = T.g AND "
        "R.g = 6",
        "triple/6");
  EXPECT_TRUE(Cycle().empty());

  db_.ExecuteSql("DELETE FROM R WHERE g = 5").value();
  db_.ExecuteSql("DELETE FROM S WHERE g = 5").value();
  db_.ExecuteSql("DELETE FROM R WHERE g = 6").value();
  db_.ExecuteSql("DELETE FROM S WHERE g = 6").value();
  EXPECT_EQ(Cycle(), std::set<std::string>{"triple/5?##"});
  EXPECT_GT(inv_.stats().polls_issued, 0u);
}

TEST_F(PairTermTest, SelfJoinsAndThreeUpdatedTablesKeepTheGuard) {
  Cache("SELECT COUNT(*) FROM R, R AS R2 WHERE R.g = R2.g AND R.g = 6",
        "self/6");
  Cache("SELECT COUNT(*) FROM R, S, T WHERE R.g = S.g AND S.g = T.g AND "
        "R.g = 6",
        "triple/6");
  Cache("SELECT COUNT(*) FROM R, S WHERE R.g = S.g AND R.g = 6", "pair/6");
  EXPECT_TRUE(Cycle().empty());

  // Rows of group 7 reach none of the three WHERE clauses.
  db_.ExecuteSql("INSERT INTO R VALUES (7, 7)").value();
  db_.ExecuteSql("INSERT INTO S VALUES (7, 7)").value();
  db_.ExecuteSql("INSERT INTO T VALUES (7, 7)").value();
  EXPECT_EQ(Cycle(), (std::set<std::string>{"self/6?##", "triple/6?##"}));
  EXPECT_EQ(inv_.stats().polls_issued, 0u);
}

// ---------------------------------------------------------------------------
// Boundary units: each relational operator's index probe must exclude
// exactly the tuples whose WHERE folds definite FALSE — never tuples that
// fold NULL (type-mismatched or NULL-tainted comparisons), which stay
// candidates for the interpreted analyzer.
// ---------------------------------------------------------------------------

class MatcherBoundaryTest : public ::testing::Test {
 protected:
  /// In a fresh world: registers `sql` as a cached page, applies
  /// `insert_sql`, runs one cycle, and returns
  /// (pages_invalidated, tuples_excluded). Everything is local so each
  /// probe sees exactly one delta tuple.
  std::pair<uint64_t, uint64_t> Probe(const std::string& sql,
                                      const std::string& insert_sql) {
    ManualClock clock;
    db::Database db(&clock);
    EXPECT_TRUE(
        db.CreateTable(db::TableSchema("T1", {{"a", db::ColumnType::kInt},
                                              {"b", db::ColumnType::kString},
                                              {"c", db::ColumnType::kInt}}))
            .ok());
    sniffer::QiUrlMap map;
    RecordingSink sink;
    Invalidator inv(&db, &map, &clock, {});
    inv.AddSink(&sink);
    map.Add(sql, "shop/page?##", "/r", 0);
    db.ExecuteSql(insert_sql).value();
    auto report = inv.RunCycle();
    EXPECT_TRUE(report.ok());
    return {report->pages_invalidated, inv.matcher_stats().tuples_excluded};
  }
};

TEST_F(MatcherBoundaryTest, LessThanEdge) {
  auto edge = Probe("SELECT * FROM T1 WHERE a < 10",
                    "INSERT INTO T1 VALUES (10, 's', 0)");
  EXPECT_EQ(edge.first, 0u);
  EXPECT_EQ(edge.second, 1u);  // 10 < 10 is FALSE: provably unaffected.
  auto hit = Probe("SELECT * FROM T1 WHERE a < 10",
                   "INSERT INTO T1 VALUES (9, 's', 0)");
  EXPECT_EQ(hit.first, 1u);  // 9 < 10: candidate, confirmed affected.
}

TEST_F(MatcherBoundaryTest, LessOrEqualEdge) {
  auto above = Probe("SELECT * FROM T1 WHERE a <= 10",
                     "INSERT INTO T1 VALUES (11, 's', 0)");
  EXPECT_EQ(above.first, 0u);
  EXPECT_EQ(above.second, 1u);
  auto edge = Probe("SELECT * FROM T1 WHERE a <= 10",
                    "INSERT INTO T1 VALUES (10, 's', 0)");
  EXPECT_EQ(edge.first, 1u);  // The boundary value itself is a hit.
}

TEST_F(MatcherBoundaryTest, BetweenEdges) {
  const char* sql = "SELECT * FROM T1 WHERE a BETWEEN 10 AND 20";
  auto below = Probe(sql, "INSERT INTO T1 VALUES (9, 's', 0)");
  EXPECT_EQ(below.first, 0u);
  EXPECT_EQ(below.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (10, 's', 0)").first, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (20, 's', 0)").first, 1u);
  auto above = Probe(sql, "INSERT INTO T1 VALUES (21, 's', 0)");
  EXPECT_EQ(above.first, 0u);
  EXPECT_GT(above.second, 0u);  // High bound filtered in the probe.
}

TEST_F(MatcherBoundaryTest, InListMissAndHit) {
  const char* sql = "SELECT * FROM T1 WHERE a IN (5, 7)";
  auto miss = Probe(sql, "INSERT INTO T1 VALUES (6, 's', 0)");
  EXPECT_EQ(miss.first, 0u);
  EXPECT_EQ(miss.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)").first, 1u);
}

TEST_F(MatcherBoundaryTest, MixedClassInListStillExcludesNumericMiss) {
  // 'x' never equals an int (incomparable items are plain misses), so a
  // tuple matching neither 5 nor any string key folds FALSE — excludable.
  const char* sql = "SELECT * FROM T1 WHERE a IN ('x', 5)";
  auto miss = Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)");
  EXPECT_EQ(miss.first, 0u);
  EXPECT_EQ(miss.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (5, 's', 0)").first, 1u);
}

TEST_F(MatcherBoundaryTest, NullInListNeverExcludes) {
  // `a IN (5, NULL)` with a=7 folds NULL, not FALSE: the instance must
  // stay a candidate (the interpreted analyzer then decides unaffected).
  const char* sql = "SELECT * FROM T1 WHERE a IN (5, NULL)";
  auto probe = Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)");
  EXPECT_EQ(probe.first, 0u);
  EXPECT_EQ(probe.second, 0u);
}

TEST_F(MatcherBoundaryTest, CrossClassEqualityNeverExcludes) {
  // A string bind against an int column compares NULL for every tuple;
  // exclusion would be unsound even though the verdict is unaffected.
  const char* sql = "SELECT * FROM T1 WHERE a = 'hello'";
  auto probe = Probe(sql, "INSERT INTO T1 VALUES (7, 's', 0)");
  EXPECT_EQ(probe.first, 0u);
  EXPECT_EQ(probe.second, 0u);
}

TEST_F(MatcherBoundaryTest, StringEqualityExcludesAndHits) {
  const char* sql = "SELECT * FROM T1 WHERE b = 'wanted'";
  auto miss = Probe(sql, "INSERT INTO T1 VALUES (1, 'other', 0)");
  EXPECT_EQ(miss.first, 0u);
  EXPECT_EQ(miss.second, 1u);
  EXPECT_EQ(Probe(sql, "INSERT INTO T1 VALUES (1, 'wanted', 0)").first, 1u);
}

// ---------------------------------------------------------------------------
// Consolidated polling: instances of one type polling one target merge
// into a single disjunctive round trip whose rows are demultiplexed per
// instance — with no change in which pages are ejected.
// ---------------------------------------------------------------------------

class ConsolidationTest : public ::testing::Test {
 protected:
  ConsolidationTest() : db_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(db::TableSchema(
                                    "Car", {{"maker", db::ColumnType::kString},
                                            {"model", db::ColumnType::kString},
                                            {"price", db::ColumnType::kInt}}))
                    .ok());
    ASSERT_TRUE(
        db_.CreateTable(db::TableSchema(
                            "Mileage", {{"model", db::ColumnType::kString},
                                        {"EPA", db::ColumnType::kInt}}))
            .ok());
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Avalon', 25)").value();
  }

  ManualClock clock_;
  db::Database db_;
};

TEST_F(ConsolidationTest, DemuxSelectsExactlyTheSatisfiedMembers) {
  // Four instances of one join type, with EPA thresholds straddling the
  // lone Mileage row (EPA=25): only the 30 and 40 thresholds are hits.
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db_, &map, &clock_, {});
  inv.AddSink(&sink);
  for (int threshold : {10, 20, 30, 40}) {
    map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Mileage.EPA < ",
                   threshold),
            StrCat("shop/epa", threshold, "?##"), "/r", 0);
  }
  db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)").value();
  auto report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  std::set<std::string> expect = {"shop/epa30?##", "shop/epa40?##"};
  EXPECT_EQ(sink.invalidated, expect);
  // polls_issued counts logical member polls; consolidation shows up
  // only in the physical round-trip count.
  EXPECT_EQ(report->polls_issued, 4u);
  EXPECT_EQ(inv.matcher_stats().poll_round_trips, 1u);
  EXPECT_EQ(inv.matcher_stats().consolidated_polls, 1u);
  EXPECT_EQ(inv.matcher_stats().consolidated_members, 4u);
}

/// Registers `members` instances of one join type whose every poll hits
/// (EPA thresholds above the lone row), runs one cycle, and checks the
/// counts known by construction: every member ejected, one logical poll
/// each, ceil(members / 64) round trips.
void ExpectOneBucketOf(int members, db::Database* db, ManualClock* clock) {
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(db, &map, clock, {});
  inv.AddSink(&sink);
  for (int i = 0; i < members; ++i) {
    map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Mileage.EPA < ",
                   100 + i),
            StrCat("shop/page", i, "?##"), "/r", 0);
  }
  db->ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)").value();
  auto report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(sink.invalidated.size(), static_cast<size_t>(members));
  EXPECT_EQ(report->polls_issued, static_cast<uint64_t>(members));
  EXPECT_EQ(inv.matcher_stats().poll_round_trips,
            static_cast<uint64_t>((members + 63) / 64));
  EXPECT_EQ(inv.matcher_stats().consolidated_members,
            static_cast<uint64_t>(members));
}

/// Answers polls from the database and records each statement's text.
class RecordingConnection : public server::Connection {
 public:
  explicit RecordingConnection(db::Database* db) : db_(db) {}
  Result<db::QueryResult> ExecuteQuery(const std::string& sql) override {
    statements.push_back(sql);
    return db_->ExecuteSql(sql);
  }
  Result<int64_t> ExecuteUpdate(const std::string&) override {
    return Status::Internal("polls never update");
  }
  std::vector<std::string> statements;

 private:
  db::Database* db_;
};

TEST_F(ConsolidationTest, SharedResidualsAreEmittedOnce) {
  // Every member's residual for a Car tuple is `'<model>' =
  // Mileage.model`: the merged statement carries it once, and the demux
  // still decides — and charges — each member.
  sniffer::QiUrlMap map;
  RecordingSink sink;
  RecordingConnection polls(&db_);
  Invalidator inv(&db_, &map, &clock_, {});
  inv.AddSink(&sink);
  inv.SetPollingConnection(&polls);
  for (int i = 0; i < 5; ++i) {
    map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Car.price < ",
                   20000 + i),
            StrCat("shop/p", i, "?##"), "/r", 0);
  }
  const std::string kFocusPoll =
      "SELECT * FROM Mileage WHERE 'Focus' = Mileage.model";
  // Focus has no Mileage row: nothing is ejected.
  db_.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 15000)").value();
  auto report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(polls.statements, std::vector<std::string>{kFocusPoll});
  EXPECT_EQ(report->polls_issued, 5u);
  EXPECT_TRUE(sink.invalidated.empty());

  // An in-place update: the old and new images leave one residual.
  polls.statements.clear();
  db_.ExecuteSql("UPDATE Car SET price = 16000 WHERE model = 'Focus'").value();
  report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(polls.statements, std::vector<std::string>{kFocusPoll});
  EXPECT_TRUE(sink.invalidated.empty());

  // Avalon has a partner: every member is a hit.
  polls.statements.clear();
  db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)").value();
  report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(polls.statements,
            std::vector<std::string>{
                "SELECT * FROM Mileage WHERE 'Avalon' = Mileage.model"});
  EXPECT_EQ(sink.invalidated.size(), 5u);
  EXPECT_EQ(report->polls_issued, 5u);
}

TEST_F(ConsolidationTest, ReducesPollRoundTripsAtLeastThreefold) {
  // Twelve members fit one chunk: one round trip instead of twelve.
  ExpectOneBucketOf(12, &db_, &clock_);
}

TEST_F(ConsolidationTest, ChunkingSplitsLargeBuckets) {
  // 130 members: two full chunks of 64 and a partial chunk of 2.
  ExpectOneBucketOf(130, &db_, &clock_);
}

// ---------------------------------------------------------------------------
// TypeMatcher compilation units.
// ---------------------------------------------------------------------------

TEST(TypeMatcherTest, SelfJoinFallsBackToInterpreted) {
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "Car", {{"maker", db::ColumnType::kString},
                                         {"model", db::ColumnType::kString},
                                         {"price", db::ColumnType::kInt}}))
                  .ok());
  sniffer::QiUrlMap map;
  RecordingSink sink;
  Invalidator inv(&db, &map, &clock, {});
  inv.AddSink(&sink);
  // Two FROM occurrences of Car: an anchor on either would be unsound.
  map.Add("SELECT x.model FROM Car x, Car y WHERE x.price < 10000 AND "
          "y.price > 50000 AND x.maker = y.maker",
          "shop/selfjoin?##", "/r", 0);
  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 60000)").value();
  auto report = inv.RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(inv.matcher_stats().tuples_excluded, 0u);
  EXPECT_EQ(inv.metadata().NumIndexedInstances(), 0u);
}

}  // namespace
}  // namespace cacheportal::invalidator
