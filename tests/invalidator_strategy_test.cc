#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "db/delta.h"
#include "impact_oracles.h"
#include "invalidator/baseline.h"
#include "invalidator/invalidator.h"
#include "invalidator/stages.h"
#include "invalidator/strategy.h"
#include "sniffer/qiurl_map.h"
#include "sql/parser.h"

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

void CreateCarTable(db::Database* db) {
  ASSERT_TRUE(db->CreateTable(db::TableSchema(
                                  "Car", {{"id", db::ColumnType::kInt},
                                          {"maker", db::ColumnType::kString},
                                          {"model", db::ColumnType::kString},
                                          {"price", db::ColumnType::kInt},
                                          {"stock", db::ColumnType::kInt}}))
                  .ok());
}

void CreateMileageTable(db::Database* db) {
  ASSERT_TRUE(
      db->CreateTable(db::TableSchema(
                          "Mileage", {{"model", db::ColumnType::kString},
                                      {"EPA", db::ColumnType::kInt}}))
          .ok());
}

// ---------------------------------------------------------------------------
// Tier assignment corpus: each template lands on the tier DecideTier
// promises for its shape, with the demotion reason recorded (DESIGN.md
// §16). Driven through the real registration path so the assignment is
// the one the pipeline will dispatch on.
// ---------------------------------------------------------------------------

class TierAssignmentTest : public ::testing::Test {
 protected:
  TierAssignmentTest() : db_(&clock_), inv_(&db_, &map_, &clock_) {
    CreateCarTable(&db_);
    CreateMileageTable(&db_);
  }

  TierDecision TierFor(const std::string& sql) {
    EXPECT_TRUE(inv_.RegisterInstance(sql).ok()) << sql;
    const QueryInstance* instance = inv_.metadata().FindInstance(sql);
    EXPECT_NE(instance, nullptr) << sql;
    std::optional<TierDecision> tier =
        inv_.metadata().TierOf(instance->type_id);
    EXPECT_TRUE(tier.has_value()) << sql;
    return tier.value_or(TierDecision{});
  }

  ManualClock clock_;
  db::Database db_;
  sniffer::QiUrlMap map_;
  Invalidator inv_;
};

TEST_F(TierAssignmentTest, SingleTableShapesAreExact) {
  for (const char* sql : {
           "SELECT * FROM Car WHERE price < 20000",
           "SELECT maker, model FROM Car WHERE price IN (9000, 18000)",
           "SELECT model FROM Car WHERE price BETWEEN 5000 AND 20000",
           "SELECT * FROM Car",
           "SELECT maker FROM Car WHERE price > 100 ORDER BY model",
           "SELECT * FROM Car WHERE price = 9000 OR maker = 'Ford'",
       }) {
    TierDecision decision = TierFor(sql);
    EXPECT_EQ(decision.tier, StrategyTier::kExact) << sql;
    EXPECT_TRUE(decision.reason.empty()) << sql << " -> " << decision.reason;
  }
}

TEST_F(TierAssignmentTest, IneligibleShapesDemoteWithNamedReasons) {
  struct Case {
    const char* sql;
    StrategyTier tier;
    const char* reason;
  };
  const Case cases[] = {
      // Multi-table FROM: interpreted analysis residualizes on nearly
      // every delta, so the steady state is polling.
      {"SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model",
       StrategyTier::kPoll, "multi-table FROM"},
      // Self-join (aliases of one table) is its own blocker: row images
      // of one side say nothing about the other side's bindings.
      {"SELECT a.model FROM Car a, Car b WHERE a.price < b.price",
       StrategyTier::kPoll, "self-join"},
      // LIKE has no row-image evaluator; the matcher cannot anchor it
      // either, so it stays on the interpreted path.
      {"SELECT * FROM Car WHERE maker LIKE 'F%'", StrategyTier::kInterpret,
       "LIKE pattern"},
      // A NULL comparand makes 3VL satisfaction unknowable from images,
      // but the matcher still anchors the equality — compiled tier.
      {"SELECT * FROM Car WHERE maker = NULL", StrategyTier::kCompiledBatch,
       "NULL comparand"},
  };
  for (const Case& c : cases) {
    TierDecision decision = TierFor(c.sql);
    EXPECT_EQ(decision.tier, c.tier) << c.sql;
    EXPECT_EQ(decision.reason, c.reason) << c.sql;
  }
}

// ---------------------------------------------------------------------------
// ExactInstanceAffected units: the row-image rule over hand-built deltas,
// pair semantics included.
// ---------------------------------------------------------------------------

class ExactRuleTest : public ::testing::Test {
 protected:
  ExactRuleTest()
      : schema_("Car", {{"id", db::ColumnType::kInt},
                        {"maker", db::ColumnType::kString},
                        {"model", db::ColumnType::kString},
                        {"price", db::ColumnType::kInt},
                        {"stock", db::ColumnType::kInt}}) {}

  bool Affected(const std::string& sql, const db::TableDelta& delta) {
    Result<std::unique_ptr<sql::SelectStatement>> statement =
        sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(statement.ok()) << sql;
    return ExactInstanceAffected(**statement, schema_, delta);
  }

  static db::Row Car(int64_t id, const std::string& maker,
                     const std::string& model, int64_t price, int64_t stock) {
    return {sql::Value::Int(id), sql::Value::String(maker),
            sql::Value::String(model), sql::Value::Int(price),
            sql::Value::Int(stock)};
  }

  db::TableSchema schema_;
};

TEST_F(ExactRuleTest, UnpairedRowsEjectIffWhereSatisfied) {
  db::TableDelta delta;
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 3));
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
  EXPECT_FALSE(Affected("SELECT * FROM Car WHERE price > 20000", delta));
  db::TableDelta deletion;
  deletion.deletes.push_back(Car(1, "Ford", "Focus", 9000, 3));
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", deletion));
  EXPECT_FALSE(Affected("SELECT * FROM Car WHERE price > 20000", deletion));
  // Absent WHERE: every membership change shows.
  EXPECT_TRUE(Affected("SELECT * FROM Car", delta));
}

TEST_F(ExactRuleTest, PairedFlipEjects) {
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 25000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 3));
  delta.update_pairs.emplace_back(0, 0);
  // 25000 -> 9000 crosses the predicate: the row enters the result.
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
}

TEST_F(ExactRuleTest, PairedIrrelevantChangeRetains) {
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 9000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 7));
  delta.update_pairs.emplace_back(0, 0);
  // stock changed; the result reads maker/model and filters on price —
  // bytes provably unchanged, the cached page stays. This retention is
  // exactly where the exact tier beats the conservative pipeline.
  EXPECT_FALSE(
      Affected("SELECT maker, model FROM Car WHERE price < 20000", delta));
  // But a result that reads stock (via * or explicitly) must eject.
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
  EXPECT_TRUE(Affected("SELECT stock FROM Car WHERE price < 20000", delta));
  // ORDER BY references count as reads too.
  EXPECT_TRUE(Affected(
      "SELECT maker FROM Car WHERE price < 20000 ORDER BY stock", delta));
}

TEST_F(ExactRuleTest, PairedBothOutsideIsInvisible) {
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 25000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 30000, 3));
  delta.update_pairs.emplace_back(0, 0);
  EXPECT_FALSE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
}

TEST_F(ExactRuleTest, SplitPairDegradesToUnpairedRule) {
  // The same update with its halves unpaired (split across delta
  // windows): both images satisfy, so both trip the unpaired rule — a
  // conservative eject, never a retention.
  db::TableDelta delta;
  delta.deletes.push_back(Car(1, "Ford", "Focus", 9000, 3));
  delta.inserts.push_back(Car(1, "Ford", "Focus", 9000, 7));
  EXPECT_TRUE(
      Affected("SELECT maker, model FROM Car WHERE price < 20000", delta));
}

TEST_F(ExactRuleTest, MalformedPairEjectsConservatively) {
  db::TableDelta delta;
  delta.inserts.push_back(Car(1, "Ford", "Focus", 25000, 3));
  delta.update_pairs.emplace_back(5, 0);  // Dangling deletes index.
  EXPECT_TRUE(Affected("SELECT * FROM Car WHERE price < 20000", delta));
}

// ---------------------------------------------------------------------------
// Differential property (the exact tier's correctness gate): seeded
// random exact-only workloads with UPDATEs split between selected and
// unselected columns, at {1,4} workers x {1,4} metadata shards. Per
// cycle: (a) the ejects are a SUBSET of the precision reference's
// (impact_oracles.h — the per-instance AnalyzeDelta + poll rule the
// conservative path follows; the tier only removes false ejects), and
// (b) the re-execution oracle finds ZERO stale retentions (every page
// whose result actually changed was ejected). The workload issues zero
// polls.
// ---------------------------------------------------------------------------

struct StrategyWorld {
  std::vector<std::set<std::string>> ejected;  // Per cycle.
  std::vector<std::set<std::string>> oracle_stale;
  std::vector<std::set<std::string>> reference;  // Precision reference.
  size_t pages = 0;
  size_t exact_pages = 0;  // Pages whose type landed on the exact tier.
  uint64_t polls_issued = 0;
  std::string final_report;
};

StrategyWorld RunStrategyWorld(uint64_t seed, size_t workers, size_t shards) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTable(&db);
  for (int i = 0; i < 16; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES (", i, ", 'm",
                         rng.Uniform(4), "', 'x", rng.Uniform(8), "', ",
                         rng.Uniform(30000), ", ", rng.Uniform(10), ")"))
        .value();
  }

  // Exact-eligible pool: single-table, schema-resolved, function-free.
  // Several shapes read a strict subset of the columns so unselected-
  // column UPDATEs separate the exact verdict from the conservative one.
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    switch (rng.Uniform(6)) {
      case 0:
        sqls.push_back(
            StrCat("SELECT * FROM Car WHERE price < ", rng.Uniform(30000)));
        break;
      case 1:
        sqls.push_back(StrCat("SELECT maker, model FROM Car WHERE price > ",
                              rng.Uniform(30000)));
        break;
      case 2:
        sqls.push_back(
            StrCat("SELECT model FROM Car WHERE stock = ", rng.Uniform(10)));
        break;
      case 3:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE id IN (",
                              rng.Uniform(16), ", ", rng.Uniform(16), ")"));
        break;
      case 4: {
        uint64_t low = rng.Uniform(20000);
        sqls.push_back(StrCat("SELECT maker FROM Car WHERE price BETWEEN ",
                              low, " AND ", low + rng.Uniform(10000),
                              " ORDER BY model"));
        break;
      }
      default:
        sqls.push_back(
            StrCat("SELECT maker FROM Car WHERE model = 'x", rng.Uniform(8),
                   "'"));
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

  StrategyWorld result;
  uint64_t seq = db.update_log().LastSeq();
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], page_of(i), "/r", 0);
    }
    // Let the oracle snapshot newly (re-)cached instances BEFORE the
    // updates, so its diff covers exactly this cycle's changes.
    oracle.RunCycle().value();
    int burst = 1 + static_cast<int>(rng.Uniform(4));
    for (int u = 0; u < burst; ++u) {
      switch (rng.Uniform(6)) {
        case 0:
          db.ExecuteSql(StrCat("INSERT INTO Car VALUES (", 16 + rng.Uniform(64),
                               ", 'm", rng.Uniform(4), "', 'x", rng.Uniform(8),
                               "', ", rng.Uniform(30000), ", ", rng.Uniform(10),
                               ")"))
              .value();
          break;
        case 1:
          db.ExecuteSql(
                StrCat("DELETE FROM Car WHERE price > ", 20000 + rng.Uniform(10000)))
              .value();
          break;
        case 2:
          // Unselected-column update for the column-subset shapes.
          db.ExecuteSql(StrCat("UPDATE Car SET stock = ", rng.Uniform(10),
                               " WHERE id = ", rng.Uniform(16)))
              .value();
          break;
        case 3:
          db.ExecuteSql(StrCat("UPDATE Car SET price = ", rng.Uniform(30000),
                               " WHERE id = ", rng.Uniform(16)))
              .value();
          break;
        case 4:
          db.ExecuteSql(StrCat("UPDATE Car SET model = 'x", rng.Uniform(8),
                               "' WHERE stock = ", rng.Uniform(10)))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("UPDATE Car SET maker = 'm", rng.Uniform(4),
                               "' WHERE price < ", rng.Uniform(30000)))
              .value();
          break;
      }
    }
    result.reference.push_back(ReferencePages(
        ReferenceAffected(db, db.update_log().ReadSince(seq), sqls), sqls,
        page_of));
    seq = db.update_log().LastSeq();
    BaselineInvalidator::CycleResult truth = oracle.RunCycle().value();
    sink.invalidated.clear();
    inv.RunCycle().value();
    result.ejected.push_back(sink.invalidated);
    result.oracle_stale.push_back(truth.stale_pages);
  }
  result.pages = sqls.size();
  result.exact_pages = ExactTierPages(inv.metadata(), sqls, page_of).size();
  result.polls_issued = inv.stats().polls_issued;
  result.final_report = inv.StatsReport();
  return result;
}

class StrategyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyDifferentialTest, ExactIsSubsetOfConservativeAndNeverStale) {
  const uint64_t seed = GetParam();
  uint64_t retained = 0;
  for (size_t workers : {1u, 4u}) {
    for (size_t shards : {1u, 4u}) {
      SCOPED_TRACE(StrCat("seed ", seed, " workers ", workers, " shards ",
                          shards));
      StrategyWorld precise = RunStrategyWorld(seed, workers, shards);
      EXPECT_EQ(precise.exact_pages, precise.pages);
      ASSERT_EQ(precise.ejected.size(), precise.reference.size());
      for (size_t c = 0; c < precise.ejected.size(); ++c) {
        // (a) Subset: the exact tier removes ejects, never adds them.
        for (const std::string& page : precise.ejected[c]) {
          EXPECT_TRUE(precise.reference[c].contains(page))
              << "cycle " << c << ": exact ejected '" << page
              << "' but the precision reference did not";
        }
        // (b) Zero stale retention: every page whose re-executed result
        // changed was ejected by the exact run.
        for (const std::string& page : precise.oracle_stale[c]) {
          EXPECT_TRUE(precise.ejected[c].contains(page))
              << "cycle " << c << ": STALE RETENTION of '" << page << "'";
        }
        retained += precise.reference[c].size() - precise.ejected[c].size();
      }
      // The workload is exact-only: the exact run never polls.
      EXPECT_EQ(precise.polls_issued, 0u);
    }
  }
  // Not asserted per seed (a seed may legitimately produce only flips),
  // but visible in the test record: how many false ejects the tier
  // removed across the matrix.
  RecordProperty("false_ejects_removed", static_cast<int>(retained));
}

TEST_P(StrategyDifferentialTest, ExactRunIsDeterministicAcrossTheMatrix) {
  const uint64_t seed = GetParam();
  StrategyWorld base = RunStrategyWorld(seed, 1, 1);
  for (size_t workers : {1u, 4u}) {
    for (size_t shards : {1u, 4u}) {
      StrategyWorld got = RunStrategyWorld(seed, workers, shards);
      ASSERT_EQ(got.ejected.size(), base.ejected.size());
      for (size_t c = 0; c < base.ejected.size(); ++c) {
        EXPECT_EQ(got.ejected[c], base.ejected[c])
            << "seed " << seed << " workers " << workers << " shards "
            << shards << " cycle " << c;
      }
      EXPECT_EQ(got.final_report, base.final_report)
          << "seed " << seed << " workers " << workers << " shards " << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyDifferentialTest,
                         ::testing::Range<uint64_t>(1, 12));

// ---------------------------------------------------------------------------
// Overload-rung interaction: exact verdicts are immune to the economy and
// conservative rungs (they issue no polls, so there is nothing to take),
// and only the emergency flush overrides them.
// ---------------------------------------------------------------------------

/// Owns every component a StageEnv borrows (invalidator_pipeline_test's
/// fixture).
struct StageFixture {
  StageFixture() : db(&clock), plane(&db, 2), info(&db),
                   scheduler(/*max_polls_per_cycle=*/0) {}

  StageEnv Env() {
    StageEnv env;
    env.database = &db;
    env.map = &map;
    env.clock = &clock;
    env.options = &options;
    env.plane = &plane;
    env.info = &info;
    env.scheduler = &scheduler;
    env.sinks = &sinks;
    env.stats = &stats;
    env.cycle_matcher_stats = &cycle_matcher_stats;
    env.last_update_seq = &last_update_seq;
    env.last_map_epoch = &last_map_epoch;
    env.execute_poll = [this](const std::string& poll_sql) {
      return db.ExecuteSql(poll_sql);
    };
    return env;
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  MetadataPlane plane;
  InformationManager info;
  InvalidationScheduler scheduler;
  RecordingSink sink;
  std::vector<InvalidationSink*> sinks = {&sink};
  InvalidatorStats stats;
  MatcherStats cycle_matcher_stats;
  uint64_t last_update_seq = 0;
  std::optional<uint64_t> last_map_epoch;
};

TEST(StrategyRungTest, ConservativeRungNeverCondemnsExactInstances) {
  StageFixture fx;
  CreateCarTable(&fx.db);
  CreateMileageTable(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES (1, 'Ford', 'Focus', 9000, 3)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  // An exact instance a stock-only update provably does not affect, and
  // a join instance the same cycle cannot decide without a poll.
  const std::string exact_sql = "SELECT maker, model FROM Car WHERE price < 20000";
  const std::string join_sql =
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model";
  fx.map.Add(exact_sql, "p-exact", "/r", 0);
  fx.map.Add(join_sql, "p-join", "/r", 0);
  fx.db.ExecuteSql("UPDATE Car SET stock = 9 WHERE id = 1").value();
  fx.db.ExecuteSql("INSERT INTO Mileage VALUES ('Focus', 30)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  // IngestStage resolves the cycle's policy itself, so the rung under
  // test is installed after it runs (the PollStage-test idiom).
  ctx.policy = MakeStagePolicy(DegradationMode::kConservative, fx.options);
  ASSERT_TRUE(ctx.policy.skip_polls);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(PollStage(fx.Env()).Run(ctx).ok());
  // The join instance is condemned (skip_polls); the exact instance's
  // precise "unaffected" verdict survives the rung untouched.
  EXPECT_TRUE(ctx.affected.contains(join_sql));
  EXPECT_FALSE(ctx.affected.contains(exact_sql));
  EXPECT_EQ(ctx.report.polls_issued, 0u);
}

TEST(StrategyRungTest, EmergencyFlushOverridesExactVerdicts) {
  StageFixture fx;
  CreateCarTable(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES (1, 'Ford', 'Focus', 9000, 3)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  const std::string exact_sql = "SELECT maker, model FROM Car WHERE price < 20000";
  fx.map.Add(exact_sql, "p-exact", "/r", 0);
  // Provably irrelevant under the exact rule — but the emergency rung
  // flushes every instance reading a backlogged table, exact included.
  fx.db.ExecuteSql("UPDATE Car SET stock = 9 WHERE id = 1").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  // Installed after IngestStage, which resolves the policy itself.
  ctx.policy = MakeStagePolicy(DegradationMode::kEmergency, fx.options);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  EXPECT_TRUE(ctx.affected.contains(exact_sql));
}

// ---------------------------------------------------------------------------
// Candidate discovery: exact types go through the same bind-index
// partition as every anchored type, and only the candidates it leaves
// reach the row-image rule. The partition's fallbacks — a type the
// matcher cannot anchor, a delta cell the index cannot key — still hand
// every instance to that rule.
// ---------------------------------------------------------------------------

/// One stage-pipeline cycle. Returns the work list ImpactStage built, as
/// SQL text by type_id — captured before delivery, which retires the
/// ejected instances the work list points at. Every entry must carry
/// the exact verdict.
std::map<uint64_t, std::set<std::string>> RunExactCycle(StageFixture& fx,
                                                       CycleContext& ctx) {
  std::map<uint64_t, std::set<std::string>> work;
  EXPECT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  EXPECT_TRUE(ctx.proceed);
  EXPECT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  for (const InstanceAnalysis& a : ctx.work) {
    EXPECT_TRUE(a.exact) << a.instance->sql;
    work[a.type_id].insert(a.instance->sql);
  }
  EXPECT_TRUE(PollStage(fx.Env()).Run(ctx).ok());
  EXPECT_TRUE(DeliverStage(fx.Env()).Run(ctx).ok());
  return work;
}

TEST(ExactPartitionTest, ProbePrunesExactTypesAndFallbacksReachTheRowRule) {
  constexpr int kPoint = 40;  // Anchored: `maker = 'mK'`.
  constexpr int kOr = 6;      // Unanchorable: OR-rooted WHERE.
  StageFixture fx;
  CreateCarTable(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES (1, 'm3', 'Focus', 9000, 3)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();

  auto point_sql = [](int k) {
    return StrCat("SELECT model FROM Car WHERE maker = 'm", k, "'");
  };
  auto or_sql = [](int k) {
    return StrCat("SELECT maker FROM Car WHERE model = 'o", k,
                  "' OR stock = ", k);
  };
  std::set<std::string> point_sqls;
  std::set<std::string> or_sqls;
  for (int k = 0; k < kPoint; ++k) {
    point_sqls.insert(point_sql(k));
    fx.map.Add(point_sql(k), StrCat("point/", k, "?##"), "/r", 0);
  }
  for (int k = 0; k < kOr; ++k) {
    or_sqls.insert(or_sql(k));
    fx.map.Add(or_sql(k), StrCat("or/", k, "?##"), "/r", 0);
  }

  // Row 1 moves from maker m3 to m5: of the point lookups, only m3 (row
  // leaves) and m5 (row enters) are touched. Stock stays 3, so the OR
  // instance `... OR stock = 3` holds the row in both images and reads
  // the changed maker column — affected; the other OR instances hold it
  // in neither image.
  fx.db.ExecuteSql("UPDATE Car SET maker = 'm5' WHERE id = 1").value();
  CycleContext ctx;
  std::map<uint64_t, std::set<std::string>> work = RunExactCycle(fx, ctx);

  const QueryInstance* point = fx.plane.FindInstance(point_sql(0));
  const QueryInstance* unanchored = fx.plane.FindInstance(or_sql(0));
  ASSERT_NE(point, nullptr);
  ASSERT_NE(unanchored, nullptr);
  const uint64_t point_type = point->type_id;
  const uint64_t or_type = unanchored->type_id;
  ASSERT_EQ(fx.plane.TierOf(point_type)->tier, StrategyTier::kExact);
  ASSERT_EQ(fx.plane.TierOf(or_type)->tier, StrategyTier::kExact);

  EXPECT_EQ(work[point_type],
            (std::set<std::string>{point_sql(3), point_sql(5)}));
  EXPECT_EQ(fx.cycle_matcher_stats.fast_path_instances,
            static_cast<uint64_t>(kPoint - 2));
  // No anchor, no probe: every OR instance reaches the row-image rule.
  EXPECT_EQ(work[or_type], or_sqls);
  EXPECT_EQ(fx.sink.invalidated,
            (std::set<std::string>{"point/3?##", "point/5?##", "or/3?##"}));
  EXPECT_EQ(ctx.report.polls_issued, 0u);
  EXPECT_EQ(ctx.report.checks, static_cast<uint64_t>(kPoint + kOr));

  // A NULL maker cell is a kAlways row for the anchored type: the probe
  // returns it in all_rows, the partition gives up on the type, and every
  // live point instance is analyzed. The rule then finds `maker = 'mK'`
  // never TRUE for the row, so nothing is ejected.
  fx.sink.invalidated.clear();
  fx.db.ExecuteSql(
           "INSERT INTO Car (id, model, price, stock) VALUES (2, 'x', 1, 9)")
      .value();
  CycleContext null_ctx;
  work = RunExactCycle(fx, null_ctx);
  std::set<std::string> live_points = point_sqls;
  live_points.erase(point_sql(3));
  live_points.erase(point_sql(5));
  EXPECT_EQ(work[point_type], live_points);
  EXPECT_EQ(fx.cycle_matcher_stats.fast_path_instances,
            static_cast<uint64_t>(kPoint - 2));
  EXPECT_TRUE(fx.sink.invalidated.empty());
}

}  // namespace
}  // namespace cacheportal::invalidator
