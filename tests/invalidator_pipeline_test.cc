#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/cycle.h"
#include "invalidator/invalidator.h"
#include "invalidator/metadata_plane.h"
#include "invalidator/stages.h"
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

void CreateCarTables(db::Database* db) {
  ASSERT_TRUE(db->CreateTable(db::TableSchema(
                                  "Car", {{"maker", db::ColumnType::kString},
                                          {"model", db::ColumnType::kString},
                                          {"price", db::ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      db->CreateTable(db::TableSchema(
                          "Mileage", {{"model", db::ColumnType::kString},
                                      {"EPA", db::ColumnType::kInt}}))
          .ok());
}

std::string ReportKey(const CycleReport& r) {
  return StrCat(r.updates, "/", r.new_instances, "/", r.checks, "/",
                r.affected_instances, "/", r.polls_issued, "/",
                r.polls_answered_by_index, "/", r.conservative_invalidations,
                "/", r.pages_invalidated, "/", DegradationModeName(r.mode));
}

// ---------------------------------------------------------------------------
// Differential matrix: the staged/sharded pipeline must produce
// byte-identical decisions at every (shards x workers) point. The oracle
// is the shards=1, workers=1 configuration — the exact serial pipeline
// the monolith ran (the pre-refactor suites pin ITS behavior).
// ---------------------------------------------------------------------------

struct MatrixResult {
  std::vector<std::set<std::string>> cycle_invalidated;  // Per round.
  std::vector<std::string> cycle_reports;                // Per round.
  std::string stats_report;
};

MatrixResult RunMatrixScenario(uint64_t seed, size_t shards, size_t workers) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  const char* makers[] = {"Toyota", "Honda", "Mitsubishi", "Ford"};
  const char* models[] = {"Avalon", "Civic", "Eclipse", "Corolla"};
  for (int i = 0; i < 16; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('", makers[rng.Uniform(4)],
                         "', '", models[rng.Uniform(4)], "', ",
                         rng.Uniform(30000), ")"))
        .value();
  }
  for (int i = 0; i < 4; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Mileage VALUES ('",
                         models[rng.Uniform(4)], "', ", 20 + rng.Uniform(15),
                         ")"))
        .value();
  }

  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.metadata_shards = shards;
  options.worker_threads = workers;
  options.max_polls_per_cycle = 2;  // Budget pressure: condemnations.
  options.polling_cache_capacity = 8;
  Invalidator inv(&db, &map, &clock, options);
  EXPECT_TRUE(inv.CreateJoinIndex("Mileage", "model").ok());
  RecordingSink sink;
  inv.AddSink(&sink);

  // Ten instances over five distinct query types, so two and four shards
  // genuinely split the metadata (one type would collapse to one shard).
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    switch (i % 5) {
      case 0:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE price < ",
                              4000 + rng.Uniform(26000)));
        break;
      case 1:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE maker = '",
                              makers[rng.Uniform(4)], "'"));
        break;
      case 2:
        sqls.push_back(
            StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Car.price < ",
                   6000 + rng.Uniform(20000)));
        break;
      case 3:
        sqls.push_back(
            StrCat("SELECT * FROM Mileage WHERE EPA > ", 18 + rng.Uniform(14)));
        break;
      default:
        sqls.push_back(StrCat("SELECT * FROM Car WHERE model = '",
                              models[rng.Uniform(4)], "'"));
        break;
    }
  }
  auto recache = [&map, &sqls]() {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
  };
  recache();
  inv.RunCycle().value();  // Register the pages; the log is quiet.

  MatrixResult result;
  for (int round = 0; round < 6; ++round) {
    for (int u = 0; u < 1 + static_cast<int>(rng.Uniform(3)); ++u) {
      switch (rng.Uniform(4)) {
        case 0:
          db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                               makers[rng.Uniform(4)], "', '",
                               models[rng.Uniform(4)], "', ",
                               rng.Uniform(30000), ")"))
              .value();
          break;
        case 1:
          db.ExecuteSql(StrCat("DELETE FROM Car WHERE price > ",
                               15000 + rng.Uniform(15000)))
              .value();
          break;
        case 2:
          db.ExecuteSql(StrCat("INSERT INTO Mileage VALUES ('",
                               models[rng.Uniform(4)], "', ",
                               20 + rng.Uniform(15), ")"))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("DELETE FROM Mileage WHERE EPA > ",
                               25 + rng.Uniform(10)))
              .value();
          break;
      }
    }
    sink.invalidated.clear();
    CycleReport report = inv.RunCycle().value();
    result.cycle_invalidated.push_back(sink.invalidated);
    result.cycle_reports.push_back(ReportKey(report));
    recache();
    inv.RunCycle().value();  // Consume the re-cached pages.
  }
  result.stats_report = inv.StatsReport();
  return result;
}

class PipelineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineDifferentialTest, ShardAndWorkerCountsDoNotChangeDecisions) {
  MatrixResult oracle = RunMatrixScenario(GetParam(), 1, 1);
  // The scenario is non-trivial: something got invalidated.
  size_t total = 0;
  for (const auto& cycle : oracle.cycle_invalidated) total += cycle.size();
  EXPECT_GT(total, 0u);

  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t workers : {1u, 4u}) {
      if (shards == 1 && workers == 1) continue;
      SCOPED_TRACE(StrCat("shards=", shards, " workers=", workers));
      MatrixResult got = RunMatrixScenario(GetParam(), shards, workers);
      EXPECT_EQ(oracle.cycle_invalidated, got.cycle_invalidated);
      EXPECT_EQ(oracle.cycle_reports, got.cycle_reports);
      EXPECT_EQ(oracle.stats_report, got.stats_report);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferentialTest,
                         ::testing::Range<uint64_t>(1, 12));

// ---------------------------------------------------------------------------
// MetadataPlane unit tests.
// ---------------------------------------------------------------------------

TEST(MetadataPlaneTest, MergedIterationOrderIsShardCountInvariant) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  const std::vector<std::string> sqls = {
      "SELECT * FROM Car WHERE price < 9000",
      "SELECT * FROM Car WHERE price < 21000",
      "SELECT * FROM Car WHERE maker = 'Toyota'",
      "SELECT * FROM Car WHERE maker = 'Honda'",
      "SELECT * FROM Car WHERE model = 'Civic'",
      "SELECT * FROM Mileage WHERE EPA > 25",
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 16000",
  };
  auto scan = [&sqls, &db](size_t shards) {
    MetadataPlane plane(&db, shards);
    for (const std::string& sql_text : sqls) {
      EXPECT_TRUE(plane.RegisterInstance(sql_text).ok()) << sql_text;
    }
    std::vector<std::pair<uint64_t, std::string>> order;
    plane.ForEachInstance(
        [&order](const QueryType& type, const QueryInstance& instance) {
          order.emplace_back(type.type_id, instance.sql);
        });
    EXPECT_EQ(order.size(), sqls.size());
    return order;
  };
  auto oracle = scan(1);
  for (size_t shards : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(StrCat("shards=", shards));
    EXPECT_EQ(scan(shards), oracle);
  }
  // And the merge really is ascending type_id.
  for (size_t i = 1; i < oracle.size(); ++i) {
    EXPECT_LE(oracle[i - 1].first, oracle[i].first);
  }
}

TEST(MetadataPlaneTest, RegistrationIsIdempotentAndRetireRoutesBySql) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  MetadataPlane plane(&db, 4);
  const std::string sql_text = "SELECT * FROM Car WHERE price < 9000";

  const QueryInstance* first = plane.RegisterInstance(sql_text).value();
  const QueryInstance* again = plane.RegisterInstance(sql_text).value();
  EXPECT_EQ(first, again);  // The fast path resolves to the same node.
  EXPECT_EQ(plane.NumInstances(), 1u);
  EXPECT_EQ(plane.NumIndexedInstances(), 1u);
  EXPECT_EQ(plane.FindInstance(sql_text), first);

  // Retirement needs only the SQL: the route map finds the shard.
  plane.RetireInstance(sql_text);
  EXPECT_EQ(plane.FindInstance(sql_text), nullptr);
  EXPECT_EQ(plane.NumInstances(), 0u);
  EXPECT_EQ(plane.NumIndexedInstances(), 0u);
  // The type (and its stats) outlive the instance.
  EXPECT_EQ(plane.NumTypes(), 1u);

  // Re-registration after retirement takes the slow path and succeeds.
  const QueryInstance* back = plane.RegisterInstance(sql_text).value();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(plane.NumInstances(), 1u);
  EXPECT_EQ(plane.NumIndexedInstances(), 1u);
}

TEST(MetadataPlaneTest, MapCursorsAdvanceInLockstepAndReset) {
  ManualClock clock;
  db::Database db(&clock);
  MetadataPlane plane(&db, 3);
  EXPECT_EQ(plane.MinMapCursor(), 0u);
  plane.AdvanceMapCursors(7);
  EXPECT_EQ(plane.MinMapCursor(), 7u);
  EXPECT_EQ(plane.MapCursors(), (std::vector<uint64_t>{7, 7, 7}));
  plane.AdvanceMapCursors(3);  // Never rewinds.
  EXPECT_EQ(plane.MinMapCursor(), 7u);
  plane.SetMapCursors({0, 0, 0});
  EXPECT_EQ(plane.MapCursors(), (std::vector<uint64_t>{0, 0, 0}));
}

TEST(MetadataPlaneTest, ZeroShardsIsTreatedAsOne) {
  ManualClock clock;
  db::Database db(&clock);
  MetadataPlane plane(&db, 0);
  EXPECT_EQ(plane.num_shards(), 1u);
}

// ---------------------------------------------------------------------------
// StagePolicy: the degradation rung resolved into stage knobs.
// ---------------------------------------------------------------------------

TEST(StagePolicyTest, RungsResolveToKnobs) {
  InvalidatorOptions options;
  options.max_polls_per_cycle = 10;
  options.overload.economy_poll_budget = 3;

  StagePolicy normal = MakeStagePolicy(DegradationMode::kNormal, options);
  EXPECT_EQ(normal.poll_budget, 10u);
  EXPECT_FALSE(normal.skip_polls);
  EXPECT_FALSE(normal.flush_only);

  StagePolicy economy = MakeStagePolicy(DegradationMode::kEconomy, options);
  EXPECT_EQ(economy.poll_budget, 3u);
  EXPECT_FALSE(economy.skip_polls);

  // An unlimited configured budget still shrinks to the economy budget.
  InvalidatorOptions unlimited = options;
  unlimited.max_polls_per_cycle = 0;
  EXPECT_EQ(MakeStagePolicy(DegradationMode::kEconomy, unlimited).poll_budget,
            3u);

  // A zero economy budget means "no polls at all" on the economy rung.
  InvalidatorOptions zero = options;
  zero.overload.economy_poll_budget = 0;
  EXPECT_TRUE(MakeStagePolicy(DegradationMode::kEconomy, zero).skip_polls);

  StagePolicy conservative =
      MakeStagePolicy(DegradationMode::kConservative, options);
  EXPECT_TRUE(conservative.skip_polls);
  EXPECT_FALSE(conservative.flush_only);

  StagePolicy emergency = MakeStagePolicy(DegradationMode::kEmergency, options);
  EXPECT_TRUE(emergency.skip_polls);
  EXPECT_TRUE(emergency.flush_only);
}

// ---------------------------------------------------------------------------
// Stage isolation: each stage driven standalone around a hand-built
// StageEnv / CycleContext, the way the CycleContext contract promises.
// ---------------------------------------------------------------------------

/// Owns every component a StageEnv borrows, with nullable extras off.
struct StageFixture {
  explicit StageFixture(size_t shards = 2)
      : db(&clock),
        plane(&db, shards),
        info(&db),
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

TEST(IngestStageTest, RegistersInstancesAndBuildsDeltas) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  fx.map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (5)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  EXPECT_TRUE(ctx.proceed);
  EXPECT_EQ(ctx.report.updates, 1u);
  EXPECT_EQ(ctx.report.new_instances, 1u);
  EXPECT_EQ(fx.plane.NumInstances(), 1u);
  EXPECT_EQ(fx.plane.MinMapCursor(), fx.map.LastId());
  ASSERT_EQ(ctx.merged.size(), 1u);
  EXPECT_EQ(ctx.merged[0].tuples.size(), 1u);
  // One column batch per merged view, for ImpactStage's probes.
  ASSERT_EQ(ctx.batch_columns.size(), 1u);
  EXPECT_EQ(ctx.batch_columns[0].Column(0).size(), 1u);
  EXPECT_EQ(fx.last_update_seq, fx.db.update_log().LastSeq());
}

TEST(IngestStageTest, QuietLogStopsThePipelineButStillRegisters) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  fx.map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  EXPECT_FALSE(ctx.proceed);
  EXPECT_EQ(ctx.report.updates, 0u);
  EXPECT_EQ(fx.plane.NumInstances(), 1u);  // Registration still happened.
}

TEST(IngestStageTest, UnchangedMapEpochSkipsTheScan) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  fx.map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);

  // Pretend the previous cycle already scanned at this epoch: ingest must
  // skip ReadSince entirely, so the row stays unregistered.
  fx.last_map_epoch = fx.map.epoch();
  fx.db.ExecuteSql("INSERT INTO T VALUES (5)").value();
  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  EXPECT_EQ(ctx.report.new_instances, 0u);
  EXPECT_EQ(fx.plane.NumInstances(), 0u);

  // A new row bumps the epoch; the next scan picks everything up.
  fx.map.Add("SELECT * FROM T WHERE x < 20", "p2", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (6)").value();
  CycleContext ctx2;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx2).ok());
  EXPECT_EQ(ctx2.report.new_instances, 2u);
  EXPECT_EQ(fx.plane.NumInstances(), 2u);

  // nullopt (e.g. after Restore) forces a scan even at the same epoch.
  fx.plane.SetMapCursors({0});
  fx.plane.RetireInstance("SELECT * FROM T WHERE x < 10");
  fx.last_map_epoch.reset();
  fx.db.ExecuteSql("INSERT INTO T VALUES (7)").value();
  CycleContext ctx3;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx3).ok());
  EXPECT_EQ(fx.plane.NumInstances(), 2u);  // Re-registered from the map.
}

TEST(ImpactStageTest, SplitsAffectedFromUnaffected) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  const std::string hit = "SELECT * FROM T WHERE x < 10";
  const std::string miss = "SELECT * FROM T WHERE x > 100";
  fx.map.Add(hit, "p-hit", "/r", 0);
  fx.map.Add(miss, "p-miss", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (5)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());

  EXPECT_EQ(ctx.report.checks, 2u);
  EXPECT_TRUE(ctx.affected.contains(hit));
  EXPECT_FALSE(ctx.affected.contains(miss));
  EXPECT_EQ(fx.stats.affected_immediately, 1u);
  EXPECT_EQ(fx.stats.unaffected, 1u);
  EXPECT_TRUE(ctx.tasks.empty());
}

TEST(ImpactStageTest, PrunesThroughTheBindIndex) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  // Aggregation keeps the type off the exact tier; its `x = $1` anchor
  // puts it on the compiled-batch tier.
  for (int k = 0; k < 10; ++k) {
    fx.map.Add(StrCat("SELECT COUNT(*) FROM T WHERE x = ", k),
               StrCat("p", k), "/r", 0);
  }
  fx.db.ExecuteSql("INSERT INTO T VALUES (3)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  // One candidate analyzed; the nine others skipped before the fan-out.
  EXPECT_EQ(ctx.work.size(), 1u);
  EXPECT_EQ(ctx.affected,
            std::set<std::string>{"SELECT COUNT(*) FROM T WHERE x = 3"});
  EXPECT_EQ(ctx.report.checks, 10u);
  EXPECT_EQ(fx.cycle_matcher_stats.batch_probes, 1u);
  EXPECT_EQ(fx.cycle_matcher_stats.fast_path_instances, 9u);
}

// A cell the index cannot key (here an integer beyond 2^53) lands in
// all_rows: the type loses its fast path and every instance is analyzed,
// so the matching instance is found although no per-instance list names
// it.
TEST(ImpactStageTest, AlwaysLaneRowsReachEveryInstance) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  const std::string big = "SELECT COUNT(*) FROM T WHERE x = 9007199254740993";
  const std::string small = "SELECT COUNT(*) FROM T WHERE x = 1";
  fx.map.Add(big, "p-big", "/r", 0);
  fx.map.Add(small, "p-small", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (9007199254740993)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  EXPECT_EQ(ctx.affected, std::set<std::string>{big});
  EXPECT_EQ(ctx.work.size(), 2u);
  EXPECT_EQ(fx.cycle_matcher_stats.fast_path_instances, 0u);
}

TEST(ImpactStageTest, RejectsColumnBatchesThatDoNotParallelTheViews) {
  StageFixture fx;
  ASSERT_TRUE(
      fx.db.CreateTable(db::TableSchema("T", {{"x", db::ColumnType::kInt}}))
          .ok());
  fx.last_update_seq = fx.db.update_log().LastSeq();
  fx.map.Add("SELECT * FROM T WHERE x < 10", "p1", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO T VALUES (5)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_EQ(ctx.batch_columns.size(), 1u);
  // A hand-built context whose columns went missing: the stage must
  // refuse it rather than index past the end.
  ctx.batch_columns.clear();
  Status status = ImpactStage(fx.Env()).Run(ctx);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(ctx.affected.empty());
  EXPECT_EQ(ctx.report.checks, 0u);
}

TEST(PollStageTest, SkipPollsCondemnsEveryUndecidedInstance) {
  StageFixture fx;
  CreateCarTables(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES ('Mitsubishi', 'Eclipse', 15000)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  // A join instance: a Mileage insert decides nothing immediately and
  // produces a Car-side polling query.
  const std::string join_sql =
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 16000";
  fx.map.Add(join_sql, "p-join", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO Mileage VALUES ('Eclipse', 30)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ctx.proceed);
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  ASSERT_FALSE(ctx.tasks.empty());  // The stage really handed off polls.

  // Conservative rung: PollStage must condemn without touching the DBMS.
  ctx.policy.skip_polls = true;
  StageEnv env = fx.Env();
  env.execute_poll = [](const std::string&) -> Result<db::QueryResult> {
    ADD_FAILURE() << "skip_polls must not execute any poll";
    return Status::Internal("unreachable");
  };
  ASSERT_TRUE(PollStage(env).Run(ctx).ok());
  EXPECT_EQ(ctx.report.polls_issued, 0u);
  EXPECT_EQ(ctx.report.conservative_invalidations, 1u);
  EXPECT_TRUE(ctx.affected.contains(join_sql));
}

TEST(PollStageTest, PollsDecideUndecidedInstances) {
  StageFixture fx;
  CreateCarTables(&fx.db);
  fx.db.ExecuteSql("INSERT INTO Car VALUES ('Mitsubishi', 'Eclipse', 15000)")
      .value();
  fx.last_update_seq = fx.db.update_log().LastSeq();
  const std::string join_sql =
      "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 16000";
  fx.map.Add(join_sql, "p-join", "/r", 0);
  fx.db.ExecuteSql("INSERT INTO Mileage VALUES ('Eclipse', 30)").value();

  CycleContext ctx;
  ASSERT_TRUE(IngestStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(ImpactStage(fx.Env()).Run(ctx).ok());
  ASSERT_TRUE(PollStage(fx.Env()).Run(ctx).ok());
  EXPECT_GE(ctx.report.polls_issued, 1u);
  // The poll hits: Eclipse sells for under 16000.
  EXPECT_TRUE(ctx.affected.contains(join_sql));
  EXPECT_EQ(fx.stats.poll_hits, 1u);
}

TEST(DeliverStageTest, HandBuiltAffectedSetBecomesEjects) {
  StageFixture fx;
  CreateCarTables(&fx.db);
  const std::string sql_text = "SELECT * FROM Car WHERE price < 9000";
  const std::string other = "SELECT * FROM Car WHERE maker = 'Toyota'";
  fx.map.Add(sql_text, "shop/a?##", "/r", 0);
  fx.map.Add(sql_text, "shop/b?##", "/r", 0);
  fx.map.Add(other, "shop/keep?##", "/r", 0);
  ASSERT_TRUE(fx.plane.RegisterInstance(sql_text).ok());
  ASSERT_TRUE(fx.plane.RegisterInstance(other).ok());

  // Hand-built context: only the affected set matters to delivery.
  CycleContext ctx;
  ctx.affected.insert(sql_text);
  ASSERT_TRUE(DeliverStage(fx.Env()).Run(ctx).ok());

  EXPECT_EQ(ctx.report.affected_instances, 1u);
  EXPECT_EQ(ctx.report.pages_invalidated, 2u);
  EXPECT_EQ(fx.sink.invalidated,
            (std::set<std::string>{"shop/a?##", "shop/b?##"}));
  // Ejected pages left the map; the page-less instance was retired; the
  // unaffected instance and its page are untouched.
  EXPECT_EQ(fx.map.NumPagesForQuery(sql_text), 0u);
  EXPECT_EQ(fx.plane.FindInstance(sql_text), nullptr);
  EXPECT_NE(fx.plane.FindInstance(other), nullptr);
  EXPECT_EQ(fx.map.NumPagesForQuery(other), 1u);
}

/// The composed stages equal Invalidator::RunCycle on the same world —
/// the decomposition did not change what a cycle does.
TEST(StageCompositionTest, ComposedStagesMatchRunCycle) {
  auto run = [](bool composed) {
    StageFixture fx;
    CreateCarTables(&fx.db);
    fx.db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 13000)")
        .value();
    // Both variants attach at the current log position, before the
    // tracked insert below.
    std::unique_ptr<Invalidator> inv;
    RecordingSink inv_sink;
    if (composed) {
      fx.last_update_seq = fx.db.update_log().LastSeq();
    } else {
      inv = std::make_unique<Invalidator>(&fx.db, &fx.map, &fx.clock,
                                          fx.options);
      inv->AddSink(&inv_sink);
    }
    fx.map.Add("SELECT * FROM Car WHERE price < 20000", "p0?##", "/r", 0);
    fx.map.Add("SELECT * FROM Car WHERE maker = 'Ford'", "p1?##", "/r", 0);
    fx.db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Fit', 16000)").value();

    if (composed) {
      CycleContext ctx;
      ctx.start = fx.clock.NowMicros();
      StageEnv env = fx.Env();
      EXPECT_TRUE(IngestStage(env).Run(ctx).ok());
      EXPECT_TRUE(ImpactStage(env).Run(ctx).ok());
      EXPECT_TRUE(PollStage(env).Run(ctx).ok());
      EXPECT_TRUE(DeliverStage(env).Run(ctx).ok());
      return std::make_pair(ReportKey(ctx.report), fx.sink.invalidated);
    }
    CycleReport report = inv->RunCycle().value();
    return std::make_pair(ReportKey(report), inv_sink.invalidated);
  };
  auto composed = run(true);
  auto monolith = run(false);
  EXPECT_EQ(composed.first, monolith.first);
  EXPECT_EQ(composed.second, monolith.second);
}

}  // namespace
}  // namespace cacheportal::invalidator
