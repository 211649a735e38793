// Invalidator throughput, backing Section 2.4's claim that the
// invalidator is not a bottleneck: cost of one synchronization cycle as
// the number of cached query instances and the update-batch size grow,
// plus the effect of join indexes on DBMS polling traffic.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "common/clock.h"
#include "common/env.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/durability.h"
#include "invalidator/invalidator.h"
#include "invalidator/strategy.h"
#include "sniffer/qiurl_map.h"

namespace {

using namespace cacheportal;

/// A self-contained world: the Example 4.1 schema, `instances` cached
/// join instances, ready for cycles. With `pinned`, instance i also pins
/// the join column to its own model (`Mileage.model = 'm<i>'`).
struct World {
  World(int instances, bool with_join_index,
        invalidator::InvalidatorOptions options = {}, int mileage_rows = 100,
        bool pinned = false)
      : db(&clock), pinned(pinned) {
    db.CreateTable(db::TableSchema("Car",
                                   {{"maker", db::ColumnType::kString},
                                    {"model", db::ColumnType::kString},
                                    {"price", db::ColumnType::kInt}}))
        .ok();
    db.CreateTable(db::TableSchema("Mileage",
                                   {{"model", db::ColumnType::kString},
                                    {"EPA", db::ColumnType::kInt}}))
        .ok();
    for (int i = 0; i < mileage_rows; ++i) {
      db.ExecuteSql(
            StrCat("INSERT INTO Mileage VALUES ('m", i, "', ", i % 50, ")"))
          .value();
    }
    invalidator =
        std::make_unique<invalidator::Invalidator>(&db, &map, &clock,
                                                   options);
    if (with_join_index) {
      invalidator->CreateJoinIndex("Mileage", "model").ok();
    }
    invalidator->RunCycle().value();  // Drain seeding.
    // All join instances with thresholds far above the inserted prices:
    // every cycle, every instance needs its join side checked (polling or
    // join index), and the empty poll keeps instances registered.
    num_instances = instances;
    RecacheMissing();
  }

  /// (Re-)caches every instance whose pages left the map — steady-state
  /// refill for modes that invalidate instances each cycle (conservative
  /// and emergency rungs).
  void RecacheMissing() {
    for (int i = 0; i < num_instances; ++i) {
      std::string sql =
          pinned ? StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model "
                          "= Mileage.model AND Mileage.model = 'm",
                          i, "'")
                 : StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model "
                          "= Mileage.model AND Car.price < ",
                          10000000 + i);
      if (!map.PagesForQuery(sql).empty()) continue;
      map.Add(sql, StrCat("shop/p", i, "?##"), "/r", 0);
    }
  }

  void AddUpdates(int n) {
    for (int i = 0; i < n; ++i) {
      // Models outside Mileage: the price predicate passes, the join
      // must be decided, and the verdict is "no partner" (no churn).
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('mk', 'zz", i, "', ",
                           500000 + i, ")"))
          .value();
    }
  }

  /// One Car insert whose model is the next pinned instance's, in turn:
  /// exactly one instance can be affected.
  void AddPinnedUpdate() {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('mk', 'm",
                         next_pin++ % num_instances, "', 1)"))
        .value();
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
  int num_instances = 0;
  bool pinned = false;
  int next_pin = 0;
};

/// A point-lookup world for the bind index: `instances` single-table
/// instances of one type (`maker = ...`), each with a distinct bind
/// value. Every cycle inserts tuples matching none of them, so the
/// columnar probe answers each (type, table) pair with one hash probe
/// per distinct key and every instance is skipped before the analysis
/// fan-out.
struct EqWorld {
  explicit EqWorld(int instances) : db(&clock) {
    db.CreateTable(db::TableSchema("Car",
                                   {{"maker", db::ColumnType::kString},
                                    {"model", db::ColumnType::kString},
                                    {"price", db::ColumnType::kInt}}))
        .ok();
    invalidator = std::make_unique<invalidator::Invalidator>(
        &db, &map, &clock, invalidator::InvalidatorOptions{});
    for (int i = 0; i < instances; ++i) {
      map.Add(StrCat("SELECT model FROM Car WHERE maker = 'maker", i, "'"),
              StrCat("shop/p", i, "?##"), "/r", 0);
    }
    invalidator->RunCycle().value();  // Register instances untimed.
  }

  void AddUpdates(int n) {
    for (int i = 0; i < n; ++i) {
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('nobody', 'zz", i,
                           "', ", 500000 + i, ")"))
          .value();
    }
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
};

/// Full cycle cost as the instance count grows: whole-column bind-index
/// probes plus fast-path instance skipping. Updates match no instance,
/// so instances stay registered and the measurement is steady-state.
void BM_CycleVsInstances(benchmark::State& state) {
  EqWorld world(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(4);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const auto& ms = world.invalidator->matcher_stats();
  state.counters["tuples-excluded"] = static_cast<double>(ms.tuples_excluded);
  state.counters["short-circuits"] =
      static_cast<double>(ms.instances_short_circuited);
  state.counters["fast-path"] = static_cast<double>(ms.fast_path_instances);
  state.counters["batch-probes"] = static_cast<double>(ms.batch_probes);
}
BENCHMARK(BM_CycleVsInstances)
    ->RangeMultiplier(10)
    ->Range(1000, 1000000)
    ->ArgName("instances")
    ->Unit(benchmark::kMillisecond);

/// Residual-poll consolidation: `range(0)` join instances of one type,
/// each needing its join side decided every cycle.
///  - pinned:0 — every member's residual is the same
///    `'zz0' = Mileage.model`: one round trip per ceil(instances / 64)
///    members, each statement carrying the residual once.
///  - pinned:1 — member i pins the join column to 'm<i>' and each cycle
///    inserts one Car row of the next member's model. The derived anchor
///    on Car.model leaves that one member a candidate, and its poll is
///    the only one: 1 poll and 1 round trip per cycle (one per member
///    and ceil(instances / 64) before the anchor and the pinned-column
///    fold).
/// polls/cycle counts LOGICAL member polls; poll_round_trips counts the
/// statements sent.
void BM_ConsolidatedPolls(benchmark::State& state) {
  const bool pinned = state.range(1) != 0;
  World world(static_cast<int>(state.range(0)), false, {}, 100, pinned);
  for (auto _ : state) {
    state.PauseTiming();
    if (pinned) {
      world.RecacheMissing();  // The member the last cycle ejected.
      world.AddPinnedUpdate();
    } else {
      world.AddUpdates(1);
    }
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const double cycles = static_cast<double>(
      std::max<uint64_t>(1, world.invalidator->stats().cycles));
  state.counters["polls/cycle"] =
      static_cast<double>(world.invalidator->stats().polls_issued) / cycles;
  state.counters["poll_round_trips"] =
      static_cast<double>(world.invalidator->matcher_stats().poll_round_trips) /
      cycles;
}
BENCHMARK(BM_ConsolidatedPolls)
    ->ArgsProduct({{16, 64, 256}, {0, 1}})
    ->ArgNames({"instances", "pinned"})
    ->Unit(benchmark::kMillisecond);

/// Same with join indexes: polls answered inside the invalidator.
void BM_CycleVsInstancesWithIndex(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)), true);
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(10);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["polls/cycle"] = static_cast<double>(
      world.invalidator->stats().polls_issued /
      std::max<uint64_t>(1, world.invalidator->stats().cycles));
  state.counters["idx-answers/cycle"] = static_cast<double>(
      world.invalidator->stats().polls_answered_by_index /
      std::max<uint64_t>(1, world.invalidator->stats().cycles));
}
BENCHMARK(BM_CycleVsInstancesWithIndex)->Arg(10)->Arg(100)->Arg(1000);

/// A join whose two tables are both updated in every batch: `range(0)`
/// instances of the site's join type (`SmallT.grp = LargeT.grp AND
/// SmallT.grp = g`), one per group, over SmallT (2 rows per group) and
/// LargeT (4 rows per group), both indexed on grp. Each cycle updates one
/// SmallT row in place in each of `range(1)` groups and one LargeT row in
/// each of `range(1)` other groups, so 2 * range(1) instances are
/// affected. Each table's delta reaches only its own groups' instances,
/// which poll the other table; a multi-table guard would eject every
/// instance instead. Ejected pages are re-cached untimed.
struct BothTablesWorld {
  BothTablesWorld(int groups, int touched)
      : db(&clock), groups(groups), touched(touched) {
    int id = 0;
    for (const char* table : {"SmallT", "LargeT"}) {
      db.CreateTable(db::TableSchema(table, {{"id", db::ColumnType::kInt},
                                             {"grp", db::ColumnType::kInt},
                                             {"val", db::ColumnType::kInt}}))
          .ok();
      db.CreateIndex(table, "grp").ok();
      const int per_group = std::string(table) == "SmallT" ? 2 : 4;
      for (int g = 0; g < groups; ++g) {
        for (int i = 0; i < per_group; ++i) {
          db.ExecuteSql(StrCat("INSERT INTO ", table, " VALUES (", id++, ", ",
                               g, ", ", i, ")"))
              .value();
        }
      }
    }
    invalidator = std::make_unique<invalidator::Invalidator>(
        &db, &map, &clock, invalidator::InvalidatorOptions{});
    invalidator->RunCycle().value();  // Drain seeding.
    RecacheMissing();
    invalidator->RunCycle().value();  // Register instances untimed.
  }

  void RecacheMissing() {
    for (int g = 0; g < groups; ++g) {
      std::string sql = StrCat(
          "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
          "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = ",
          g);
      if (!map.PagesForQuery(sql).empty()) continue;
      map.Add(sql, StrCat("site/heavy", g, "?##"), "/r", 0);
    }
  }

  /// One batch: an in-place SmallT update in each of `touched` groups and
  /// an in-place LargeT update in each of `touched` others.
  void AddUpdates() {
    for (int i = 0; i < touched; ++i) {
      int g = (next_group + i) % groups;
      int h = (next_group + i + groups / 2) % groups;
      db.ExecuteSql(StrCat("UPDATE SmallT SET val = ", ++next_val,
                           " WHERE id = ", g * 2))
          .value();
      db.ExecuteSql(StrCat("UPDATE LargeT SET val = ", ++next_val,
                           " WHERE id = ", groups * 2 + h * 4))
          .value();
    }
    next_group = (next_group + touched) % groups;
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
  int groups = 0;
  int touched = 0;
  int next_group = 0;
  int next_val = 100;
};

void BM_JoinBothTablesUpdated(benchmark::State& state) {
  BothTablesWorld world(static_cast<int>(state.range(0)),
                        static_cast<int>(state.range(1)));
  const invalidator::InvalidatorStats before = world.invalidator->stats();
  const uint64_t round_trips_before =
      world.invalidator->matcher_stats().poll_round_trips;
  for (auto _ : state) {
    state.PauseTiming();
    world.RecacheMissing();
    world.AddUpdates();
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  const invalidator::InvalidatorStats& after = world.invalidator->stats();
  const double cycles = static_cast<double>(
      std::max<uint64_t>(1, after.cycles - before.cycles));
  state.counters["ejects/cycle"] =
      static_cast<double>(after.pages_invalidated - before.pages_invalidated) /
      cycles;
  state.counters["polls/cycle"] =
      static_cast<double>(after.polls_issued - before.polls_issued) / cycles;
  state.counters["poll_round_trips/cycle"] =
      static_cast<double>(world.invalidator->matcher_stats().poll_round_trips -
                          round_trips_before) /
      cycles;
}
BENCHMARK(BM_JoinBothTablesUpdated)
    ->ArgsProduct({{64, 256}, {1, 4}})
    ->ArgNames({"instances", "k"})
    ->Unit(benchmark::kMillisecond);

/// A world where the false-eject rate has a by-construction ground
/// truth: `instances` range instances (`SELECT maker, model ... WHERE
/// price < T`) over a Car table with a `stock` column, and every cycle's
/// updates are in-place UPDATEs touching only `stock` — a column no
/// instance's result reads and no WHERE mentions. No cached page's bytes
/// can change, so every eject is a false eject.
///
/// The tier is picked by template: kExact instances are the plain range
/// lookup; kCompiledBatch instances add `model LIKE 'm%'`, a conjunct
/// TRUE for every row that blocks exactness (no row-image evaluator for
/// LIKE) but leaves the `price` anchor, so both arms are pruned by the
/// same bind-index probe and differ only in the verdict rule.
///
/// `selective` moves the updates to rows priced above every threshold:
/// the probe then proves every instance unaffected, which is the case a
/// candidate index exists for. (With the default rows every updated row
/// satisfies every instance's WHERE, so no index can prune anything.)
struct StrategyWorld {
  StrategyWorld(int instances, invalidator::StrategyTier tier, bool selective)
      : db(&clock), tier(tier), selective(selective) {
    db.CreateTable(db::TableSchema("Car",
                                   {{"maker", db::ColumnType::kString},
                                    {"model", db::ColumnType::kString},
                                    {"price", db::ColumnType::kInt},
                                    {"stock", db::ColumnType::kInt}}))
        .ok();
    for (int i = 0; i < 200; ++i) {
      // All prices below every instance threshold: each updated row's
      // WHERE verdict is TRUE, so the conservative walk ejects.
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('mk', 'm", i, "', ",
                           (i % 200) * 100, ", 5)"))
          .value();
      // Priced above every threshold: no instance admits these rows.
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('mk', 'f", i,
                           "', 1000000000, 5)"))
          .value();
    }
    invalidator = std::make_unique<invalidator::Invalidator>(
        &db, &map, &clock, invalidator::InvalidatorOptions{});
    invalidator->RunCycle().value();  // Drain seeding.
    num_instances = instances;
    RecacheMissing();
    invalidator->RunCycle().value();  // Register instances untimed.
  }

  std::string Sql(int i) const {
    std::string sql =
        StrCat("SELECT maker, model FROM Car WHERE price < ", 20000 + i);
    if (tier == invalidator::StrategyTier::kExact) return sql;
    return StrCat(sql, " AND model LIKE 'm%'");
  }

  /// The tier the invalidator assigned the world's type.
  std::optional<invalidator::StrategyTier> AssignedTier() const {
    const invalidator::QueryInstance* instance =
        invalidator->metadata().FindInstance(Sql(0));
    if (instance == nullptr) return std::nullopt;
    std::optional<invalidator::TierDecision> decision =
        invalidator->metadata().TierOf(instance->type_id);
    if (!decision.has_value()) return std::nullopt;
    return decision->tier;
  }

  void RecacheMissing() {
    for (int i = 0; i < num_instances; ++i) {
      std::string sql = Sql(i);
      if (!map.PagesForQuery(sql).empty()) continue;
      map.Add(sql, StrCat("shop/p", i, "?##"), "/r", 0);
    }
  }

  void Mutate(int n) {
    for (int i = 0; i < n; ++i) {
      db.ExecuteSql(StrCat("UPDATE Car SET stock = ", next_stock++,
                           " WHERE model = '", selective ? "f" : "m", i % 200,
                           "'"))
          .value();
    }
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
  invalidator::StrategyTier tier;
  bool selective;
  int num_instances = 0;
  int next_stock = 100;
};

/// Cycle cost and eject precision, exact tier (tier=0) versus the
/// conservative impact walk (tier=1, kCompiledBatch), on the
/// irrelevant-update workload above. On the default rows the
/// conservative walk ejects ~every instance every cycle (all false),
/// the exact tier ejects none, and neither path issues DBMS polls. The
/// selective arm (selective=1) measures the probe's pruning: no
/// instance is a candidate, so both tiers skip the fan-out entirely.
void BM_CycleVsStrategy(benchmark::State& state) {
  const auto tier = static_cast<invalidator::StrategyTier>(state.range(1));
  StrategyWorld world(static_cast<int>(state.range(0)), tier,
                      state.range(2) == 1);
  if (world.AssignedTier() != tier) {
    state.SkipWithError("template landed on the wrong strategy tier");
    return;
  }
  uint64_t ejects = 0;
  uint64_t last_ejects = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Refill what the previous cycle ejected (a full scan, skipped when
    // nothing was — it dominates wall time at 10^5 instances).
    if (last_ejects > 0) world.RecacheMissing();
    world.Mutate(8);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle().value();
    last_ejects = report.affected_instances;
    ejects += last_ejects;
  }
  state.SetLabel(invalidator::StrategyTierName(tier));
  state.SetItemsProcessed(state.iterations() * state.range(0));
  double decisions =
      static_cast<double>(state.iterations()) * state.range(0);
  state.counters["false-ejects"] = static_cast<double>(ejects);
  state.counters["false-eject-rate"] =
      decisions > 0 ? static_cast<double>(ejects) / decisions : 0;
  state.counters["polls"] =
      static_cast<double>(world.invalidator->stats().polls_issued);
  state.counters["fast-path/cycle"] =
      static_cast<double>(
          world.invalidator->matcher_stats().fast_path_instances) /
      static_cast<double>(
          std::max<uint64_t>(1, world.invalidator->stats().cycles));
}
BENCHMARK(BM_CycleVsStrategy)
    ->ArgsProduct({{100, 1000}, {0, 1}, {0}})
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}, {1}})
    ->ArgNames({"instances", "tier", "selective"})
    ->Unit(benchmark::kMillisecond);

/// Cycle cost versus update-batch size at a fixed 100 instances.
void BM_CycleVsBatchSize(benchmark::State& state) {
  World world(100, false);
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(batch);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CycleVsBatchSize)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

/// Parallel-pipeline scaling: a poll-heavy cycle (no join index, so every
/// join instance's poll goes to the DBMS and scans a 2000-row Mileage)
/// swept across worker counts. UseRealTime is required: pooled work runs
/// off the benchmark thread, so its CPU-time clock would miss it.
void BM_CycleVsWorkers(benchmark::State& state) {
  invalidator::InvalidatorOptions options;
  options.worker_threads = static_cast<size_t>(state.range(0));
  World world(200, false, options, /*mileage_rows=*/2000);
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(10);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 200);
  state.counters["polls/cycle"] = static_cast<double>(
      world.invalidator->stats().polls_issued /
      std::max<uint64_t>(1, world.invalidator->stats().cycles));
}
BENCHMARK(BM_CycleVsWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Overload sweep: cycle cost across (update rate × degradation mode).
/// range(0) is the update-batch size per cycle; range(1) pins the ladder
/// to one rung by watermark choice (0 = controller off, 1 = economy,
/// 2 = conservative, 3 = emergency). Counters report what each rung
/// trades: backlog age observed at the cycle (staleness pressure) and
/// the over-invalidation rate (conservative + emergency decisions per
/// consumed update).
void BM_CycleVsOverloadMode(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  invalidator::InvalidatorOptions options;
  if (mode > 0) {
    auto& ov = options.overload;
    ov.enabled = true;
    ov.min_dwell = 0;
    ov.staleness_bound = 3600 * kMicrosPerSecond;  // Depth drives mode.
    // Pin the requested rung: the thresholds at or below it are 1 (any
    // backlog qualifies), the ones above it unreachable.
    ov.economy_backlog = 1;
    ov.conservative_backlog = mode >= 2 ? 1 : uint64_t{1} << 40;
    ov.emergency_backlog = mode >= 3 ? 1 : uint64_t{1} << 40;
    ov.economy_poll_budget = 4;
  }
  World world(200, false, options);
  for (auto _ : state) {
    state.PauseTiming();
    world.RecacheMissing();  // Refill what the degraded rungs flushed.
    world.AddUpdates(batch);
    world.clock.Advance(kMicrosPerSecond);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  const auto& stats = world.invalidator->stats();
  const uint64_t cycles = std::max<uint64_t>(1, stats.cycles);
  const uint64_t updates = std::max<uint64_t>(1, stats.updates_processed);
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["polls/cycle"] =
      static_cast<double>(stats.polls_issued / cycles);
  state.counters["over-inval-rate"] =
      static_cast<double>(stats.conservative_invalidations) /
      static_cast<double>(updates);
  if (world.invalidator->overload_controller() != nullptr) {
    state.counters["max-backlog-age-us"] = static_cast<double>(
        world.invalidator->overload_controller()->stats().max_backlog_age);
  }
}
BENCHMARK(BM_CycleVsOverloadMode)
    ->ArgsProduct({{16, 64, 256}, {0, 1, 2, 3}})
    ->ArgNames({"updates", "mode"});

/// A many-type world for the sharded metadata plane: `kTables` one-column
/// tables, each contributing one query type (`a < $1`), instances spread
/// round-robin. Updates never match a predicate, so instances stay
/// registered and cycles are steady-state impact analysis over every
/// shard.
struct ShardWorld {
  static constexpr int kTables = 16;

  ShardWorld(int instances, size_t shards, size_t workers) : db(&clock) {
    for (int t = 0; t < kTables; ++t) {
      db.CreateTable(
            db::TableSchema(StrCat("T", t), {{"a", db::ColumnType::kInt}}))
          .ok();
    }
    invalidator::InvalidatorOptions options;
    options.metadata_shards = shards;
    options.worker_threads = workers;
    invalidator =
        std::make_unique<invalidator::Invalidator>(&db, &map, &clock,
                                                   options);
    for (int i = 0; i < instances; ++i) {
      map.Add(InstanceSql(i), StrCat("shop/p", i, "?##"), "/r", 0);
    }
    invalidator->RunCycle().value();  // Register instances untimed.
  }

  /// Thresholds stay far below the inserted values, so no instance is
  /// ever invalidated.
  static std::string InstanceSql(int i) {
    return StrCat("SELECT a FROM T", i % kTables, " WHERE a < ",
                  1000000 + i);
  }

  void AddUpdates(int n) {
    for (int i = 0; i < n; ++i) {
      db.ExecuteSql(
            StrCat("INSERT INTO T", i % kTables, " VALUES (", 5000000 + i,
                   ")"))
          .value();
    }
  }

  ManualClock clock;
  db::Database db;
  sniffer::QiUrlMap map;
  std::unique_ptr<invalidator::Invalidator> invalidator;
};

/// Cycle cost across metadata-plane shard counts: the differential tests
/// pin the decisions byte-identical at any (shards x workers), so this
/// curve is pure overhead/benefit of the sharding — merged iteration and
/// per-shard locking versus the single-lock plane. UseRealTime because
/// the impact fan-out runs on pool threads.
void BM_CycleVsShards(benchmark::State& state) {
  ShardWorld world(static_cast<int>(state.range(1)),
                   static_cast<size_t>(state.range(0)), /*workers=*/4);
  for (auto _ : state) {
    state.PauseTiming();
    world.AddUpdates(16);
    state.ResumeTiming();
    auto report = world.invalidator->RunCycle();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_CycleVsShards)
    ->ArgsProduct({{1, 2, 4, 8}, {1000, 10000}})
    ->ArgNames({"shards", "instances"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Registration throughput while a cycle churns — the tentpole's reason
/// to exist. A background thread runs update + cycle back to back; the
/// timed thread streams QI/URL-map adds and registrations over a bounded
/// rotating SQL set (after the first rotation every call is the known-SQL
/// fast path: route-map lookup + one shard lock). More shards means a
/// registration rarely waits on the shard a cycle phase currently holds.
void BM_RegistrationDuringCycle(benchmark::State& state) {
  ShardWorld world(1000, static_cast<size_t>(state.range(0)),
                   /*workers=*/2);
  std::atomic<bool> stop{false};
  std::thread cycler([&world, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      world.AddUpdates(4);
      world.invalidator->RunCycle().value();
    }
  });
  constexpr int kRotation = 4096;
  constexpr int kOffset = 100000;  // Disjoint from the seeded instances.
  int64_t i = 0;
  for (auto _ : state) {
    const int slot = static_cast<int>(i % kRotation);
    const std::string sql = ShardWorld::InstanceSql(kOffset + slot);
    world.map.Add(sql, StrCat("reg/p", slot, "?##"), "/r", 0);
    Status status = world.invalidator->RegisterInstance(sql);
    benchmark::DoNotOptimize(status);
    ++i;
  }
  stop.store(true, std::memory_order_relaxed);
  cycler.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrationDuringCycle)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("shards")
    ->UseRealTime();

/// Restart cost versus registered instances, with and without a
/// snapshot covering them. The timed region is DurabilityCoordinator
/// Open(): snapshot load + WAL-suffix replay — the time until the
/// process can serve again (the registry itself rebuilds lazily, inside
/// the first cycle). With snapshot=1 the WAL suffix is 3 commits
/// regardless of instance count; with snapshot=0 the suffix IS the full
/// registration history, so Open degrades to O(total state) — the
/// contrast the snapshot machinery exists to buy.
void BM_RecoveryVsInstances(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  const bool snapshot = state.range(1) != 0;
  ManualClock clock;
  db::Database db(&clock);
  db.CreateTable(db::TableSchema("Car",
                                 {{"maker", db::ColumnType::kString},
                                  {"model", db::ColumnType::kString},
                                  {"price", db::ColumnType::kInt}}))
      .ok();
  sniffer::QiUrlMap map;
  SimEnv env;
  invalidator::DurabilityOptions dopts;
  dopts.dir = "meta";
  dopts.env = &env;
  dopts.snapshot_every_cycles = 0;

  // The doomed process: register everything, journal it, maybe snapshot,
  // then commit a short post-snapshot suffix.
  {
    invalidator::Invalidator inv(&db, &map, &clock);
    invalidator::DurabilityCoordinator coord(&inv, dopts);
    if (!coord.Open().ok()) state.SkipWithError("setup open failed");
    for (int i = 0; i < instances; ++i) {
      map.Add(StrCat("SELECT model FROM Car WHERE maker = 'maker", i, "'"),
              StrCat("shop/p", i, "?##"), "/r", 0);
    }
    coord.RunCycle().value();
    if (snapshot && !coord.Snapshot().ok()) {
      state.SkipWithError("setup snapshot failed");
    }
    for (int r = 0; r < 3; ++r) {
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('nobody', 'zz", r,
                           "', ", 500000 + r, ")"))
          .value();
      coord.RunCycle().value();
    }
  }

  uint64_t replayed = 0;
  uint64_t staged = 0;
  for (auto _ : state) {
    state.PauseTiming();
    env.Recover();  // Power-cut the previous incarnation's handles.
    invalidator::Invalidator inv(&db, &map, &clock);
    invalidator::DurabilityCoordinator coord(&inv, dopts);
    state.ResumeTiming();
    if (!coord.Open().ok()) state.SkipWithError("recovery open failed");
    state.PauseTiming();
    replayed = coord.store().stats().records_recovered;
    staged = inv.pending_restore_ops();
    inv.ApplyPendingRestore();  // The lazy drain, outside the timing.
    benchmark::DoNotOptimize(inv.metadata().NumInstances());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * instances);
  state.counters["wal-records-replayed"] = static_cast<double>(replayed);
  state.counters["staged-restore-ops"] = static_cast<double>(staged);
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    state.counters["maxrss-mb"] =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
}
BENCHMARK(BM_RecoveryVsInstances)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}})
    ->ArgNames({"instances", "snapshot"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
