#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/reliable_delivery.h"
#include "db/database.h"
#include "invalidator/baseline.h"
#include "invalidator/invalidator.h"
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

/// The core recovery scenario: updates commit while the invalidator is
/// down. A naive restart attaches at the log tail and silently misses
/// them; Restore() rewinds to the checkpointed position and replays.
TEST(InvalidatorCheckpointTest, RestoreReplaysUpdatesCommittedDuringOutage) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;

  RecordingSink sink1;
  auto inv1 = std::make_unique<Invalidator>(&db, &map, &clock);
  inv1->AddSink(&sink1);
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);
  inv1->RunCycle().value();  // Registers the instance; nothing stale yet.
  std::string checkpoint = inv1->Checkpoint();

  // Crash. An update commits while the invalidator is down.
  inv1.reset();
  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 15000)").value();

  RecordingSink sink2;
  Invalidator inv2(&db, &map, &clock);
  inv2.AddSink(&sink2);
  // Demonstrate the hazard: a fresh invalidator attaches at the current
  // log tail, i.e. it would never see the outage-time insert.
  EXPECT_EQ(inv2.consumed_update_seq(), db.update_log().LastSeq());

  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  EXPECT_LT(inv2.consumed_update_seq(), db.update_log().LastSeq());

  inv2.RunCycle().value();
  EXPECT_TRUE(sink2.invalidated.contains("shop/cheap?##"));
}

TEST(InvalidatorCheckpointTest, RestoreRejectsGarbage) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  Invalidator inv(&db, &map, &clock);
  EXPECT_FALSE(inv.Restore("").ok());
  EXPECT_FALSE(inv.Restore("not a checkpoint").ok());
  std::string good = inv.Checkpoint();
  EXPECT_FALSE(inv.Restore(good.substr(0, good.size() - 4)).ok());
  EXPECT_TRUE(inv.Restore(good).ok());
}

/// The snapshot carries one QI/URL-map cursor per metadata shard PLUS
/// the full registry (types + instance SQLs + strategy tiers), and
/// restores into a process with a DIFFERENT live shard count (the
/// persisted partitioning never constrains the new configuration —
/// mismatched cursors fall back to the minimum position, and the
/// snapshot's own instances rebuild the registry without a rescan).
TEST(InvalidatorCheckpointTest, SnapshotRoundTripsAcrossShardCounts) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);

  InvalidatorOptions three;
  three.metadata_shards = 3;
  Invalidator inv(&db, &map, &clock, three);
  inv.RunCycle().value();
  std::string checkpoint = inv.Checkpoint();
  // At the same shard count every cursor restores exactly: all three
  // advanced in lockstep to the scanned map row.
  Invalidator same(&db, &map, &clock, three);
  ASSERT_TRUE(same.Restore(checkpoint).ok());
  EXPECT_EQ(same.metadata().MapCursors(),
            std::vector<uint64_t>(3, map.LastId()));
  // The registry travels in the snapshot: the instance's SQL is there.
  EXPECT_NE(checkpoint.find("SELECT * FROM Car WHERE price < 20000"),
            std::string::npos);

  db.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 15000)").value();
  RecordingSink sink;
  InvalidatorOptions two;
  two.metadata_shards = 2;
  Invalidator inv2(&db, &map, &clock, two);
  inv2.AddSink(&sink);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  // The instance is staged, not parsed yet; the first cycle drains it.
  EXPECT_GE(inv2.pending_restore_ops(), 1u);
  inv2.RunCycle().value();
  EXPECT_EQ(inv2.pending_restore_ops(), 0u);
  EXPECT_TRUE(sink.invalidated.contains("shop/cheap?##"));
}

/// Restore puts the cursors back at their persisted positions — the map
/// is NOT rescanned. A row retired before the checkpoint must not
/// resurrect.
TEST(InvalidatorCheckpointTest, RestoresCursorsWithoutRescan) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);

  Invalidator inv(&db, &map, &clock);
  inv.RunCycle().value();
  std::string checkpoint = inv.Checkpoint();

  Invalidator inv2(&db, &map, &clock);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  inv2.RunCycle().value();
  // Cursor restored past the existing row: the map scan absorbed nothing
  // new, yet the registry is whole (rebuilt from the snapshot itself).
  EXPECT_EQ(inv2.metadata().MinMapCursor(), map.LastId());
  EXPECT_EQ(inv2.metadata().NumInstances(), 1u);
  // Give the original the same second (empty) cycle, then the reports —
  // per-type statistics included — must be byte-identical: the restored
  // side's re-registration bumps were overwritten by the persisted
  // absolute values, not double-counted.
  inv.RunCycle().value();
  EXPECT_EQ(inv2.StatsReport(), inv.StatsReport());
}

/// Strategy tiers round-trip: a plane restored from a checkpoint reports
/// byte-identical tier assignments (tier AND demotion reason, per type)
/// and a byte-identical StatsReport — BEFORE any instance re-registers,
/// so the pins come from the blob, not a re-derivation.
TEST(InvalidatorCheckpointTest, RestoredTiersAreByteIdentical) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  sniffer::QiUrlMap map;
  // A spread of tiers: exact, demoted-by-join, demoted-by-LIKE.
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);
  map.Add(
      "SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model",
      "shop/epa?##", "/r", 0);
  map.Add("SELECT * FROM Car WHERE maker LIKE 'F%'", "shop/f?##", "/r", 0);

  InvalidatorOptions three;
  three.metadata_shards = 3;
  Invalidator inv(&db, &map, &clock, three);
  inv.RunCycle().value();
  std::map<uint64_t, TierDecision> before = inv.metadata().TierAssignments();
  ASSERT_EQ(before.size(), 3u);
  std::string checkpoint = inv.Checkpoint();

  InvalidatorOptions two;
  two.metadata_shards = 2;
  Invalidator inv2(&db, &map, &clock, two);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  std::map<uint64_t, TierDecision> after = inv2.metadata().TierAssignments();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [tid, decision] : before) {
    auto it = after.find(tid);
    ASSERT_NE(it, after.end()) << "type " << tid << " lost its tier";
    EXPECT_EQ(it->second.tier, decision.tier) << "type " << tid;
    EXPECT_EQ(it->second.reason, decision.reason) << "type " << tid;
  }
  EXPECT_EQ(inv2.StatsReport(), inv.StatsReport());
}

/// Checkpoints embed CheckpointableSink state: messages stuck in a
/// ReliableDeliveryQueue at crash time are redelivered after restart.
TEST(InvalidatorCheckpointTest, PendingQueueMessagesSurviveRestart) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  db.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 9000)").value();
  sniffer::QiUrlMap map;

  // An always-failing sink leaves the eject un-acked in the queue.
  class DownSink : public InvalidationSink {
   public:
    Status SendInvalidation(const http::HttpRequest&,
                            const std::string&) override {
      return Status::Internal("cache unreachable");
    }
  } down;
  core::DeliveryOptions dopts;
  dopts.max_attempts = 50;
  core::ReliableDeliveryQueue queue1(&clock, dopts);
  queue1.AddSink(&down, "edge");

  Invalidator inv1(&db, &map, &clock);
  inv1.AddSink(&queue1);
  inv1.RunCycle().value();
  map.Add("SELECT * FROM Car WHERE price < 20000", "shop/cheap?##", "/r", 0);
  inv1.RunCycle().value();
  db.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 8000)").value();
  inv1.RunCycle().value();
  ASSERT_GE(queue1.pending(), 1u);
  std::string checkpoint = inv1.Checkpoint();

  // Restart with a healthy cache behind the same sink name.
  RecordingSink healthy;
  core::ReliableDeliveryQueue queue2(&clock, dopts);
  queue2.AddSink(&healthy, "edge");
  Invalidator inv2(&db, &map, &clock);
  inv2.AddSink(&queue2);
  ASSERT_TRUE(inv2.Restore(checkpoint).ok());
  EXPECT_GE(queue2.pending_for("edge"), 1u);

  queue2.Pump();
  EXPECT_TRUE(healthy.invalidated.contains("shop/cheap?##"));
  EXPECT_EQ(queue2.pending(), 0u);
}

/// Differential check across a seed corpus: a run that crashes mid-stream
/// (checkpoint taken, further updates commit, process rebuilt + restored)
/// must invalidate exactly the same pages as the uninterrupted run, and
/// both must cover the exact-re-execution baseline's ground truth.
class CheckpointDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Runs `rounds` deterministic update rounds. When 0 <= crash_round <
  /// rounds, the invalidator is checkpointed at the top of that round,
  /// torn down AFTER the round's updates commit, and rebuilt + restored —
  /// modeling a crash with updates in flight.
  std::set<std::string> Run(uint64_t seed, int rounds, int crash_round,
                            std::set<std::string>* ground_truth) {
    Random rng(seed);
    ManualClock clock;
    db::Database db(&clock);
    CreateCarTables(&db);
    const char* models[] = {"Avalon", "Civic", "Eclipse", "Corolla"};
    const char* makers[] = {"Toyota", "Honda", "Mitsubishi", "Ford"};
    for (int i = 0; i < 20; ++i) {
      db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                           makers[rng.Uniform(4)], "', '",
                           models[rng.Uniform(4)], "', ",
                           rng.Uniform(30000), ")"))
          .value();
    }

    sniffer::QiUrlMap map;
    RecordingSink sink;
    auto inv = std::make_unique<Invalidator>(&db, &map, &clock);
    inv->AddSink(&sink);
    inv->RunCycle().value();  // Drain seeding updates.

    std::vector<std::string> sqls;
    for (int i = 0; i < 6; ++i) {
      sqls.push_back(i % 2 == 0
                         ? StrCat("SELECT * FROM Car WHERE price < ",
                                  5000 + rng.Uniform(25000))
                         : StrCat("SELECT * FROM Car WHERE maker = '",
                                  makers[rng.Uniform(4)], "'"));
    }
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
    }
    BaselineInvalidator baseline(&db, &map);
    baseline.RunCycle().value();
    inv->RunCycle().value();

    std::set<std::string> all_invalidated;
    for (int round = 0; round < rounds; ++round) {
      std::string checkpoint = inv->Checkpoint();
      for (int u = 0; u < 2; ++u) {
        if (rng.OneIn(0.5)) {
          db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                               makers[rng.Uniform(4)], "', '",
                               models[rng.Uniform(4)], "', ",
                               rng.Uniform(30000), ")"))
              .value();
        } else {
          db.ExecuteSql(StrCat("DELETE FROM Car WHERE price > ",
                               15000 + rng.Uniform(15000)))
              .value();
        }
      }
      if (round == crash_round) {
        // Crash with this round's updates committed but unprocessed.
        inv = std::make_unique<Invalidator>(&db, &map, &clock);
        inv->AddSink(&sink);
        EXPECT_TRUE(inv->Restore(checkpoint).ok());
      }

      auto truth = baseline.RunCycle().value();
      if (ground_truth) {
        ground_truth->insert(truth.stale_pages.begin(),
                             truth.stale_pages.end());
      }

      sink.invalidated.clear();
      inv->RunCycle().value();
      all_invalidated.insert(sink.invalidated.begin(),
                             sink.invalidated.end());

      for (const std::string& sql_text : truth.changed_instances) {
        if (map.PagesForQuery(sql_text).empty()) baseline.Forget(sql_text);
      }
      for (size_t i = 0; i < sqls.size(); ++i) {
        map.Add(sqls[i], StrCat("shop/p", i, "?##"), "/r", 0);
      }
      baseline.RunCycle().value();
      inv->RunCycle().value();
    }
    return all_invalidated;
  }
};

TEST_P(CheckpointDifferentialTest, CrashedRunMatchesUninterruptedRun) {
  std::set<std::string> truth_interrupted;
  std::set<std::string> interrupted =
      Run(GetParam(), /*rounds=*/6, /*crash_round=*/3, &truth_interrupted);
  std::set<std::string> uninterrupted =
      Run(GetParam(), /*rounds=*/6, /*crash_round=*/-1, nullptr);

  // Recovery is invisible: the same workload yields the same
  // invalidations with or without the mid-stream crash.
  EXPECT_EQ(interrupted, uninterrupted);
  // And the recovered run still covers ground truth (soundness).
  for (const std::string& page : truth_interrupted) {
    EXPECT_TRUE(interrupted.contains(page))
        << "stale page missed across crash: " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace cacheportal::invalidator
