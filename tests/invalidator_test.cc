#include <gtest/gtest.h>

#include "common/clock.h"
#include "db/database.h"
#include "invalidator/invalidator.h"
#include "sniffer/qiurl_map.h"

namespace cacheportal::invalidator {
namespace {

using sql::Value;

/// Records invalidation messages instead of delivering them.
class RecordingSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest& message,
                          const std::string& cache_key) override {
    keys.push_back(cache_key);
    messages.push_back(message);
    return Status::OK();
  }

  std::vector<std::string> keys;
  std::vector<http::HttpRequest> messages;
};

class InvalidatorTest : public ::testing::Test {
 protected:
  InvalidatorTest() : db_(&clock_) {}

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
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Avalon', 28)").value();
  }

  std::unique_ptr<Invalidator> Make(InvalidatorOptions options = {}) {
    auto inv = std::make_unique<Invalidator>(&db_, &map_, &clock_, options);
    inv->AddSink(&sink_);
    return inv;
  }

  /// Simulates the sniffer having recorded that `page` was built from
  /// `query_sql`.
  void MapPage(const std::string& query_sql, const std::string& page) {
    map_.Add(query_sql, page, "/r", clock_.NowMicros());
  }

  ManualClock clock_;
  db::Database db_;
  sniffer::QiUrlMap map_;
  RecordingSink sink_;
};

constexpr char kCheapCars[] = "SELECT * FROM Car WHERE price < 20000";
constexpr char kJoin[] =
    "SELECT Car.model FROM Car, Mileage WHERE Car.model = Mileage.model AND "
    "Car.price < 20000";

TEST_F(InvalidatorTest, NoUpdatesNoInvalidations) {
  auto inv = Make();
  MapPage(kCheapCars, "shop/cars?price=20000##");
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->updates, 0u);
  EXPECT_EQ(report->pages_invalidated, 0u);
  EXPECT_EQ(report->new_instances, 1u);
  EXPECT_TRUE(sink_.keys.empty());
}

TEST_F(InvalidatorTest, MatchingInsertInvalidatesPage) {
  auto inv = Make();
  MapPage(kCheapCars, "shop/cars?price=20000##");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 18000)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pages_invalidated, 1u);
  ASSERT_EQ(sink_.keys.size(), 1u);
  EXPECT_EQ(sink_.keys[0], "shop/cars?price=20000##");
  // The eject message is a well-formed HTTP request with the directive.
  const http::HttpRequest& msg = sink_.messages[0];
  EXPECT_EQ(msg.host, "shop");
  EXPECT_EQ(msg.path, "/cars");
  EXPECT_TRUE(
      http::CacheControl::Parse(*msg.headers.Get("Cache-Control")).eject);
}

TEST_F(InvalidatorTest, NonMatchingInsertLeavesPageAlone) {
  auto inv = Make();
  MapPage(kCheapCars, "page1");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Lexus', 'LS', 90000)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pages_invalidated, 0u);
  EXPECT_EQ(inv->stats().unaffected, 1u);
  // The page stays registered for later cycles.
  EXPECT_FALSE(map_.PagesForQuery(kCheapCars).empty());
}

TEST_F(InvalidatorTest, JoinQueryUsesPollingQuery) {
  auto inv = Make();
  MapPage(kJoin, "page-join");
  // Avalon IS in Mileage: the polling query returns non-empty.
  db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)")
      .value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->polls_issued, 1u);
  EXPECT_EQ(report->pages_invalidated, 1u);
  EXPECT_EQ(inv->stats().poll_hits, 1u);
}

TEST_F(InvalidatorTest, JoinQueryPollMissLeavesPage) {
  auto inv = Make();
  MapPage(kJoin, "page-join");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 15000)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->polls_issued, 1u);
  EXPECT_EQ(report->pages_invalidated, 0u);
}

TEST_F(InvalidatorTest, JoinIndexAvoidsPolling) {
  auto inv = Make();
  ASSERT_TRUE(inv->CreateJoinIndex("Mileage", "model").ok());
  MapPage(kJoin, "page-join");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)")
      .value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->polls_issued, 0u);
  EXPECT_GE(report->polls_answered_by_index, 1u);
  EXPECT_EQ(report->pages_invalidated, 1u);
}

// The join index hashes values by representation: it answers a poll
// only for a literal of the column's declared class, and leaves
// `Mileage.EPA = 28.0` (a double against an INT column, equal to the
// cell 28 under SQL) to the DBMS instead of answering "no row".
TEST_F(InvalidatorTest, JoinIndexLeavesMixedClassPollsToTheDbms) {
  auto inv = Make();
  ASSERT_TRUE(inv->CreateJoinIndex("Mileage", "EPA").ok());
  MapPage("SELECT Car.maker FROM Car, Mileage WHERE Mileage.EPA = 28.0 AND "
          "Car.price < 20000",
          "shop/double?##");
  MapPage("SELECT Car.maker FROM Car, Mileage WHERE Mileage.EPA = 28 AND "
          "Car.price < 20000",
          "shop/int?##");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Kia', 'Rio', 15000)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->polls_answered_by_index, 1u);  // The int literal.
  EXPECT_EQ(report->polls_issued, 1u);             // The double one.
  EXPECT_EQ(report->pages_invalidated, 2u);
}

TEST_F(InvalidatorTest, PollingBudgetForcesConservativeInvalidation) {
  InvalidatorOptions options;
  options.max_polls_per_cycle = 1;
  auto inv = Make(options);
  // Two join instances; tuple requires polling for both, and the poll
  // would come back empty (Focus not in Mileage) — but only one poll is
  // allowed, so the other instance is conservatively invalidated.
  MapPage(kJoin, "page-a");
  MapPage(
      "SELECT Car.maker FROM Car, Mileage WHERE Car.model = Mileage.model "
      "AND Car.price < 30000",
      "page-b");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Ford', 'Focus', 15000)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->polls_issued, 1u);
  EXPECT_EQ(report->conservative_invalidations, 1u);
  EXPECT_EQ(report->pages_invalidated, 1u);  // Only the conservative one.
}

TEST_F(InvalidatorTest, UpdateStatementInvalidates) {
  auto inv = Make();
  db_.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 25000)").value();
  // Drain the log so only the UPDATE is in the next cycle.
  inv->RunCycle().value();
  MapPage(kCheapCars, "page1");
  // Price drops under the threshold: Δ⁻(25000) misses, Δ⁺(18000) hits.
  db_.ExecuteSql("UPDATE Car SET price = 18000 WHERE model = 'Civic'")
      .value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pages_invalidated, 1u);
}

TEST_F(InvalidatorTest, DeleteOfMatchingRowInvalidates) {
  auto inv = Make();
  db_.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 18000)").value();
  inv->RunCycle().value();
  MapPage(kCheapCars, "page1");
  db_.ExecuteSql("DELETE FROM Car WHERE model = 'Civic'").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pages_invalidated, 1u);
}

TEST_F(InvalidatorTest, SharedPageInvalidatedOnceAcrossInstances) {
  auto inv = Make();
  MapPage(kCheapCars, "shared-page");
  MapPage("SELECT * FROM Car WHERE maker = 'Honda'", "shared-page");
  db_.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 18000)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pages_invalidated, 1u);
  EXPECT_EQ(sink_.keys.size(), 1u);
  // Both instances are retired with the page.
  EXPECT_EQ(inv->metadata().NumInstances(), 0u);
}

TEST_F(InvalidatorTest, MultipleCyclesConsumeLogIncrementally) {
  auto inv = Make();
  MapPage(kCheapCars, "p1");
  db_.ExecuteSql("INSERT INTO Car VALUES ('A', 'X', 50000)").value();
  auto r1 = inv->RunCycle();
  EXPECT_EQ(r1->updates, 1u);
  auto r2 = inv->RunCycle();
  EXPECT_EQ(r2->updates, 0u);  // Log already consumed.
  db_.ExecuteSql("INSERT INTO Car VALUES ('B', 'Y', 50)").value();
  auto r3 = inv->RunCycle();
  EXPECT_EQ(r3->updates, 1u);
  EXPECT_EQ(r3->pages_invalidated, 1u);
}

TEST_F(InvalidatorTest, PerTupleModeIssuesMorePolls) {
  InvalidatorOptions batched;
  batched.batch_deltas = true;
  InvalidatorOptions per_tuple;
  per_tuple.batch_deltas = false;

  // Run the same scenario under both modes in separate worlds.
  for (bool batch : {true, false}) {
    ManualClock clock;
    db::Database db(&clock);
    db.CreateTable(db::TableSchema("Car",
                                   {{"maker", db::ColumnType::kString},
                                    {"model", db::ColumnType::kString},
                                    {"price", db::ColumnType::kInt}}));
    db.CreateTable(db::TableSchema(
        "Mileage",
        {{"model", db::ColumnType::kString}, {"EPA", db::ColumnType::kInt}}));
    sniffer::QiUrlMap map;
    RecordingSink sink;
    Invalidator inv(&db, &map, &clock, batch ? batched : per_tuple);
    inv.AddSink(&sink);
    map.Add(kJoin, "p", "/r", 0);
    // Three inserts that each require polling (none in Mileage).
    db.ExecuteSql("INSERT INTO Car VALUES ('A', 'X', 1)").value();
    db.ExecuteSql("INSERT INTO Car VALUES ('B', 'Y', 2)").value();
    db.ExecuteSql("INSERT INTO Car VALUES ('C', 'Z', 3)").value();
    auto report = inv.RunCycle();
    ASSERT_TRUE(report.ok());
    if (batch) {
      EXPECT_EQ(report->polls_issued, 1u);  // One OR-combined poll.
    } else {
      EXPECT_EQ(report->polls_issued, 3u);  // One poll per tuple.
    }
    EXPECT_EQ(report->pages_invalidated, 0u);
  }
}

TEST_F(InvalidatorTest, PolicyDiscoveryMarksChurningTypeNonCacheable) {
  InvalidatorOptions options;
  options.thresholds.max_invalidation_ratio = 0.5;
  options.thresholds.min_checks = 2;
  auto inv = Make(options);

  for (int i = 0; i < 4; ++i) {
    MapPage(kCheapCars, "page" + std::to_string(i));
    db_.ExecuteSql("INSERT INTO Car VALUES ('H', 'C', 100)").value();
    inv->RunCycle().value();
  }
  // Every cycle invalidated the instance: ratio 1.0 > 0.5.
  EXPECT_FALSE(inv->IsQuerySqlCacheable(kCheapCars));
}

TEST_F(InvalidatorTest, OfflineRegistrationNamesDiscoveredInstances) {
  auto inv = Make();
  ASSERT_TRUE(
      inv->RegisterQueryType("cheap-cars",
                             "SELECT * FROM Car WHERE price < $1")
          .ok());
  MapPage(kCheapCars, "p");
  inv->RunCycle().value();
  const QueryInstance* instance =
      inv->metadata().FindInstance(kCheapCars);
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(inv->metadata().FindType(instance->type_id)->name, "cheap-cars");
}

TEST_F(InvalidatorTest, UnparseableQueryInstancesAreSkippedGracefully) {
  auto inv = Make();
  // The sniffer can log queries our dialect cannot parse (stored procs,
  // vendor syntax); they must not break the cycle or other instances.
  MapPage("EXEC sp_vendor_magic(42)", "page-weird");
  MapPage(kCheapCars, "page-ok?##");
  db_.ExecuteSql("INSERT INTO Car VALUES ('H', 'C', 100)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The parseable instance was processed and its page invalidated.
  EXPECT_EQ(report->pages_invalidated, 1u);
  EXPECT_EQ(sink_.keys.size(), 1u);
  EXPECT_EQ(inv->metadata().NumInstances(), 0u);
}

TEST_F(InvalidatorTest, InstanceOverUnknownTableIsBenign) {
  // A query instance referencing a table this DBMS does not have (e.g.
  // the application also talks to another database) never matches any
  // delta and never blocks the cycle.
  auto inv = Make();
  MapPage("SELECT * FROM Ghost WHERE x = 1", "shop/ghost?##");
  MapPage(kCheapCars, "shop/ok?##");
  db_.ExecuteSql("INSERT INTO Car VALUES ('H', 'C', 100)").value();
  auto report = inv->RunCycle();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages_invalidated, 1u);  // Only the Car page.
  ASSERT_EQ(sink_.keys.size(), 1u);
  EXPECT_EQ(sink_.keys[0], "shop/ok?##");
  // The ghost instance stays registered, unaffected.
  EXPECT_FALSE(map_.PagesForQuery("SELECT * FROM Ghost WHERE x = 1")
                   .empty());
}

TEST_F(InvalidatorTest, StatsAccumulate) {
  auto inv = Make();
  MapPage(kCheapCars, "p");
  db_.ExecuteSql("INSERT INTO Car VALUES ('H', 'C', 100)").value();
  inv->RunCycle().value();
  const InvalidatorStats& stats = inv->stats();
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.updates_processed, 1u);
  EXPECT_EQ(stats.instance_checks, 1u);
  EXPECT_EQ(stats.affected_immediately, 1u);
  EXPECT_EQ(stats.pages_invalidated, 1u);
  EXPECT_EQ(stats.messages_sent, 1u);
}

}  // namespace
}  // namespace cacheportal::invalidator
