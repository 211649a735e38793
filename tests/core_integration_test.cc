#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/cache_portal.h"
#include "db/database.h"
#include "server/app_server.h"
#include "server/jdbc.h"

namespace cacheportal::core {
namespace {

/// Full-system test: database + JDBC pool (wrapped by the query logger) +
/// application server (wrapped by the request logger) + caching proxy +
/// invalidator, exactly as a site would deploy CachePortal.
class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : db_(&clock_) {}

  void SetUp() override {
    // Site database.
    ASSERT_TRUE(db_.CreateTable(db::TableSchema(
                                    "Car", {{"maker", db::ColumnType::kString},
                                            {"model", db::ColumnType::kString},
                                            {"price", db::ColumnType::kInt}}))
                    .ok());
    db_.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 18000)")
        .value();
    db_.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 25000)")
        .value();

    // CachePortal attaches to the already-populated site: updates that
    // predate deployment are not replayed.
    portal_holder_ = std::make_unique<CachePortal>(&db_, &clock_);

    // JDBC wiring: site driver wrapped by the sniffer's query logger.
    auto raw = std::make_unique<server::MemoryDbDriver>();
    raw->BindDatabase("shop", &db_);
    manager_.RegisterDriver(portal().WrapDriver(raw.get()));
    raw_driver_ = std::move(raw);
    pool_ = std::move(
        server::ConnectionPool::Create(
            "pool", "jdbc:cacheportal-log:jdbc:cacheportal:shop", 2,
            &manager_)
            .value());

    // Application server with one servlet: /cars?max=N lists cars cheaper
    // than N.
    app_ = std::make_unique<server::ApplicationServer>(pool_.get());
    ASSERT_TRUE(
        app_->RegisterServlet(
                "/cars",
                std::make_unique<server::FunctionServlet>(
                    [this](const http::HttpRequest& req,
                           server::ServletContext* ctx) {
                      std::string max = req.get_params.count("max")
                                            ? req.get_params.at("max")
                                            : "99999";
                      clock_.Advance(1000);  // Servlet compute time.
                      auto result = ctx->connection->ExecuteQuery(
                          "SELECT model, price FROM Car WHERE price < " +
                          max);
                      if (!result.ok()) {
                        return http::HttpResponse::ServerError(
                            result.status().ToString());
                      }
                      return http::HttpResponse::Ok(result->ToString());
                    }),
                server::ServletConfig{})
            .ok());

    // CachePortal attachment (non-invasive: only wrappers).
    portal().AttachTo(app_.get());
    server::ServletConfig config;
    config.name = "/cars";
    config.key_get_params = {"max"};
    portal().RegisterServlet(config);
    proxy_ = portal().CreateProxy(app_.get());
  }

  CachePortal& portal() { return *portal_holder_; }

  http::HttpResponse Get(const std::string& url) {
    auto req = http::HttpRequest::Get(url);
    EXPECT_TRUE(req.ok());
    clock_.Advance(100);
    return proxy_->Handle(*req);
  }

  ManualClock clock_;
  db::Database db_;
  std::unique_ptr<CachePortal> portal_holder_;
  server::DriverManager manager_;
  std::unique_ptr<server::Driver> raw_driver_;
  std::unique_ptr<server::ConnectionPool> pool_;
  std::unique_ptr<server::ApplicationServer> app_;
  CachingProxy* proxy_ = nullptr;
};

TEST_F(IntegrationTest, MissThenHitServedFromCache) {
  http::HttpResponse first = Get("http://shop/cars?max=20000");
  EXPECT_EQ(first.status_code, 200);
  EXPECT_EQ(first.headers.Get("X-Cache"), "MISS");
  EXPECT_NE(first.body.find("Civic"), std::string::npos);

  http::HttpResponse second = Get("http://shop/cars?max=20000");
  EXPECT_EQ(second.headers.Get("X-Cache"), "HIT");
  EXPECT_EQ(second.body, first.body);
  // The application server saw only the first request.
  EXPECT_EQ(app_->requests_served(), 1u);
}

TEST_F(IntegrationTest, NonKeyParametersShareTheCacheEntry) {
  Get("http://shop/cars?max=20000&utm=campaign1");
  http::HttpResponse second = Get("http://shop/cars?max=20000&utm=other");
  EXPECT_EQ(second.headers.Get("X-Cache"), "HIT");
}

TEST_F(IntegrationTest, DifferentKeyParameterIsDifferentPage) {
  Get("http://shop/cars?max=20000");
  http::HttpResponse other = Get("http://shop/cars?max=30000");
  EXPECT_EQ(other.headers.Get("X-Cache"), "MISS");
  EXPECT_EQ(portal().page_cache()->size(), 2u);
}

TEST_F(IntegrationTest, SnifferBuiltTheQiUrlMap) {
  Get("http://shop/cars?max=20000");
  portal().RunCycle().value();
  EXPECT_GE(portal().request_log().lifetime_size(), 1u);
  EXPECT_GE(portal().query_log().lifetime_size(), 1u);
  // The mapper trimmed the request it mapped.
  EXPECT_EQ(portal().request_log().size(), 0u);
  EXPECT_GE(portal().qiurl_map().size(), 1u);
  // The map ties the SELECT to the narrowed page key.
  auto pages = portal().qiurl_map().PagesForQuery(
      "SELECT model, price FROM Car WHERE price < 20000");
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_NE(pages[0].find("max=20000"), std::string::npos);
}

TEST_F(IntegrationTest, UpdateInvalidatesAffectedPageOnly) {
  Get("http://shop/cars?max=20000");  // Cached: cars under 20000.
  Get("http://shop/cars?max=17000");  // Cached: cars under 17000.
  portal().RunCycle().value();         // Sniffer map built; no updates yet.
  EXPECT_EQ(portal().page_cache()->size(), 2u);

  // A new 18500 car affects the max=20000 page but not max=17000.
  db_.ExecuteSql("INSERT INTO Car VALUES ('Mazda', 'Miata', 18500)").value();
  auto report = portal().RunCycle();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pages_invalidated, 1u);
  EXPECT_EQ(portal().page_cache()->size(), 1u);

  // The stale page is regenerated with the new car; the other still hits.
  http::HttpResponse fresh = Get("http://shop/cars?max=20000");
  EXPECT_EQ(fresh.headers.Get("X-Cache"), "MISS");
  EXPECT_NE(fresh.body.find("Miata"), std::string::npos);
  EXPECT_EQ(Get("http://shop/cars?max=17000").headers.Get("X-Cache"), "HIT");
}

TEST_F(IntegrationTest, NoStalePageIsEverServedAfterACycle) {
  Get("http://shop/cars?max=20000");
  portal().RunCycle().value();
  db_.ExecuteSql("UPDATE Car SET price = 15000 WHERE model = 'Avalon'")
      .value();
  portal().RunCycle().value();
  http::HttpResponse resp = Get("http://shop/cars?max=20000");
  // The Avalon now qualifies and must appear (page was invalidated).
  EXPECT_NE(resp.body.find("Avalon"), std::string::npos);
}

TEST_F(IntegrationTest, EjectMessageThroughProxyEndpoint) {
  Get("http://shop/cars?max=20000");
  // A cache operator (or the invalidator over HTTP) can eject via the
  // proxy itself.
  auto eject = http::HttpRequest::Get("http://shop/cars?max=20000");
  eject->headers.Set("Cache-Control", "eject");
  http::HttpResponse resp = proxy_->Handle(*eject);
  EXPECT_EQ(resp.status_code, 204);
  EXPECT_EQ(Get("http://shop/cars?max=20000").headers.Get("X-Cache"),
            "MISS");
}

TEST_F(IntegrationTest, TruncateOptionBoundsUpdateLogGrowth) {
  // A portal configured as the log's sole consumer keeps it short.
  CachePortalOptions options;
  options.truncate_update_log = true;
  CachePortal truncating(&db_, &clock_, options);
  for (int i = 0; i < 5; ++i) {
    db_.ExecuteSql("INSERT INTO Car VALUES ('A', 'B', 1)").value();
    truncating.RunCycle().value();
    EXPECT_EQ(db_.update_log().size(), 0u) << "iteration " << i;
  }
  // New records continue the sequence after truncation.
  db_.ExecuteSql("INSERT INTO Car VALUES ('A', 'B', 2)").value();
  EXPECT_EQ(db_.update_log().size(), 1u);
  auto report = truncating.RunCycle().value();
  EXPECT_EQ(report.updates, 1u);
}

TEST_F(IntegrationTest, CheckpointTrimsTheConsumedLogPrefix) {
  // Checkpoint() captures the invalidator's durable state and then trims
  // the update log through the consumed cursor: crash recovery and
  // bounded log growth come from the same sync point.
  Get("http://shop/cars?max=20000");
  portal().RunCycle().value();
  db_.ExecuteSql("INSERT INTO Car VALUES ('Mazda', 'Miata', 18500)").value();
  portal().RunCycle().value();
  EXPECT_GT(db_.update_log().size(), 0u);

  std::string state = portal().Checkpoint();
  EXPECT_FALSE(state.empty());
  EXPECT_EQ(db_.update_log().size(), 0u);

  // Records appended after the checkpoint survive the trim and are
  // consumed normally.
  db_.ExecuteSql("INSERT INTO Car VALUES ('Honda', 'Civic', 16000)").value();
  EXPECT_EQ(db_.update_log().size(), 1u);
  EXPECT_TRUE(portal().Restore(state).ok());
  auto report = portal().RunCycle().value();
  EXPECT_EQ(report.updates, 1u);
}

TEST_F(IntegrationTest, CacheStatsTrackTraffic) {
  Get("http://shop/cars?max=20000");
  Get("http://shop/cars?max=20000");
  Get("http://shop/cars?max=20000");
  const cache::PageCacheStats& stats = portal().page_cache()->stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

}  // namespace
}  // namespace cacheportal::core
