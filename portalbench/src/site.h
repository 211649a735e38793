// The benchmark's site, assembled from the library's public APIs:
//
//   client -> [edge RemoteCacheEndpoint x N] -> CachingProxy (origin)
//          -> ApplicationServer (+ request logger) -> servlet
//          -> sniffer query-logging connection -> MemoryDbDriver -> Database
//
// CachePortal::RunCycle invalidates the origin cache directly and, with
// edges, routes ejects through DeliveryRouter -> ReliableDeliveryQueue ->
// WireCacheSink -> WireInvalidationClient -> loopback TCP ->
// InvalidationServer. A Timing* wrapper sits at every module boundary so
// the tracer can attribute time per layer.
#ifndef PORTALBENCH_SITE_H_
#define PORTALBENCH_SITE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/page_cache.h"
#include "common/clock.h"
#include "core/cache_portal.h"
#include "core/delivery_router.h"
#include "core/reliable_delivery.h"
#include "core/remote_cache.h"
#include "db/database.h"
#include "net/invalidation_server.h"
#include "net/wire_client.h"
#include "server/app_server.h"
#include "server/jdbc.h"
#include "trace.h"
#include "workload.h"

namespace portalbench {

namespace cp = cacheportal;

/// Statement counts taken at the JDBC boundaries.
struct JdbcCounters {
  uint64_t db_queries = 0;  // Servlet queries reaching the database driver.
  uint64_t polls = 0;       // Statements on the polling connection.
};

/// One response as the client saw it.
struct Outcome {
  int status = 0;
  bool hit = false;     // Served by the first cache the client reached.
  bool cached = false;  // Served by any cache (edge misses may hit the
                        // origin cache).
  std::string body;
};

class Site {
 public:
  /// Builds the site: loads `inputs.load`, wires every layer, and (with
  /// durability) opens a fresh store in `work_dir`. Serves nothing yet.
  static Result<std::unique_ptr<Site>> Create(const Shape& shape,
                                              const Inputs& inputs,
                                              const std::string& work_dir,
                                              Tracer* tracer);
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Sends one page request; the client-visible latency is this call.
  void Issue(int page);
  /// Decodes the response of the last Issue().
  Outcome Collect();

  /// Applies one update statement.
  Status Update(const std::string& sql);

  /// One sync point: RunCycle, then (with edges) drain delivery until
  /// every eject is acknowledged. Fails if any eject is left undelivered.
  Status SyncPoint();

  /// The page body computed directly against the database, with an
  /// equivalent query of the oracle's own.
  Result<std::string> FreshBody(int page);

  /// Every page left in every cache: (page index or -1 for a key that
  /// names no page, cached body).
  std::vector<std::pair<int, std::string>> CachedPages();

  /// Page index of a cache key, or -1.
  int PageOfKey(const std::string& key) const;

  /// Summed statistics of the origin and edge caches.
  cp::cache::PageCacheStats CacheStats();
  cp::cache::PageCache* origin_cache() { return portal_->page_cache(); }
  cp::core::CachePortal* portal() { return portal_.get(); }
  const JdbcCounters& jdbc() const { return jdbc_; }
  const StorageCounters& storage() const { return storage_; }
  /// Table row counts right now.
  size_t SmallRows() const;
  size_t LargeRows() const;

  /// Wire and delivery counters summed over edges (zero without edges).
  struct NetCounters {
    uint64_t batch_frames = 0;
    uint64_t batched_entries = 0;
    uint64_t acks = 0;
    uint64_t duplicates = 0;
    uint64_t retries = 0;
  };
  NetCounters Net() const;

 private:
  struct Edge {
    Edge(size_t capacity, const cp::Clock* clock) : cache(capacity, clock) {}
    std::string name;
    cp::cache::PageCache cache;
    // Guards `cache`: the client thread serves from it while the
    // invalidation server's session thread applies ejects.
    std::mutex mu;
    std::unique_ptr<cp::core::RemoteCacheEndpoint> endpoint;
    std::unique_ptr<cp::net::InvalidationServer> server;
    std::unique_ptr<cp::net::WireInvalidationClient> client;
    std::unique_ptr<cp::core::WireCacheSink> sink;
  };
  struct Page {
    int cls = 0;
    int grp = 0;
    cp::http::HttpRequest request;
    std::string wire;  // `request` serialized, as edges receive it.
    cp::http::PageId id;  // Narrowed identity (the cache key's source).
    std::string key;
  };

  Site(const Shape& shape, Tracer* tracer);
  Status Wire(const Inputs& inputs, const std::string& work_dir);
  Status WireEdges();
  Edge* EdgeFor(const std::string& key);

  const Shape& shape_;
  Tracer* tracer_;
  JdbcCounters jdbc_;
  StorageCounters storage_;
  cp::ManualClock clock_;
  cp::db::Database db_;
  TimingEnv env_;
  std::vector<Page> pages_;
  std::unordered_map<std::string, int> page_of_key_;

  // Declared before the portal, whose invalidator holds the delivery sink.
  std::vector<std::unique_ptr<Edge>> edges_;
  std::unique_ptr<cp::core::ReliableDeliveryQueue> queue_;
  std::unique_ptr<cp::core::DeliveryRouter> router_;
  std::unique_ptr<TimingSink> deliver_sink_;

  std::unique_ptr<cp::server::MemoryDbDriver> raw_driver_;
  std::unique_ptr<TimingDriver> db_driver_;
  std::unique_ptr<cp::core::CachePortal> portal_;
  std::unique_ptr<cp::server::Driver> logging_driver_;
  cp::server::DriverManager drivers_;
  std::unique_ptr<cp::server::ConnectionPool> pool_;
  std::unique_ptr<cp::server::ApplicationServer> app_;
  std::unique_ptr<TimingHandler> app_timing_;
  std::unique_ptr<TimingHandler> proxy_timing_;
  std::unique_ptr<cp::server::Connection> poll_connection_;

  // Response of the last Issue().
  cp::http::HttpResponse last_response_;
  std::string last_wire_;
  uint64_t origin_hits_before_ = 0;
};

}  // namespace portalbench

#endif  // PORTALBENCH_SITE_H_
