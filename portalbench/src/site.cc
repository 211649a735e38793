#include "site.h"

#include <cstdlib>
#include <filesystem>

#include "sniffer/request_logger.h"

namespace portalbench {

namespace {

constexpr char kDbName[] = "site";
constexpr const char* kPaths[] = {"/light", "/medium", "/heavy"};
constexpr const char* kClassNames[] = {"light", "medium", "heavy"};

// Fixed logical time per operation, so every clock-driven decision
// (request/query matching, retry pacing, log timestamps) repeats exactly
// for a given seed.
constexpr cp::Micros kRequestTick = 200;
constexpr cp::Micros kServletTick = 500;
constexpr cp::Micros kUpdateTick = 100;
constexpr cp::Micros kCycleTick = cp::kMicrosPerSecond;

std::string PageSql(int cls, int grp) {
  std::string g = std::to_string(grp);
  switch (cls) {
    case 0:
      return "SELECT id, val FROM SmallT WHERE grp = " + g + " ORDER BY id";
    case 1:
      return "SELECT id, val FROM LargeT WHERE grp = " + g + " ORDER BY id";
    default:
      return "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
             "LargeT WHERE SmallT.grp = LargeT.grp AND SmallT.grp = " +
             g;
  }
}

// The ground-truth query for a page: the servlet's query, except that the
// heavy page's join is written with the group restriction on both tables,
// an equivalent form the executor answers from the grp indexes instead of
// a scan of LargeT.
std::string OracleSql(int cls, int grp) {
  if (cls != 2) return PageSql(cls, grp);
  std::string g = std::to_string(grp);
  return "SELECT COUNT(*) AS pairs, MAX(LargeT.val) AS best FROM SmallT, "
         "LargeT WHERE SmallT.grp = " +
         g + " AND LargeT.grp = " + g;
}

std::string RenderBody(int cls, int grp, const cp::db::QueryResult& result) {
  return std::string("<html><h1>") + kClassNames[cls] + " page, group " +
         std::to_string(grp) + "</h1><pre>" + result.ToString() +
         "</pre></html>";
}

}  // namespace

Site::Site(const Shape& shape, Tracer* tracer)
    : shape_(shape), tracer_(tracer), db_(&clock_), env_(tracer, &storage_) {}

Site::~Site() {
  // Close the invalidation wire before the servers stop.
  for (auto& edge : edges_) edge->client.reset();
  for (auto& edge : edges_) {
    if (edge->server != nullptr) edge->server->Stop();
  }
}

Result<std::unique_ptr<Site>> Site::Create(const Shape& shape,
                                           const Inputs& inputs,
                                           const std::string& work_dir,
                                           Tracer* tracer) {
  std::unique_ptr<Site> site(new Site(shape, tracer));
  CACHEPORTAL_RETURN_NOT_OK(site->Wire(inputs, work_dir));
  return site;
}

Status Site::Wire(const Inputs& inputs, const std::string& work_dir) {
  // ---- Tables (Section 5.2.1). ----
  for (const char* table : {"SmallT", "LargeT"}) {
    CACHEPORTAL_RETURN_NOT_OK(db_.CreateTable(cp::db::TableSchema(
        table, {{"id", cp::db::ColumnType::kInt},
                {"grp", cp::db::ColumnType::kInt},
                {"val", cp::db::ColumnType::kInt}})));
    CACHEPORTAL_RETURN_NOT_OK(db_.CreateIndex(table, "grp"));
  }
  for (const std::string& sql : inputs.load) {
    CACHEPORTAL_RETURN_NOT_OK(db_.ExecuteSql(sql).status());
  }

  // ---- CachePortal attaches to the loaded site. ----
  cp::core::CachePortalOptions options;
  options.page_cache_capacity = shape_.cache_capacity;
  if (shape_.durability) {
    options.durability.dir = work_dir + "/meta";
    options.durability.env = &env_;
    std::error_code ignored;
    std::filesystem::remove_all(options.durability.dir, ignored);
  }
  portal_ = std::make_unique<cp::core::CachePortal>(&db_, &clock_, options);

  // ---- JDBC: sniffer timing -> query logger -> db timing -> driver. ----
  raw_driver_ = std::make_unique<cp::server::MemoryDbDriver>();
  raw_driver_->BindDatabase(kDbName, &db_);
  db_driver_ = std::make_unique<TimingDriver>(
      raw_driver_.get(), Layer::kDbQuery, tracer_, &jdbc_.db_queries);
  logging_driver_ = portal_->WrapDriver(db_driver_.get());
  drivers_.RegisterDriver(std::make_unique<TimingDriver>(
      logging_driver_.get(), Layer::kJdbc, tracer_, nullptr));
  CACHEPORTAL_ASSIGN_OR_RETURN(
      pool_, cp::server::ConnectionPool::Create(
                 "pool",
                 std::string("jdbc:cacheportal-log:jdbc:cacheportal:") +
                     kDbName,
                 4, &drivers_));

  // ---- Servlets. ----
  app_ = std::make_unique<cp::server::ApplicationServer>(pool_.get());
  for (int cls = 0; cls < 3; ++cls) {
    auto servlet = [this, cls](const cp::http::HttpRequest& req,
                               cp::server::ServletContext* ctx) {
      ScopedSpan span(tracer_, Layer::kServlet);
      int grp = 0;
      if (auto it = req.get_params.find("grp"); it != req.get_params.end()) {
        grp = static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
      }
      clock_.Advance(kServletTick);
      auto result = ctx->connection->ExecuteQuery(PageSql(cls, grp));
      if (!result.ok()) {
        return cp::http::HttpResponse::ServerError(
            result.status().ToString());
      }
      return cp::http::HttpResponse::Ok(RenderBody(cls, grp, *result));
    };
    CACHEPORTAL_RETURN_NOT_OK(app_->RegisterServlet(
        kPaths[cls], std::make_unique<cp::server::FunctionServlet>(servlet),
        cp::server::ServletConfig{}));
    cp::server::ServletConfig config;
    config.name = kPaths[cls];
    config.key_get_params = {"grp"};
    portal_->RegisterServlet(config);
  }
  portal_->AttachTo(app_.get());
  app_timing_ = std::make_unique<TimingHandler>(app_.get(), Layer::kApp,
                                                tracer_);
  proxy_timing_ = std::make_unique<TimingHandler>(
      portal_->CreateProxy(app_timing_.get()), Layer::kProxy, tracer_);

  // ---- The invalidator polls over a raw, un-sniffed connection. ----
  CACHEPORTAL_ASSIGN_OR_RETURN(
      std::unique_ptr<cp::server::Connection> raw_poll,
      raw_driver_->Connect(std::string("jdbc:cacheportal:") + kDbName));
  poll_connection_ = std::make_unique<TimingConnection>(
      std::move(raw_poll), Layer::kPoll, tracer_, &jdbc_.polls);
  portal_->mutable_invalidator()->SetPollingConnection(poll_connection_.get());

  // ---- Pages. ----
  pages_.resize(shape_.pages());
  for (int p = 0; p < shape_.pages(); ++p) {
    Page& page = pages_[p];
    page.cls = p % 3;
    page.grp = p / 3;
    CACHEPORTAL_ASSIGN_OR_RETURN(
        page.request,
        cp::http::HttpRequest::Get(std::string("http://site") +
                                   kPaths[page.cls] +
                                   "?grp=" + std::to_string(page.grp)));
    page.wire = page.request.Serialize();
    page.id = cp::sniffer::RequestLogger::NarrowToKeys(
        page.request, portal_->request_logger()->FindConfig(kPaths[page.cls]));
    page.key = page.id.CacheKey();
    page_of_key_[page.key] = p;
  }

  if (shape_.edges > 0) CACHEPORTAL_RETURN_NOT_OK(WireEdges());
  if (shape_.durability) {
    CACHEPORTAL_RETURN_NOT_OK(portal_->RecoverDurableState());
  }
  return Status::OK();
}

Status Site::WireEdges() {
  queue_ = std::make_unique<cp::core::ReliableDeliveryQueue>(&clock_);
  router_ = std::make_unique<cp::core::DeliveryRouter>(queue_.get());
  for (int i = 0; i < shape_.edges; ++i) {
    auto edge = std::make_unique<Edge>(shape_.edge_capacity, &clock_);
    Edge* e = edge.get();
    e->name = "edge-" + std::to_string(i);
    e->endpoint = std::make_unique<cp::core::RemoteCacheEndpoint>(
        &e->cache, proxy_timing_.get(), [this](const std::string& path) {
          return portal_->request_logger()->FindConfig(path);
        });
    // Applies each eject under the edge's lock, as a cache node does.
    auto apply = [e](std::string_view payload, uint64_t,
                     uint64_t) -> Status {
      CACHEPORTAL_ASSIGN_OR_RETURN(
          cp::http::HttpRequest eject,
          cp::http::HttpRequest::Parse(std::string(payload)));
      std::lock_guard<std::mutex> lock(e->mu);
      e->cache.HandleInvalidationRequest(eject);  // 404 if not cached.
      return Status::OK();
    };
    CACHEPORTAL_ASSIGN_OR_RETURN(e->server,
                                 cp::net::InvalidationServer::Start(apply));
    cp::net::WireClientOptions client_options;
    client_options.port = e->server->port();
    client_options.client_id = "portalbench-" + e->name;
    e->client = std::make_unique<cp::net::WireInvalidationClient>(
        &clock_, client_options);
    cp::net::WireInvalidationClient* client = e->client.get();
    e->sink = std::make_unique<cp::core::WireCacheSink>(
        [client](const std::string& bytes, const std::string& key) {
          return client->Deliver(key, bytes);
        },
        [client](const std::vector<std::pair<std::string, std::string>>&
                     entries) {
          std::vector<cp::net::WireInvalidationClient::BatchEntry> wire;
          wire.reserve(entries.size());
          for (const auto& [key, bytes] : entries) wire.push_back({key, bytes});
          cp::net::WireBatchResult sent = client->DeliverBatch(wire);
          return cp::invalidator::BatchSendResult{sent.confirmed, sent.status};
        },
        [client] { return client->HealthReport(); });
    router_->AddPeer(e->sink.get(), e->name, [e] {
      std::lock_guard<std::mutex> lock(e->mu);
      e->cache.Clear();
    });
    edges_.push_back(std::move(edge));
  }
  deliver_sink_ =
      std::make_unique<TimingSink>(router_.get(), router_.get(), tracer_);
  portal_->mutable_invalidator()->AddSink(deliver_sink_.get());
  return Status::OK();
}

Site::Edge* Site::EdgeFor(const std::string& key) {
  std::string peer = router_->PeerFor(key);
  for (auto& edge : edges_) {
    if (edge->name == peer) return edge.get();
  }
  return nullptr;
}

void Site::Issue(int page) {
  clock_.Advance(kRequestTick);
  if (edges_.empty()) {
    last_response_ = proxy_timing_->Handle(pages_[page].request);
    return;
  }
  origin_hits_before_ = portal_->page_cache()->stats().hits;
  ScopedSpan span(tracer_, Layer::kEdge);
  Edge* edge = EdgeFor(pages_[page].key);
  std::lock_guard<std::mutex> lock(edge->mu);
  last_wire_ = edge->endpoint->HandleWire(pages_[page].wire);
}

Outcome Site::Collect() {
  if (!edges_.empty()) {
    auto parsed = cp::http::HttpResponse::Parse(last_wire_);
    if (!parsed.ok()) return Outcome{};
    last_response_ = *std::move(parsed);
  }
  Outcome outcome;
  outcome.status = last_response_.status_code;
  outcome.hit = last_response_.headers.Get("X-Cache") == "HIT";
  outcome.cached =
      outcome.hit || (!edges_.empty() && portal_->page_cache()->stats().hits !=
                                             origin_hits_before_);
  outcome.body = std::move(last_response_.body);
  return outcome;
}

Status Site::Update(const std::string& sql) {
  clock_.Advance(kUpdateTick);
  ScopedSpan span(tracer_, Layer::kDbUpdate);
  return db_.ExecuteSql(sql).status();
}

Status Site::SyncPoint() {
  clock_.Advance(kCycleTick);
  {
    ScopedSpan span(tracer_, Layer::kCycle);
    CACHEPORTAL_RETURN_NOT_OK(portal_->RunCycle().status());
  }
  if (queue_ == nullptr) return Status::OK();
  uint64_t dead_before = queue_->stats().dead_lettered;
  {
    ScopedSpan span(tracer_, Layer::kDrain);
    queue_->DrainWith(&clock_);
  }
  if (queue_->pending() != 0 || queue_->stats().dead_lettered != dead_before) {
    return Status::Internal("ejects left undelivered after the drain");
  }
  return Status::OK();
}

Result<std::string> Site::FreshBody(int page) {
  const Page& p = pages_[page];
  CACHEPORTAL_ASSIGN_OR_RETURN(cp::db::QueryResult result,
                               db_.ExecuteSql(OracleSql(p.cls, p.grp)));
  return RenderBody(p.cls, p.grp, result);
}

int Site::PageOfKey(const std::string& key) const {
  auto it = page_of_key_.find(key);
  return it == page_of_key_.end() ? -1 : it->second;
}

std::vector<std::pair<int, std::string>> Site::CachedPages() {
  std::vector<std::pair<int, std::string>> out;
  auto collect = [&](cp::cache::PageCache* cache) {
    for (const std::string& key : cache->Keys()) {
      int page = PageOfKey(key);
      auto cached = page < 0 ? std::nullopt : cache->Lookup(pages_[page].id);
      out.emplace_back(cached.has_value() ? page : -1,
                       cached.has_value() ? cached->body : std::string());
    }
  };
  collect(portal_->page_cache());
  for (auto& edge : edges_) {
    std::lock_guard<std::mutex> lock(edge->mu);
    collect(&edge->cache);
  }
  return out;
}

cp::cache::PageCacheStats Site::CacheStats() {
  cp::cache::PageCacheStats total = portal_->page_cache()->stats();
  for (auto& edge : edges_) {
    std::lock_guard<std::mutex> lock(edge->mu);
    const cp::cache::PageCacheStats& s = edge->cache.stats();
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.misses += s.misses;
    total.stores += s.stores;
    total.rejected_stores += s.rejected_stores;
    total.invalidations += s.invalidations;
    total.evictions += s.evictions;
    total.expirations += s.expirations;
  }
  return total;
}

size_t Site::SmallRows() const { return db_.FindTable("SmallT")->size(); }
size_t Site::LargeRows() const { return db_.FindTable("LargeT")->size(); }

Site::NetCounters Site::Net() const {
  NetCounters net;
  for (const auto& edge : edges_) {
    if (edge->client != nullptr) {
      net.batch_frames += edge->client->batch_frames_sent();
      net.batched_entries += edge->client->batched_entries();
      net.acks += edge->client->acks_received();
    }
    net.duplicates += edge->server->stats().ejects_duplicate;
  }
  if (queue_ != nullptr) net.retries = queue_->stats().retries;
  return net;
}

}  // namespace portalbench
