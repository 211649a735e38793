// Outside-in tracing for the site benchmark: spans recorded around the
// calls the benchmark makes into each library module, plus the thin
// wrappers (request handler, JDBC driver/connection, filesystem Env,
// invalidation sink) that put a span boundary at each module's public
// interface without touching the library.
//
// Spans are recorded on the benchmark's client thread only. They are kept
// in memory and written out when the run ends.
#ifndef PORTALBENCH_TRACE_H_
#define PORTALBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "invalidator/sinks.h"
#include "server/handler.h"
#include "server/jdbc.h"

namespace portalbench {

using cacheportal::Result;
using cacheportal::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times. Names are "<module>.<what>".
enum class Layer : uint8_t {
  kEdge,           // core: RemoteCacheEndpoint::HandleWire (+ routing)
  kProxy,          // core: CachingProxy::Handle
  kApp,            // server: ApplicationServer::Handle
  kServlet,        // server: the page servlet
  kJdbc,           // sniffer: query-logging connection
  kDbQuery,        // db: MemoryDbDriver connection (servlet queries)
  kDbUpdate,       // db: Database::ExecuteSql of an update statement
  kCycle,          // core: CachePortal::RunCycle
  kPoll,           // invalidator: polling connection
  kStorageAppend,  // storage: WritableFile::Append
  kStorageSync,    // storage: WritableFile::Sync
  kStorageFs,      // storage: other Env calls (rename, dirsync, ...)
  kDeliver,        // core: DeliveryRouter::SendInvalidation
  kDrain,          // net: ReliableDeliveryQueue drain over the wire
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;      // Request or sync-point id the span belongs to.
  int32_t parent = -1;  // Index of the enclosing span, -1 for a root.
  Layer layer = Layer::kCount;
};

/// Records nested spans while enabled; a no-op otherwise.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Sets the request or sync-point id later spans are tagged with.
  void set_op(uint64_t op) { op_ = op; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int32_t Begin(Layer layer);
  void End(int32_t span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Hands over the recorded spans and starts empty.
  std::vector<Span> TakeSpans() {
    std::vector<Span> out;
    out.swap(spans_);
    return out;
  }

 private:
  bool enabled_ = false;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Writes `spans` as tab-separated lines, one per span.
Status WriteSpansTsv(const std::vector<Span>& spans, const std::string& path);

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer), span_(tracer->Begin(layer)) {}
  ~ScopedSpan() { tracer_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t span_;
};

/// A RequestHandler that spans the handler it forwards to.
class TimingHandler : public cacheportal::server::RequestHandler {
 public:
  TimingHandler(cacheportal::server::RequestHandler* inner, Layer layer,
                Tracer* tracer)
      : inner_(inner), layer_(layer), tracer_(tracer) {}

  cacheportal::http::HttpResponse Handle(
      const cacheportal::http::HttpRequest& request) override {
    ScopedSpan span(tracer_, layer_);
    return inner_->Handle(request);
  }

 private:
  cacheportal::server::RequestHandler* inner_;
  Layer layer_;
  Tracer* tracer_;
};

/// A Connection that spans every statement and, when `statements` is not
/// null, counts them there.
class TimingConnection : public cacheportal::server::Connection {
 public:
  TimingConnection(std::unique_ptr<cacheportal::server::Connection> inner,
                   Layer layer, Tracer* tracer, uint64_t* statements)
      : inner_(std::move(inner)),
        layer_(layer),
        tracer_(tracer),
        statements_(statements) {}

  Result<cacheportal::db::QueryResult> ExecuteQuery(
      const std::string& sql) override;
  Result<int64_t> ExecuteUpdate(const std::string& sql) override;

 private:
  std::unique_ptr<cacheportal::server::Connection> inner_;
  Layer layer_;
  Tracer* tracer_;
  uint64_t* statements_;
};

/// A Driver whose connections are TimingConnections over `inner`'s.
/// `inner` is not owned.
class TimingDriver : public cacheportal::server::Driver {
 public:
  TimingDriver(cacheportal::server::Driver* inner, Layer layer,
               Tracer* tracer, uint64_t* statements)
      : inner_(inner),
        layer_(layer),
        tracer_(tracer),
        statements_(statements) {}

  bool AcceptsUrl(const std::string& url) const override {
    return inner_->AcceptsUrl(url);
  }
  Result<std::unique_ptr<cacheportal::server::Connection>> Connect(
      const std::string& url) override;

 private:
  cacheportal::server::Driver* inner_;
  Layer layer_;
  Tracer* tracer_;
  uint64_t* statements_;
};

/// Counters of the storage layer, taken at the Env boundary.
struct StorageCounters {
  uint64_t syncs = 0;
  uint64_t wal_bytes = 0;  // Bytes appended to WAL segment files.
};

/// An Env over the real filesystem that spans every call.
class TimingEnv : public cacheportal::Env {
 public:
  TimingEnv(Tracer* tracer, StorageCounters* counters)
      : tracer_(tracer), counters_(counters) {}

  Result<std::unique_ptr<cacheportal::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;

 private:
  cacheportal::Env* inner() const { return cacheportal::PosixEnv::Default(); }

  Tracer* tracer_;
  StorageCounters* counters_;
};

/// An invalidation sink that spans each send into `inner` (the delivery
/// router). Forwards the router's backlog and health so the invalidator
/// observes delivery exactly as it would without the wrapper.
class TimingSink : public cacheportal::invalidator::InvalidationSink,
                   public cacheportal::invalidator::ObservableSink {
 public:
  TimingSink(cacheportal::invalidator::InvalidationSink* inner,
             cacheportal::invalidator::ObservableSink* observable,
             Tracer* tracer)
      : inner_(inner), observable_(observable), tracer_(tracer) {}

  Status SendInvalidation(const cacheportal::http::HttpRequest& eject_message,
                          const std::string& cache_key) override {
    ScopedSpan span(tracer_, Layer::kDeliver);
    return inner_->SendInvalidation(eject_message, cache_key);
  }
  size_t PendingBacklog() const override {
    return observable_->PendingBacklog();
  }
  std::string HealthReport() const override {
    return observable_->HealthReport();
  }

 private:
  cacheportal::invalidator::InvalidationSink* inner_;
  cacheportal::invalidator::ObservableSink* observable_;
  Tracer* tracer_;
};

}  // namespace portalbench

#endif  // PORTALBENCH_TRACE_H_
