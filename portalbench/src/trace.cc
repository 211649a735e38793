#include "trace.h"

#include <cstdio>
#include <filesystem>

namespace portalbench {

namespace cp = cacheportal;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEdge:
      return "core.edge";
    case Layer::kProxy:
      return "core.proxy";
    case Layer::kApp:
      return "server.app";
    case Layer::kServlet:
      return "server.servlet";
    case Layer::kJdbc:
      return "sniffer.jdbc";
    case Layer::kDbQuery:
      return "db.query";
    case Layer::kDbUpdate:
      return "db.update";
    case Layer::kCycle:
      return "core.cycle";
    case Layer::kPoll:
      return "invalidator.poll";
    case Layer::kStorageAppend:
      return "storage.append";
    case Layer::kStorageSync:
      return "storage.sync";
    case Layer::kStorageFs:
      return "storage.fs";
    case Layer::kDeliver:
      return "core.deliver";
    case Layer::kDrain:
      return "net.drain";
    case Layer::kCount:
      break;
  }
  return "?";
}

int32_t Tracer::Begin(Layer layer) {
  if (!enabled_) return -1;
  Span span;
  span.layer = layer;
  span.op = op_;
  span.parent = open_.empty() ? -1 : open_.back();
  auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::End(int32_t span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  open_.pop_back();
}

Status WriteSpansTsv(const std::vector<Span>& spans, const std::string& path) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(out, "index\tlayer\top\tparent\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%zu\t%s\t%llu\t%d\t%lld\t%lld\n", i,
                 LayerName(s.layer), static_cast<unsigned long long>(s.op),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::Internal("cannot close " + path);
}

Result<cp::db::QueryResult> TimingConnection::ExecuteQuery(
    const std::string& sql) {
  if (statements_ != nullptr) ++*statements_;
  ScopedSpan span(tracer_, layer_);
  return inner_->ExecuteQuery(sql);
}

Result<int64_t> TimingConnection::ExecuteUpdate(const std::string& sql) {
  if (statements_ != nullptr) ++*statements_;
  ScopedSpan span(tracer_, layer_);
  return inner_->ExecuteUpdate(sql);
}

Result<std::unique_ptr<cp::server::Connection>> TimingDriver::Connect(
    const std::string& url) {
  CACHEPORTAL_ASSIGN_OR_RETURN(std::unique_ptr<cp::server::Connection> inner,
                               inner_->Connect(url));
  return std::unique_ptr<cp::server::Connection>(std::make_unique<
                                                 TimingConnection>(
      std::move(inner), layer_, tracer_, statements_));
}

namespace {

class TimingWritableFile : public cp::WritableFile {
 public:
  TimingWritableFile(std::unique_ptr<cp::WritableFile> inner, bool wal,
                     Tracer* tracer, StorageCounters* counters)
      : inner_(std::move(inner)),
        wal_(wal),
        tracer_(tracer),
        counters_(counters) {}

  Status Append(std::string_view data) override {
    if (wal_) counters_->wal_bytes += data.size();
    ScopedSpan span(tracer_, Layer::kStorageAppend);
    return inner_->Append(data);
  }
  Status Sync() override {
    ++counters_->syncs;
    ScopedSpan span(tracer_, Layer::kStorageSync);
    return inner_->Sync();
  }
  Status Close() override {
    ScopedSpan span(tracer_, Layer::kStorageFs);
    return inner_->Close();
  }

 private:
  std::unique_ptr<cp::WritableFile> inner_;
  bool wal_;
  Tracer* tracer_;
  StorageCounters* counters_;
};

}  // namespace

Result<std::unique_ptr<cp::WritableFile>> TimingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  CACHEPORTAL_ASSIGN_OR_RETURN(std::unique_ptr<cp::WritableFile> inner,
                               this->inner()->NewWritableFile(path, truncate));
  // WAL segments are named wal-%06d.log by the storage layer.
  bool wal = std::filesystem::path(path).filename().string().rfind("wal-",
                                                                   0) == 0;
  return std::unique_ptr<cp::WritableFile>(std::make_unique<
                                           TimingWritableFile>(
      std::move(inner), wal, tracer_, counters_));
}

Result<std::string> TimingEnv::ReadFile(const std::string& path) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->ReadFile(path);
}

Status TimingEnv::RenameFile(const std::string& from, const std::string& to) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->RenameFile(from, to);
}

Status TimingEnv::DeleteFile(const std::string& path) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->DeleteFile(path);
}

Status TimingEnv::CreateDir(const std::string& path) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->CreateDir(path);
}

Status TimingEnv::SyncDir(const std::string& dir) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->SyncDir(dir);
}

Result<std::vector<std::string>> TimingEnv::ListDir(const std::string& dir) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->ListDir(dir);
}

bool TimingEnv::FileExists(const std::string& path) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->FileExists(path);
}

Status TimingEnv::TruncateFile(const std::string& path, uint64_t size) {
  ScopedSpan span(tracer_, Layer::kStorageFs);
  return inner()->TruncateFile(path, size);
}

}  // namespace portalbench
