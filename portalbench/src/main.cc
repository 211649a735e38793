// The CachePortal site benchmark.
//
//   portalbench --workload browse|churn|edge --seed N --seconds S
//               --trace 0|1 [--work-dir DIR]
//
// Runs the Section 5.2.1 site (see site.h) under one workload (see
// workload.h) as a closed loop with one client. A run is a sequence of
// identical passes, each on a freshly set-up site fed the same seeded
// inputs, until the next pass would overrun --seconds. Every HIT (and, at
// the edges, every response) is compared with the body computed directly
// against the database, and every cache is swept the same way after each
// pass.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced
// and untraced passes and reports per-layer metrics: span statistics from
// the traced passes, counts from the first pass (identical for a seed),
// the tracing overhead between the two kinds of pass, and the check that
// layer self-times add up to request and cycle wall time.
//
// Human-readable lines go to stdout first; the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "site.h"
#include "trace.h"
#include "workload.h"

namespace portalbench {
namespace {

// Largest gap allowed between client-measured wall time and the time the
// top-level spans cover, as a share of the wall time, in traced passes.
constexpr double kSumTolerancePct = 5.0;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// Operation failures, counted against operations attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> reasons;

  void Check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++reasons[what];
    }
  }
};

// Client-side wall times of one pass.
struct Samples {
  std::vector<double> request_us, hit_us, miss_us, cycle_us;
  double loop_s = 0;  // Time inside requests, updates and sync points.
  uint64_t requests = 0;
  uint64_t hits = 0;
  double setup_s = 0;
};

enum OpKind : uint8_t { kRequestOp, kUpdateOp, kCycleOp };

// Library counters whose change over a pass's measured loop is reported.
struct Counts {
  cp::cache::PageCacheStats cache;
  cp::invalidator::InvalidatorStats invalidator;
  JdbcCounters jdbc;
  StorageCounters storage;
  Site::NetCounters net;

  static Counts Take(Site* site) {
    Counts c;
    c.cache = site->CacheStats();
    c.invalidator = site->portal()->invalidator().stats();
    c.jdbc = site->jdbc();
    c.storage = site->storage();
    c.net = site->Net();
    return c;
  }

  // The change since `b` of every counter the report uses.
  Counts Minus(const Counts& b) const {
    Counts d = *this;
    d.cache.hits -= b.cache.hits;
    d.cache.misses -= b.cache.misses;
    d.cache.evictions -= b.cache.evictions;
    d.cache.invalidations -= b.cache.invalidations;
    d.invalidator.instance_checks -= b.invalidator.instance_checks;
    d.invalidator.pages_invalidated -= b.invalidator.pages_invalidated;
    d.invalidator.conservative_invalidations -=
        b.invalidator.conservative_invalidations;
    d.invalidator.polls_issued -= b.invalidator.polls_issued;
    d.invalidator.poll_hits -= b.invalidator.poll_hits;
    d.jdbc.db_queries -= b.jdbc.db_queries;
    d.jdbc.polls -= b.jdbc.polls;
    d.storage.syncs -= b.storage.syncs;
    d.storage.wal_bytes -= b.storage.wal_bytes;
    d.net.batch_frames -= b.net.batch_frames;
    d.net.batched_entries -= b.net.batched_entries;
    d.net.acks -= b.net.acks;
    d.net.duplicates -= b.net.duplicates;
    d.net.retries -= b.net.retries;
    return d;
  }
};

constexpr int kLayers = static_cast<int>(Layer::kCount);

// Per-layer results of the traced passes.
struct LayerData {
  std::vector<double> dur_us[kLayers];
  std::vector<double> self_us[kLayers];
  std::vector<double> poll_per_cycle_us, drain_per_cycle_us;
  double wall_us[3] = {0, 0, 0};  // By OpKind, client-measured.
  double root_us[3] = {0, 0, 0};  // By OpKind, top-level spans.
  std::vector<Span> first_pass_spans;
  // From the first pass only.
  Counts delta;
  uint64_t cycles = 0;
  uint64_t updates = 0;  // Update statements.
  uint64_t ejected = 0, false_ejects = 0;
  size_t request_log_entries = 0, qiurl_pairs = 0;
  double round_first_us = 0, round_last_us = 0;
  double cycle_self_first_us = 0, cycle_self_last_us = 0;
  double db_update_first_us = 0, db_update_last_us = 0;
};

std::vector<double>& Of(std::vector<double> (&by_layer)[kLayers],
                        Layer layer) {
  return by_layer[static_cast<int>(layer)];
}

class Runner {
 public:
  Runner(const Args& args, const Shape& shape) : args_(args), shape_(shape) {}

  // Runs passes until the next one would overrun --seconds.
  Status Run() {
    int64_t start = NowNs();
    int min_passes = args_.trace ? 2 : 1;
    for (int pass = 0;; ++pass) {
      CACHEPORTAL_RETURN_NOT_OK(RunPass(pass));
      double elapsed = (NowNs() - start) / 1e9;
      if (pass + 1 >= min_passes && elapsed * (pass + 2) / (pass + 1) >
                                        args_.seconds) {
        break;
      }
    }
    return Status::OK();
  }

  void Report();

 private:
  Status RunPass(int pass);
  void Serve(Site* site, int page, int round, Samples* samples);
  void Analyze(std::vector<Span> spans, bool first_pass);
  bool IsFresh(Site* site, int page, const std::string& body);

  // Runs `call` as one operation of round `round` and returns its wall
  // time in microseconds, counted into the loop time.
  template <typename Fn>
  double Timed(OpKind kind, int round, Samples* samples, Fn call) {
    tracer_.set_op(op_kind_.size());
    op_kind_.push_back(kind);
    op_round_.push_back(round);
    int64_t t0 = NowNs();
    call();
    double us = (NowNs() - t0) / 1e3;
    samples->loop_s += us / 1e6;
    if (tracer_.enabled()) layers_.wall_us[kind] += us;
    return us;
  }

  const Args& args_;
  const Shape& shape_;
  Inputs inputs_;
  int inputs_index_ = -1;
  Tracer tracer_;
  Tally tally_;
  std::vector<Samples> untraced_, traced_;
  LayerData layers_;
  // Per-pass bookkeeping, indexed by operation id (reset each pass).
  std::vector<uint8_t> op_kind_;
  std::vector<int> op_round_;
  std::vector<std::string> last_body_;  // Last body served, by page.
  // Fresh bodies by page, valid while fresh_gen_[page] == db_gen_; every
  // update statement bumps db_gen_.
  std::vector<std::string> fresh_;
  std::vector<uint64_t> fresh_gen_;
  uint64_t db_gen_ = 1;
  std::vector<double> round_us_;
  // Taken after the first pass, so the harness's own sample buffers, which
  // grow with the number of passes, do not show in it.
  double peak_rss_mb_ = 0;
};

bool Runner::IsFresh(Site* site, int page, const std::string& body) {
  if (page < 0) return false;
  if (fresh_gen_[page] != db_gen_) {
    Result<std::string> fresh = site->FreshBody(page);
    if (!fresh.ok()) return false;
    fresh_[page] = *std::move(fresh);
    fresh_gen_[page] = db_gen_;
  }
  return fresh_[page] == body;
}

void Runner::Serve(Site* site, int page, int round, Samples* samples) {
  double us = Timed(kRequestOp, round, samples, [&] { site->Issue(page); });
  Outcome outcome = site->Collect();
  // A response no cache served was rendered from the database just now.
  bool fresh = !outcome.cached || IsFresh(site, page, outcome.body);
  tally_.Check(outcome.status == 200 && fresh,
               outcome.status != 200 ? "non-200 response" : "stale hit");
  ++samples->requests;
  samples->request_us.push_back(us);
  if (outcome.hit) {
    ++samples->hits;
    samples->hit_us.push_back(us);
  } else {
    samples->miss_us.push_back(us);
  }
  last_body_[page] = std::move(outcome.body);
}

Status Runner::RunPass(int pass) {
  bool traced = args_.trace && pass % 2 == 0;
  std::vector<Samples>& passes = traced ? traced_ : untraced_;
  Samples* samples = &passes.emplace_back();
  // Each pass gets its own inputs, derived from the seed and the pass
  // number; a traced pass and the untraced pass after it share theirs, so
  // their difference is the tracing overhead.
  int index = args_.trace ? pass / 2 : pass;
  if (index != inputs_index_) {
    inputs_ = Generate(shape_, args_.seed, index);
    inputs_index_ = index;
  }
  op_kind_.clear();
  op_round_.clear();
  round_us_.clear();
  last_body_.assign(shape_.pages(), std::string());
  fresh_.assign(shape_.pages(), std::string());
  fresh_gen_.assign(shape_.pages(), 0);
  std::string work_dir = args_.work_dir + "/" + shape_.name + "-" +
                         std::to_string(::getpid());

  // ---- Set-up: load, wire, serve every page once, one sync point. ----
  tracer_.set_enabled(false);
  int64_t t0 = NowNs();
  CACHEPORTAL_ASSIGN_OR_RETURN(
      std::unique_ptr<Site> site,
      Site::Create(shape_, inputs_, work_dir, &tracer_));
  for (int page = 0; page < shape_.pages(); ++page) {
    site->Issue(page);
    Outcome outcome = site->Collect();
    tally_.Check(outcome.status == 200, "non-200 response");
    last_body_[page] = std::move(outcome.body);
  }
  tally_.Check(site->SyncPoint().ok(), "failed sync point");
  samples->setup_s = (NowNs() - t0) / 1e9;

  // ---- The measured loop. ----
  Counts before = Counts::Take(site.get());
  tracer_.set_enabled(traced);
  for (const Inputs::Round& round : inputs_.rounds) {
    int r = static_cast<int>(round_us_.size());
    double round_start_loop = samples->loop_s;
    for (int page : round.requests) Serve(site.get(), page, r, samples);
    for (const std::string& sql : round.updates) {
      Status updated;
      Timed(kUpdateOp, r, samples, [&] { updated = site->Update(sql); });
      ++db_gen_;
      tally_.Check(updated.ok(), "failed update");
    }

    std::vector<std::string> keys_before;
    if (traced && pass == 0) keys_before = site->origin_cache()->Keys();
    Status synced;
    samples->cycle_us.push_back(
        Timed(kCycleOp, r, samples, [&] { synced = site->SyncPoint(); }));
    tally_.Check(synced.ok(), "failed sync point or undelivered eject");

    if (traced && pass == 0) {
      // False ejects: pages a cycle removed whose last-served body still
      // equals the fresh one. A cycle evicts nothing, so every key that
      // disappeared was ejected.
      std::vector<std::string> after_list = site->origin_cache()->Keys();
      std::set<std::string> after(after_list.begin(), after_list.end());
      for (const std::string& key : keys_before) {
        if (after.count(key) != 0) continue;
        ++layers_.ejected;
        int page = site->PageOfKey(key);
        if (page >= 0 && IsFresh(site.get(), page, last_body_[page])) {
          ++layers_.false_ejects;
        }
      }
    }
    round_us_.push_back((samples->loop_s - round_start_loop) * 1e6);
  }
  tracer_.set_enabled(false);

  // ---- Checks after the last cycle. ----
  if (traced && pass == 0) {
    layers_.delta = Counts::Take(site.get()).Minus(before);
    layers_.cycles = inputs_.rounds.size();
    for (const Inputs::Round& round : inputs_.rounds) {
      layers_.updates += round.updates.size();
    }
    layers_.request_log_entries = site->portal()->request_log().size();
    layers_.qiurl_pairs = site->portal()->qiurl_map().size();
  }
  for (const auto& [page, body] : site->CachedPages()) {
    tally_.Check(IsFresh(site.get(), page, body), "stale page in cache sweep");
  }
  tally_.Check(site->SmallRows() == static_cast<size_t>(inputs_.small_rows) &&
                   site->LargeRows() == static_cast<size_t>(inputs_.large_rows),
               "table size changed");
  site.reset();
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);

  if (pass == 0) {
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      peak_rss_mb_ = usage.ru_maxrss / 1024.0;
    }
  }
  if (traced) Analyze(tracer_.TakeSpans(), pass == 0);
  std::fprintf(stderr, "pass %d (%s): set-up %.3f s, loop %.3f s, total %.3f s\n",
               pass, traced ? "traced" : "untraced", samples->setup_s,
               samples->loop_s, (NowNs() - t0) / 1e9);
  return Status::OK();
}

void Runner::Analyze(std::vector<Span> spans, bool first_pass) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::unordered_map<uint64_t, double> poll_by_op, drain_by_op;
  std::vector<double> cycle_self_by_round(round_us_.size(), 0.0);
  std::vector<std::vector<double>> update_by_round(round_us_.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double dur = (s.end_ns - s.start_ns) / 1e3;
    double self = dur - child_ns[i] / 1e3;
    Of(layers_.dur_us, s.layer).push_back(dur);
    Of(layers_.self_us, s.layer).push_back(self);
    if (s.parent < 0) layers_.root_us[op_kind_[s.op]] += dur;
    int round = op_round_[s.op];
    if (s.layer == Layer::kPoll) poll_by_op[s.op] += dur;
    if (s.layer == Layer::kDrain) drain_by_op[s.op] += dur;
    if (s.layer == Layer::kCycle) cycle_self_by_round[round] = self;
    if (s.layer == Layer::kDbUpdate) update_by_round[round].push_back(dur);
  }
  for (size_t op = 0; op < op_kind_.size(); ++op) {
    if (op_kind_[op] != kCycleOp) continue;
    layers_.poll_per_cycle_us.push_back(poll_by_op[op]);
    if (shape_.edges > 0) layers_.drain_per_cycle_us.push_back(drain_by_op[op]);
  }

  if (!first_pass) return;
  // Drift inside a pass: first tenth of the rounds against the last.
  size_t tenth = std::max<size_t>(1, round_us_.size() / 10);
  auto window = [&](const std::vector<double>& by_round, bool last) {
    auto begin = last ? by_round.end() - tenth : by_round.begin();
    return Quantile(std::vector<double>(begin, begin + tenth), 0.5);
  };
  // An update statement scans its table, so its time tracks table size.
  auto updates_in = [&](bool last) {
    std::vector<double> all;
    size_t from = last ? update_by_round.size() - tenth : 0;
    for (size_t r = from; r < from + tenth; ++r) {
      all.insert(all.end(), update_by_round[r].begin(),
                 update_by_round[r].end());
    }
    return Quantile(all, 0.5);
  };
  layers_.round_first_us = window(round_us_, false);
  layers_.round_last_us = window(round_us_, true);
  layers_.cycle_self_first_us = window(cycle_self_by_round, false);
  layers_.cycle_self_last_us = window(cycle_self_by_round, true);
  layers_.db_update_first_us = updates_in(false);
  layers_.db_update_last_us = updates_in(true);
  layers_.first_pass_spans = std::move(spans);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Sample count or base, for the human-readable lines.
  bool in_json = true;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  const char* separator = "\"";
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += separator + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    separator = ", \"";
  }
  return out + "}}";
}

void Print(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string N(size_t n) { return "n=" + std::to_string(n); }

std::vector<Metric> EndToEnd(const std::vector<Samples>& passes,
                             const Tally& tally, double peak_rss_mb) {
  auto all = [&](std::vector<double> Samples::*field) {
    std::vector<double> out;
    for (const Samples& p : passes) {
      out.insert(out.end(), (p.*field).begin(), (p.*field).end());
    }
    return out;
  };
  uint64_t requests = 0, hits = 0;
  double loop_s = 0;
  std::vector<double> setup_s;
  for (const Samples& p : passes) {
    requests += p.requests;
    hits += p.hits;
    loop_s += p.loop_s;
    setup_s.push_back(p.setup_s);
  }
  std::vector<double> request_us = all(&Samples::request_us);
  std::vector<double> hit_us = all(&Samples::hit_us);
  std::vector<double> miss_us = all(&Samples::miss_us);
  std::vector<double> cycle_us = all(&Samples::cycle_us);
  return {
      {"setup_s", Quantile(setup_s, 0.5), "s",
       "median over passes, " + N(setup_s.size())},
      {"requests_per_s", Ratio(requests, loop_s), "1/s",
       std::to_string(requests) + " requests"},
      {"request_p99_us", Quantile(request_us, 0.99), "us",
       N(request_us.size())},
      {"hit_p50_us", Quantile(hit_us, 0.5), "us", N(hit_us.size())},
      {"miss_p50_us", Quantile(miss_us, 0.5), "us", N(miss_us.size())},
      {"miss_p99_us", Quantile(miss_us, 0.99), "us", N(miss_us.size())},
      {"cycle_p50_us", Quantile(cycle_us, 0.5), "us", N(cycle_us.size())},
      // The cycle tail is printed, not in the JSON: on churn it follows the
      // fsync tail of the disk, whose run-to-run spread exceeds any usable
      // bound.
      {"cycle_p95_us", Quantile(cycle_us, 0.95), "us", N(cycle_us.size()),
       false},
      {"cycle_p99_us", Quantile(cycle_us, 0.99), "us", N(cycle_us.size()),
       false},
      {"hit_ratio", Ratio(hits, requests), "ratio",
       "base: " + std::to_string(requests) + " requests"},
      // 0 on a correct run; the JSON carries it as attempted and failed.
      {"error_ratio", Ratio(tally.failed, tally.attempted), "ratio",
       "base: " + std::to_string(tally.attempted) + " operations", false},
      {"peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss after the first pass"},
  };
}

void Runner::Report() {
  const LayerData& L = layers_;
  const Counts& d = L.delta;
  auto dur = [&](Layer layer) { return Of(layers_.dur_us, layer); };
  auto self = [&](Layer layer) { return Of(layers_.self_us, layer); };
  double request_gap =
      100 * Ratio(L.wall_us[kRequestOp] - L.root_us[kRequestOp],
                  L.wall_us[kRequestOp]);
  double cycle_gap = 100 * Ratio(L.wall_us[kCycleOp] - L.root_us[kCycleOp],
                                 L.wall_us[kCycleOp]);
  bool sums_ok = !args_.trace || (std::abs(request_gap) <= kSumTolerancePct &&
                                  std::abs(cycle_gap) <= kSumTolerancePct);
  bool correct = tally_.failed == 0 && sums_ok;

  std::vector<Metric> e2e = EndToEnd(untraced_, tally_, peak_rss_mb_);
  std::printf("workload %s seed %llu: %d untraced + %d traced passes of %zu "
              "rounds\n",
              shape_.name, static_cast<unsigned long long>(args_.seed),
              static_cast<int>(untraced_.size()),
              static_cast<int>(traced_.size()), inputs_.rounds.size());
  Print("end-to-end (untraced passes)", e2e);
  for (const auto& [why, n] : tally_.reasons) {
    std::printf("  FAILED %llu x %s\n", static_cast<unsigned long long>(n),
                why.c_str());
  }

  if (!args_.trace) {
    std::printf("%s\n", Json(e2e, correct, tally_.attempted, tally_.failed)
                            .c_str());
    return;
  }

  auto loop_per_pass = [](const std::vector<Samples>& passes) {
    double total = 0;
    for (const Samples& p : passes) total += p.loop_s;
    return Ratio(total, passes.size());
  };
  double traced_pass_s = loop_per_pass(traced_);
  double untraced_pass_s = loop_per_pass(untraced_);
  std::string per_cycle =
      "per cycle, base: " + std::to_string(L.cycles) + " cycles";
  std::vector<Metric> layers = {
      {"cache.hits", double(d.cache.hits), "count", "first pass"},
      {"cache.misses", double(d.cache.misses), "count", "first pass"},
      {"cache.evictions", double(d.cache.evictions), "count", "first pass"},
      {"cache.ejects", double(d.cache.invalidations), "count", "first pass"},
      {"core.proxy_self_p50_us", Quantile(self(Layer::kProxy), 0.5), "us",
       N(self(Layer::kProxy).size())},
      {"core.edge_self_p50_us", Quantile(self(Layer::kEdge), 0.5), "us",
       N(self(Layer::kEdge).size())},
      {"server.app_p50_us", Quantile(dur(Layer::kApp), 0.5), "us",
       N(dur(Layer::kApp).size())},
      {"server.app_p99_us", Quantile(dur(Layer::kApp), 0.99), "us",
       N(dur(Layer::kApp).size())},
      {"server.servlet_self_p50_us", Quantile(self(Layer::kServlet), 0.5),
       "us", N(self(Layer::kServlet).size())},
      {"sniffer.jdbc_self_p50_us", Quantile(self(Layer::kJdbc), 0.5), "us",
       N(self(Layer::kJdbc).size())},
      {"db.query_p50_us", Quantile(dur(Layer::kDbQuery), 0.5), "us",
       N(dur(Layer::kDbQuery).size())},
      {"db.query_p99_us", Quantile(dur(Layer::kDbQuery), 0.99), "us",
       N(dur(Layer::kDbQuery).size())},
      {"db.queries", double(d.jdbc.db_queries), "count", "first pass"},
      {"db.update_p50_us", Quantile(dur(Layer::kDbUpdate), 0.5), "us",
       N(dur(Layer::kDbUpdate).size())},
      {"db.updates", double(L.updates), "count", "first pass"},
      {"core.cycle_self_p50_us", Quantile(self(Layer::kCycle), 0.5), "us",
       N(self(Layer::kCycle).size())},
      {"sniffer.request_log_entries", double(L.request_log_entries), "count",
       "end of first pass"},
      {"sniffer.qiurl_pairs", double(L.qiurl_pairs), "count",
       "end of first pass"},
      {"invalidator.poll_per_cycle_p50_us",
       Quantile(L.poll_per_cycle_us, 0.5), "us",
       N(L.poll_per_cycle_us.size())},
      {"invalidator.polls", double(d.invalidator.polls_issued), "count",
       "first pass"},
      {"invalidator.poll_round_trips", double(d.jdbc.polls), "count",
       "first pass, statements on the polling connection"},
      {"invalidator.poll_hit_ratio",
       Ratio(d.invalidator.poll_hits, d.invalidator.polls_issued), "ratio",
       "base: " + std::to_string(d.invalidator.polls_issued) + " polls"},
      {"invalidator.checks", double(d.invalidator.instance_checks), "count",
       "first pass"},
      {"invalidator.pages_invalidated",
       double(d.invalidator.pages_invalidated), "count", "first pass"},
      {"invalidator.conservative",
       double(d.invalidator.conservative_invalidations), "count",
       "first pass"},
      {"invalidator.false_eject_ratio", Ratio(L.false_ejects, L.ejected),
       "ratio",
       "base: " + std::to_string(L.ejected) + " origin-cache ejects"},
      {"storage.syncs", double(d.storage.syncs), "count", "first pass"},
      {"storage.sync_p50_us", Quantile(dur(Layer::kStorageSync), 0.5), "us",
       N(dur(Layer::kStorageSync).size())},
      {"storage.sync_p99_us", Quantile(dur(Layer::kStorageSync), 0.99), "us",
       N(dur(Layer::kStorageSync).size())},
      {"storage.wal_bytes_per_cycle", Ratio(d.storage.wal_bytes, L.cycles),
       "B", per_cycle},
      {"core.deliver_p50_us", Quantile(dur(Layer::kDeliver), 0.5), "us",
       N(dur(Layer::kDeliver).size())},
      {"net.drain_per_cycle_p50_us", Quantile(L.drain_per_cycle_us, 0.5),
       "us", N(L.drain_per_cycle_us.size())},
      {"net.batch_frames", double(d.net.batch_frames), "count", "first pass"},
      {"net.acks", double(d.net.acks), "count", "first pass"},
      {"net.ejects_per_frame",
       Ratio(d.net.batched_entries, d.net.batch_frames), "ratio",
       "base: " + std::to_string(d.net.batch_frames) + " batch frames"},
      {"net.duplicates", double(d.net.duplicates), "count", "first pass"},
      {"core.delivery_retries", double(d.net.retries), "count", "first pass"},
      {"trace.overhead_pct",
       100 * (Ratio(traced_pass_s, untraced_pass_s) - 1), "%",
       "loop time per traced vs untraced pass"},
      {"trace.request_gap_pct", request_gap, "%",
       "request wall time not covered by spans"},
      {"trace.cycle_gap_pct", cycle_gap, "%",
       "cycle wall time not covered by spans"},
      {"drift.round_first_tenth_us", L.round_first_us, "us", "first pass"},
      {"drift.round_last_tenth_us", L.round_last_us, "us", "first pass"},
      {"drift.cycle_self_first_tenth_us", L.cycle_self_first_us, "us",
       "first pass"},
      {"drift.cycle_self_last_tenth_us", L.cycle_self_last_us, "us",
       "first pass"},
      {"drift.db_update_first_tenth_us", L.db_update_first_us, "us",
       "first pass"},
      {"drift.db_update_last_tenth_us", L.db_update_last_us, "us",
       "first pass"},
  };
  Print("per-layer (traced passes)", layers);

  // The self-time ledger: where the loop's wall time went, by layer.
  double wall = L.wall_us[kRequestOp] + L.wall_us[kUpdateOp] +
                L.wall_us[kCycleOp];
  std::printf("self-time ledger (traced passes, share of %.0f us loop "
              "wall time)\n",
              wall);
  double covered = 0;
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    double total = 0;
    for (double v : layers_.self_us[i]) total += v;
    covered += total;
    std::printf("  %-20s %14.0f us %6.2f%%\n",
                LayerName(static_cast<Layer>(i)), total, 100 * Ratio(total, wall));
  }
  std::printf("  %-20s %14.0f us %6.2f%% (tolerance %.1f%% on requests and "
              "cycles)\n",
              "not covered", wall - covered, 100 * Ratio(wall - covered, wall),
              kSumTolerancePct);
  std::string trace_path = args_.work_dir + "/trace-" + shape_.name +
                           "-seed" + std::to_string(args_.seed) + ".tsv";
  Status written = WriteSpansTsv(L.first_pass_spans, trace_path);
  std::printf("first-pass spans: %s (%s)\n", trace_path.c_str(),
              written.ok() ? "written" : written.ToString().c_str());
  std::printf("%s\n", Json(layers, correct, tally_.attempted, tally_.failed)
                          .c_str());
}

}  // namespace
}  // namespace portalbench

int main(int argc, char** argv) {
  // Every thread (the client and the edges' invalidation servers) shares
  // the CPU the run starts on: a loopback hand-off then costs a context
  // switch instead of a cross-CPU wake-up, whose latency on a shared host
  // depends on other tenants.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  if (int cpu = sched_getcpu(); cpu >= 0) {
    CPU_SET(cpu, &one_cpu);
    sched_setaffinity(0, sizeof(one_cpu), &one_cpu);
  }
  portalbench::Args args;
  if (!portalbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: portalbench --workload browse|churn|edge --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const portalbench::Shape* shape = portalbench::FindShape(args.workload);
  if (shape == nullptr) {
    std::fprintf(stderr, "portalbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  portalbench::Runner runner(args, *shape);
  cacheportal::Status status = runner.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "portalbench: %s\n", status.ToString().c_str());
    return 1;
  }
  runner.Report();
  return 0;
}
