#include "invalidator/invalidator.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/record_codec.h"
#include "common/strings.h"
#include "invalidator/stages.h"
#include "sql/template.h"

namespace cacheportal::invalidator {

Invalidator::Invalidator(db::Database* database, sniffer::QiUrlMap* map,
                         const Clock* clock, InvalidatorOptions options)
    : database_(database),
      map_(map),
      clock_(clock),
      options_(options),
      plane_(database, options.metadata_shards),
      info_(database),
      scheduler_(options.max_polls_per_cycle) {
  policy_.SetThresholds(options_.thresholds);
  if (options_.polling_cache_capacity > 0) {
    polling_cache_ = std::make_unique<PollingDataCache>(
        database_, options_.polling_cache_capacity);
  }
  if (options_.worker_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  if (options_.overload.enabled) {
    overload_ = std::make_unique<OverloadController>(clock_,
                                                     options_.overload);
  }
  // Attach at the database's current position: updates that committed
  // before CachePortal was deployed predate every cached page.
  last_update_seq_ = database_->update_log().LastSeq();
}

void Invalidator::AddSink(InvalidationSink* sink) { sinks_.push_back(sink); }

Status Invalidator::RegisterQueryType(const std::string& name,
                                      const std::string& parameterized_sql) {
  return plane_.RegisterType(name, parameterized_sql);
}

Status Invalidator::RegisterInstance(const std::string& sql) {
  CACHEPORTAL_ASSIGN_OR_RETURN(const QueryInstance* instance,
                               plane_.RegisterInstance(sql));
  (void)instance;
  return Status::OK();
}

Status Invalidator::CreateJoinIndex(const std::string& table,
                                    const std::string& column) {
  return info_.CreateJoinIndex(table, column);
}

bool Invalidator::IsQuerySqlCacheable(const std::string& sql_text) const {
  const QueryInstance* instance = plane_.FindInstance(sql_text);
  uint64_t type_id = 0;
  if (instance != nullptr) {
    type_id = instance->type_id;
  } else {
    // The instance may have been retired with its pages; its query type
    // (and the type's policy verdict) outlives it.
    Result<sql::QueryTemplate> tmpl = sql::ExtractTemplateFromSql(sql_text);
    if (!tmpl.ok()) return true;  // Unknown queries default to yes.
    type_id = tmpl->type_id;
  }
  const QueryType* type = plane_.FindType(type_id);
  if (type == nullptr) return true;
  return type->cacheable;
}

MatcherStats Invalidator::matcher_stats() const {
  MatcherStats merged = cycle_matcher_stats_;
  MatcherStats compile = plane_.CompileStats();
  merged.types_compiled = compile.types_compiled;
  merged.types_handled = compile.types_handled;
  merged.fallback_reasons = compile.fallback_reasons;
  return merged;
}

std::string Invalidator::StatsReport() const {
  std::string out = StrCat(
      "invalidator: cycles=", stats_.cycles,
      " updates=", stats_.updates_processed,
      " checks=", stats_.instance_checks,
      " affected=", stats_.affected_immediately,
      " unaffected=", stats_.unaffected, " polls=", stats_.polls_issued,
      " idx-answered=", stats_.polls_answered_by_index,
      " poll-hits=", stats_.poll_hits,
      " conservative=", stats_.conservative_invalidations,
      " emergency-flushes=", stats_.emergency_flushes,
      " pages-invalidated=", stats_.pages_invalidated,
      " messages-sent=", stats_.messages_sent,
      " send-failures=", stats_.send_failures, "\n");
  if (overload_ != nullptr) {
    out += StrCat("  ", overload_->Report(), "\n");
  }
  // Delivery health was invisible here while the queue quietly retried;
  // every observable sink now reports in line.
  for (size_t i = 0; i < sinks_.size(); ++i) {
    const auto* observable = dynamic_cast<const ObservableSink*>(sinks_[i]);
    if (observable == nullptr) continue;
    out += StrCat("  sink ", i, " ", observable->HealthReport(), "\n");
  }
  // Strategy census (DESIGN.md §16). Snapshotted BEFORE the ForEachType
  // walk below: TierAssignments locks shards one at a time, while the
  // walk holds every shard lock — calling TierOf from inside it would
  // self-deadlock. The census derives from the assigned tiers (persisted
  // ones included), never from live matcher counters, so a report taken
  // right after a v5 restore is byte-identical to the dead process's.
  std::map<uint64_t, TierDecision> tiers = plane_.TierAssignments();
  {
    size_t census[4] = {0, 0, 0, 0};
    std::map<std::string, size_t> demotions;
    for (const auto& [tid, decision] : tiers) {
      (void)tid;
      census[static_cast<size_t>(decision.tier)]++;
      if (!decision.reason.empty()) ++demotions[decision.reason];
    }
    out += StrCat("  strategy: exact=", census[0],
                  " compiled-batch=", census[1], " interpret=", census[2],
                  " poll=", census[3], "\n");
    if (!demotions.empty()) {
      out += "  strategy-demotions:";
      for (const auto& [reason, count] : demotions) {
        out += StrCat(" '", reason, "'=", count);
      }
      out += "\n";
    }
  }
  // The plane's merged iteration is ascending type_id across all shards,
  // so this block is byte-identical at any shard count. Types whose
  // persisted statistics are still staged (restore ran, the next cycle
  // hasn't) report the staged values, so a report taken right after
  // recovery matches the one the dead process would have produced.
  plane_.ForEachType([&](const QueryType& type) {
    const QueryTypeStats* ts = &type.stats;
    bool cacheable = type.cacheable;
    auto it = pending_type_overrides_.find(type.type_id);
    if (it != pending_type_overrides_.end()) {
      ts = &it->second.stats;
      cacheable = it->second.cacheable;
    }
    auto tier_it = tiers.find(type.type_id);
    out += StrCat("  type '", type.name, "'",
                  cacheable ? "" : " [non-cacheable]",
                  ": instances=", ts->instances_seen, " checks=", ts->checks,
                  " affected=", ts->affected, " polls=", ts->polling_queries,
                  " inval-ratio=", ts->InvalidationRatio(),
                  " avg-time-us=", ts->AvgInvalidationTime(),
                  " max-time-us=", ts->max_invalidation_time, " tier=",
                  tier_it != tiers.end() ? StrategyTierName(tier_it->second.tier)
                                         : "unassigned",
                  "\n");
  });
  if (storage_reporter_ != nullptr) {
    out += StrCat("  ", storage_reporter_(), "\n");
  }
  return out;
}

namespace {

/// Snapshot and durable-delta layout (common/record_codec.h; DESIGN.md
/// §18 lists every persisted blob). Positional, in this order:
///   magic              "CPIS" snapshot / "CPID" delta
///   update_seq         u64
///   map cursors        count (>= 1) x u64, shard order
///   type_counter       u64                              (snapshot only)
///   lifetime counters  14 x u64, kLifetimeCounters order
///   types              count x (type_id u64, cacheable flag,
///                      6 x u64 statistics; snapshot only: tier u64,
///                      name bytes, template bytes, reason bytes)
///   instances          count x SQL bytes                (snapshot only)
///   sinks              count x (index u64, state bytes), ascending index
/// The snapshot carries every type and checkpointable sink; the delta
/// only those that changed since the previous delta. The tier is the
/// StrategyTier value (0 exact .. 3 poll), or kTierUnassigned for a type
/// declared offline that has no instance yet.
constexpr char kSnapshotMagic[] = "CPIS";
constexpr char kDeltaMagic[] = "CPID";

constexpr uint64_t kTierUnassigned = 4;

struct LifetimeCounter {
  const char* name;
  uint64_t InvalidatorStats::*field;
};
constexpr LifetimeCounter kLifetimeCounters[] = {
    {"cycles", &InvalidatorStats::cycles},
    {"updates_processed", &InvalidatorStats::updates_processed},
    {"instances_registered", &InvalidatorStats::instances_registered},
    {"instance_checks", &InvalidatorStats::instance_checks},
    {"affected_immediately", &InvalidatorStats::affected_immediately},
    {"unaffected", &InvalidatorStats::unaffected},
    {"polls_issued", &InvalidatorStats::polls_issued},
    {"polls_answered_by_index", &InvalidatorStats::polls_answered_by_index},
    {"poll_hits", &InvalidatorStats::poll_hits},
    {"conservative_invalidations",
     &InvalidatorStats::conservative_invalidations},
    {"emergency_flushes", &InvalidatorStats::emergency_flushes},
    {"pages_invalidated", &InvalidatorStats::pages_invalidated},
    {"messages_sent", &InvalidatorStats::messages_sent},
    {"send_failures", &InvalidatorStats::send_failures},
};

/// Bytes a type record takes at least: 8 u64 fields, plus in a snapshot
/// the tier and three length prefixes.
constexpr size_t kMinTypeRecord = 8 * 8;
constexpr size_t kMinSnapshotTypeRecord = kMinTypeRecord + 8 + 3 * 4;

void PutTypeRecord(std::string* out, const QueryType& type) {
  const QueryTypeStats& ts = type.stats;
  for (uint64_t value :
       {type.type_id, uint64_t{type.cacheable}, ts.instances_seen, ts.checks,
        ts.affected, ts.polling_queries,
        static_cast<uint64_t>(ts.total_invalidation_time),
        static_cast<uint64_t>(ts.max_invalidation_time)}) {
    PutFixed64(out, value);
  }
}

}  // namespace

/// A decoded snapshot or delta, staged: nothing is applied until the
/// whole blob has decoded. Views borrow from the blob.
struct Invalidator::DecodedState {
  struct Type {
    uint64_t type_id = 0;
    TypeOverride override_;
    uint64_t tier = kTierUnassigned;
    std::string_view name;
    std::string_view tmpl;
    std::string_view reason;
  };
  uint64_t update_seq = 0;
  std::vector<uint64_t> cursors;
  uint64_t type_counter = 0;
  InvalidatorStats stats;
  std::vector<Type> types;
  std::vector<std::string_view> instances;
  std::vector<std::pair<uint64_t, std::string_view>> sinks;
};

std::string Invalidator::Checkpoint() {
  // Staged restore work must land first or the snapshot would persist
  // half-restored state (types without their queued instances).
  ApplyPendingRestore();
  return EncodeState(nullptr);
}

std::string Invalidator::EncodeDurableDelta(DurableDeltaBaseline* baseline) {
  return EncodeState(baseline);
}

std::string Invalidator::EncodeState(DurableDeltaBaseline* baseline) {
  const bool snapshot = baseline == nullptr;
  std::string out = snapshot ? kSnapshotMagic : kDeltaMagic;
  PutFixed64(&out, last_update_seq_);
  std::vector<uint64_t> cursors = plane_.MapCursors();
  PutFixed64(&out, cursors.size());
  for (uint64_t cursor : cursors) PutFixed64(&out, cursor);
  if (snapshot) PutFixed64(&out, plane_.TypeCount());
  for (const LifetimeCounter& counter : kLifetimeCounters) {
    PutFixed64(&out, stats_.*counter.field);
  }
  // A list's length is known only after its walk: reserve the count,
  // then patch it in.
  auto begin_list = [&out] {
    PutFixed64(&out, 0);
    return out.size() - 8;
  };
  auto end_list = [&out](size_t at, uint64_t count) {
    std::string fixed;
    PutFixed64(&fixed, count);
    out.replace(at, 8, fixed);
  };
  // Snapshot before the walk: TierAssignments takes shard locks one at a
  // time, the walk below holds them all.
  std::map<uint64_t, TierDecision> tiers;
  if (snapshot) tiers = plane_.TierAssignments();
  size_t at = begin_list();
  uint64_t count = 0;
  std::string record;
  plane_.ForEachType([&](const QueryType& type) {
    record.clear();
    PutTypeRecord(&record, type);
    if (snapshot) {
      auto it = tiers.find(type.type_id);
      const bool assigned = it != tiers.end();
      PutFixed64(&record, assigned ? static_cast<uint64_t>(it->second.tier)
                                   : kTierUnassigned);
      PutLengthPrefixed(&record, type.name);
      PutLengthPrefixed(&record, type.tmpl.canonical_text);
      PutLengthPrefixed(&record, assigned ? it->second.reason : "");
    } else {
      std::string& last = baseline->type_records[type.type_id];
      if (last == record) return;
      last = record;
    }
    out += record;
    ++count;
  });
  end_list(at, count);
  if (snapshot) {
    at = begin_list();
    count = 0;
    plane_.ForEachInstance(
        [&](const QueryType&, const QueryInstance& instance) {
          PutLengthPrefixed(&out, instance.sql);
          ++count;
        });
    end_list(at, count);
  }
  at = begin_list();
  count = 0;
  for (size_t i = 0; i < sinks_.size(); ++i) {
    const auto* durable = dynamic_cast<const CheckpointableSink*>(sinks_[i]);
    if (durable == nullptr) continue;
    std::string state = durable->CheckpointState();
    if (!snapshot) {
      std::string& last = baseline->sink_states[i];
      if (last == state) continue;
      last = state;
    }
    PutFixed64(&out, i);
    PutLengthPrefixed(&out, state);
    ++count;
  }
  end_list(at, count);
  return out;
}

Result<Invalidator::DecodedState> Invalidator::DecodeState(
    std::string_view blob, bool snapshot) {
  CACHEPORTAL_ASSIGN_OR_RETURN(
      RecordReader r,
      RecordReader::Open(blob, snapshot ? kSnapshotMagic : kDeltaMagic,
                         snapshot ? "invalidator snapshot"
                                  : "invalidator delta"));
  DecodedState s;
  CACHEPORTAL_ASSIGN_OR_RETURN(s.update_seq, r.U64("update_seq"));
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t shards, r.Count("shard count", 8));
  if (shards == 0) return r.Invalid("shard count", "zero shards");
  s.cursors.resize(shards);
  for (uint64_t& cursor : s.cursors) {
    CACHEPORTAL_ASSIGN_OR_RETURN(cursor, r.U64("map cursor"));
  }
  if (snapshot) {
    CACHEPORTAL_ASSIGN_OR_RETURN(s.type_counter, r.U64("type_counter"));
  }
  for (const LifetimeCounter& counter : kLifetimeCounters) {
    CACHEPORTAL_ASSIGN_OR_RETURN(s.stats.*counter.field, r.U64(counter.name));
  }
  CACHEPORTAL_ASSIGN_OR_RETURN(
      uint64_t num_types,
      r.Count("type count", snapshot ? kMinSnapshotTypeRecord
                                     : kMinTypeRecord));
  s.types.resize(num_types);
  for (DecodedState::Type& t : s.types) {
    QueryTypeStats& ts = t.override_.stats;
    CACHEPORTAL_ASSIGN_OR_RETURN(t.type_id, r.U64("type_id"));
    CACHEPORTAL_ASSIGN_OR_RETURN(t.override_.cacheable,
                                 r.Flag("type cacheable"));
    CACHEPORTAL_ASSIGN_OR_RETURN(ts.instances_seen, r.U64("instances_seen"));
    CACHEPORTAL_ASSIGN_OR_RETURN(ts.checks, r.U64("type checks"));
    CACHEPORTAL_ASSIGN_OR_RETURN(ts.affected, r.U64("type affected"));
    CACHEPORTAL_ASSIGN_OR_RETURN(ts.polling_queries, r.U64("polling_queries"));
    CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t total_us, r.U64("total time"));
    CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t max_us, r.U64("max time"));
    ts.total_invalidation_time = static_cast<Micros>(total_us);
    ts.max_invalidation_time = static_cast<Micros>(max_us);
    if (!snapshot) continue;
    CACHEPORTAL_ASSIGN_OR_RETURN(t.tier, r.U64("type tier"));
    if (t.tier > kTierUnassigned) {
      return r.Invalid("type tier", StrCat("tier ", t.tier));
    }
    CACHEPORTAL_ASSIGN_OR_RETURN(t.name, r.Bytes("type name"));
    CACHEPORTAL_ASSIGN_OR_RETURN(t.tmpl, r.Bytes("type template"));
    CACHEPORTAL_ASSIGN_OR_RETURN(t.reason, r.Bytes("type demotion reason"));
    // The template must still parse, and to the same identity: the
    // type_id is the template hash, so a mismatch means the blob's bytes
    // rotted (or the canonicalizer changed incompatibly) and the
    // registry built from it would route instances to the wrong shard.
    Result<sql::QueryTemplate> tmpl =
        sql::ExtractTemplateFromSql(std::string(t.tmpl));
    if (!tmpl.ok()) {
      return r.Invalid("type template", tmpl.status().message());
    }
    if (tmpl->type_id != t.type_id) {
      return r.Invalid("type template",
                       StrCat("hashes to ", tmpl->type_id,
                              " but the record claims ", t.type_id));
    }
  }
  if (snapshot) {
    // Framing only: the SQL is parsed lazily by ApplyPendingRestore,
    // which logs and skips unparseable entries the way the ingest scan
    // does.
    CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t num_instances,
                                 r.Count("instance count", 4));
    s.instances.resize(num_instances);
    for (std::string_view& sql : s.instances) {
      CACHEPORTAL_ASSIGN_OR_RETURN(sql, r.Bytes("instance sql"));
    }
  }
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t num_sinks,
                               r.Count("sink count", 8 + 4));
  s.sinks.resize(num_sinks);
  for (size_t i = 0; i < s.sinks.size(); ++i) {
    CACHEPORTAL_ASSIGN_OR_RETURN(s.sinks[i].first, r.U64("sink index"));
    if (i > 0 && s.sinks[i].first <= s.sinks[i - 1].first) {
      return r.Invalid("sink index", "duplicate or out of order");
    }
    CACHEPORTAL_ASSIGN_OR_RETURN(s.sinks[i].second, r.Bytes("sink state"));
  }
  CACHEPORTAL_RETURN_NOT_OK(r.Finish());
  return s;
}

Status Invalidator::Restore(std::string_view checkpoint) {
  CACHEPORTAL_ASSIGN_OR_RETURN(DecodedState state,
                               DecodeState(checkpoint, /*snapshot=*/true));
  return InstallState(state, /*snapshot=*/true);
}

Status Invalidator::ApplyDurableDelta(std::string_view payload) {
  CACHEPORTAL_ASSIGN_OR_RETURN(DecodedState state,
                               DecodeState(payload, /*snapshot=*/false));
  return InstallState(state, /*snapshot=*/false);
}

Status Invalidator::InstallState(DecodedState& s, bool snapshot) {
  // Sinks first: they are the only apply step that can fail, and every
  // index must resolve before any of them restores.
  std::vector<CheckpointableSink*> durable(s.sinks.size());
  for (size_t i = 0; i < s.sinks.size(); ++i) {
    const uint64_t index = s.sinks[i].first;
    if (index < sinks_.size()) {
      durable[i] = dynamic_cast<CheckpointableSink*>(sinks_[index]);
    }
    if (durable[i] == nullptr) {
      return Status::InvalidArgument(
          StrCat("persisted state names sink ", index,
                 ", which is not an attached checkpointable sink (",
                 sinks_.size(), " sinks attached)"));
    }
  }
  for (size_t i = 0; i < s.sinks.size(); ++i) {
    CACHEPORTAL_RETURN_NOT_OK(durable[i]->RestoreState(s.sinks[i].second));
  }
  if (snapshot) {
    pending_restore_ops_.clear();
    pending_type_overrides_.clear();
  }
  for (const DecodedState::Type& t : s.types) {
    if (snapshot) {
      // Every type rebuilds eagerly — O(types), the cheap part — so
      // cacheability verdicts and reports are right immediately.
      CACHEPORTAL_RETURN_NOT_OK(
          plane_.RegisterType(std::string(t.name), std::string(t.tmpl)));
      // Pin the persisted tier before any instance re-registers, so the
      // census and the next cycle's strategy dispatch match the dead
      // process exactly — a re-derivation against drifted schema or
      // analyzer behavior would be a silent strategy change on recovery.
      if (t.tier < kTierUnassigned) {
        plane_.InstallTier(t.type_id, static_cast<StrategyTier>(t.tier),
                           std::string(t.reason));
      }
    }
    // Cacheability applies eagerly when the type already exists (verdict
    // queries don't wait for the next cycle); statistics are staged
    // behind the pending ops either way — the type may itself still be a
    // queued registration, and re-registration bumps must not survive.
    plane_.WithShardOfType(t.type_id, [&](MetadataPlane::Shard& shard) {
      if (QueryType* type = shard.registry.FindType(t.type_id)) {
        type->cacheable = t.override_.cacheable;
      }
    });
    pending_type_overrides_[t.type_id] = t.override_;
  }
  if (snapshot) {
    // After the creations above, so the persisted counter (which already
    // includes these types) wins and discovered-type naming continues
    // where the dead process left off. Instances (the O(N) parse cost)
    // are queued for ApplyPendingRestore.
    plane_.SetTypeCount(s.type_counter);
    pending_restore_ops_.reserve(s.instances.size());
    for (std::string_view sql : s.instances) {
      pending_restore_ops_.push_back(RestoredOp{true, std::string(sql)});
    }
  }
  stats_ = s.stats;
  // Persisted map cursors are only meaningful against the map
  // incarnation that wrote them. The sniffer's map is rebuilt from live
  // traffic after a process restart, so its ids restart below the
  // persisted positions — installing such a cursor verbatim would
  // silently skip every re-sniffed row, and updates would never eject
  // the re-cached pages. Clamp to the live tail: rows the map does hold
  // stay consumed (no rescan for in-process restores), and a rebuilt map
  // rescans from its start.
  const uint64_t live_tail = map_->LastId();
  for (uint64_t& cursor : s.cursors) cursor = std::min(cursor, live_tail);
  plane_.SetMapCursors(s.cursors);
  last_update_seq_ = s.update_seq;
  last_map_epoch_.reset();     // Force the next cycle's map scan.
  last_retire_epoch_.reset();  // ... and its retire sweep.
  return Status::OK();
}

void Invalidator::QueueRestoredRegistration(const std::string& sql) {
  pending_restore_ops_.push_back(RestoredOp{true, sql});
}

void Invalidator::QueueRestoredRetirement(const std::string& sql) {
  pending_restore_ops_.push_back(RestoredOp{false, sql});
}

size_t Invalidator::pending_restore_ops() const {
  return pending_restore_ops_.size() + pending_type_overrides_.size();
}

void Invalidator::ApplyPendingRestore() {
  if (pending_restore_ops_.empty() && pending_type_overrides_.empty()) return;
  for (const RestoredOp& op : pending_restore_ops_) {
    if (op.registered) {
      Result<const QueryInstance*> registered = plane_.RegisterInstance(op.sql);
      if (!registered.ok()) {
        // Same contract as the ingest scan: a row that no longer parses
        // is logged and skipped, never fatal — the page it backed simply
        // stays conservative.
        LogMessage(LogLevel::kWarning,
                   StrCat("restore: skipping unparseable instance: ",
                          registered.status().message()));
      }
    } else {
      plane_.RetireInstance(op.sql);
    }
  }
  pending_restore_ops_.clear();
  // After the replayed registrations: their instances_seen bumps must be
  // overwritten by the persisted absolute values, or recovered reports
  // would double-count every instance that survived the crash.
  for (const auto& [tid, override_] : pending_type_overrides_) {
    plane_.WithShardOfType(tid, [&](MetadataPlane::Shard& shard) {
      if (QueryType* type = shard.registry.FindType(tid)) {
        type->cacheable = override_.cacheable;
        type->stats = override_.stats;
      }
    });
  }
  pending_type_overrides_.clear();
}

StageEnv Invalidator::MakeStageEnv() {
  StageEnv env;
  env.database = database_;
  env.map = map_;
  env.clock = clock_;
  env.options = &options_;
  env.plane = &plane_;
  env.info = &info_;
  env.scheduler = &scheduler_;
  env.polling_cache = polling_cache_.get();
  env.pool = pool_.get();
  env.overload = overload_.get();
  env.sinks = &sinks_;
  env.stats = &stats_;
  env.cycle_matcher_stats = &cycle_matcher_stats_;
  env.last_update_seq = &last_update_seq_;
  env.last_map_epoch = &last_map_epoch_;
  env.last_retire_epoch = &last_retire_epoch_;
  env.execute_poll = [this](const std::string& poll_sql) {
    return ExecutePoll(poll_sql);
  };
  env.observe_signals = [this] { return ObserveOverloadSignals(); };
  return env;
}

Result<CycleReport> Invalidator::RunCycle() {
  // Drain any staged restore work first: the cycle's impact analysis
  // must see the recovered registry, not a half-rebuilt one.
  ApplyPendingRestore();
  CycleContext ctx;
  ctx.start = clock_->NowMicros();
  ++stats_.cycles;

  StageEnv env = MakeStageEnv();
  CACHEPORTAL_RETURN_NOT_OK(IngestStage(env).Run(ctx));
  if (ctx.proceed) {
    CACHEPORTAL_RETURN_NOT_OK(ImpactStage(env).Run(ctx));
    CACHEPORTAL_RETURN_NOT_OK(PollStage(env).Run(ctx));
    CACHEPORTAL_RETURN_NOT_OK(DeliverStage(env).Run(ctx));

    // ---- Policy discovery: refresh cacheability verdicts. ----
    plane_.ForEachTypeMutable([&](QueryType& type) {
      type.cacheable = policy_.IsQueryTypeCacheable(type);
    });
  }

  ctx.report.duration = clock_->NowMicros() - ctx.start;
  last_cycle_duration_ = ctx.report.duration;
  return ctx.report;
}

Result<db::QueryResult> Invalidator::ExecutePoll(const std::string& poll_sql) {
  server::Connection* external =
      polling_connection_.load(std::memory_order_acquire);
  if (external != nullptr) {
    std::lock_guard<std::mutex> lock(polling_connection_mu_);
    return external->ExecuteQuery(poll_sql);
  }
  if (polling_cache_ != nullptr) {
    return polling_cache_->ExecuteQuery(poll_sql);
  }
  return database_->ExecuteSql(poll_sql);
}

OverloadSignals Invalidator::ObserveOverloadSignals() const {
  OverloadSignals signals;
  const db::UpdateLog& log =
      static_cast<const db::Database*>(database_)->update_log();
  uint64_t last = log.LastSeq();
  signals.backlog_depth =
      last > last_update_seq_ ? last - last_update_seq_ : 0;
  if (std::optional<Micros> oldest =
          log.OldestTimestampSince(last_update_seq_)) {
    Micros now = clock_->NowMicros();
    signals.backlog_age = now > *oldest ? now - *oldest : 0;
  }
  for (const InvalidationSink* sink : sinks_) {
    if (const auto* observable = dynamic_cast<const ObservableSink*>(sink)) {
      signals.delivery_backlog += observable->PendingBacklog();
    }
  }
  signals.last_cycle_latency = last_cycle_duration_;
  return signals;
}

}  // namespace cacheportal::invalidator
