#ifndef CACHEPORTAL_CORE_RELIABLE_DELIVERY_H_
#define CACHEPORTAL_CORE_RELIABLE_DELIVERY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "invalidator/invalidator.h"

namespace cacheportal::core {

/// Tunables of the at-least-once delivery queue.
struct DeliveryOptions {
  /// Delivery attempts per message per sink (including the first) before
  /// the sink is escalated. Must be >= 1.
  int max_attempts = 8;
  /// Backoff before the first retry; doubles (times backoff_multiplier)
  /// per subsequent retry up to max_backoff.
  Micros initial_backoff = 50 * kMicrosPerMilli;
  double backoff_multiplier = 2.0;
  Micros max_backoff = 10 * kMicrosPerSecond;
  /// Uniform jitter applied to each backoff, as a fraction of it
  /// (0.2 = +/-20%). Keeps retry storms from synchronizing across sinks.
  double jitter_fraction = 0.2;
  /// Seed of the deterministic jitter source, so tests replay exactly.
  uint64_t jitter_seed = 0x9e3779b9;
  /// A message still undelivered this long after its first attempt is
  /// dead-lettered even if attempts remain. 0 disables the deadline.
  Micros delivery_deadline = 60 * kMicrosPerSecond;

  /// Most queued messages drained per flush through a batch-capable
  /// sink's SendInvalidationBatch (invalidator::BatchInvalidationSink).
  /// 1 disables batching entirely; sinks without the capability always
  /// use the single-message path. For batch-capable sinks, enqueues
  /// defer to Pump() instead of attempting inline, so consecutive sends
  /// coalesce into one transport operation.
  int batch_max = 64;

  /// Consecutive failed attempts (across messages) that trip the sink's
  /// circuit breaker. While the breaker is open no attempts are made at
  /// all — no retry/backoff churn against a sink that is plainly down —
  /// and arriving messages are dead-lettered immediately. 0 disables
  /// breakers.
  int breaker_failure_threshold = 0;
  /// Open-state cooldown; after it elapses the breaker goes half-open
  /// and the next message is attempted as a probe. A successful probe
  /// closes the breaker and escalates to a recovery flush (ejects were
  /// dropped while open, so the cache must start clean); a failed probe
  /// reopens for another full cooldown.
  Micros breaker_cooldown = 5 * kMicrosPerSecond;

  /// What dead-lettering does to the affected sink.
  enum class Escalation {
    /// Invoke the sink's flush callback (wholesale-drop the unreachable
    /// cache's entries so it cannot serve stale pages), drop its pending
    /// messages, and keep delivering future messages. Falls back to
    /// kQuarantine when the sink has no flush callback.
    kFlush,
    /// Mark the sink quarantined: pending and future messages are
    /// dropped (counted dead-lettered) until Reinstate(). The serving
    /// path should bypass a quarantined cache (IsQuarantined()).
    kQuarantine,
  };
  Escalation escalation = Escalation::kFlush;
};

/// Lifetime counters of a ReliableDeliveryQueue.
struct DeliveryStats {
  uint64_t enqueued = 0;              // (message, sink) pairs accepted.
  uint64_t delivered = 0;             // Acked by the sink, ever.
  uint64_t delivered_first_try = 0;   // Subset of delivered.
  uint64_t attempts = 0;              // SendInvalidation calls made.
  uint64_t retries = 0;               // Attempts after the first.
  uint64_t dead_lettered = 0;         // Given up (escalation/quarantine).
  uint64_t fatal_dead_letters = 0;    // Subset: fatal status, no retries.
  uint64_t escalations = 0;           // Sink flush/quarantine events.
  uint64_t breaker_opens = 0;         // Closed/half-open -> open.
  uint64_t breaker_probes = 0;        // Half-open delivery attempts.
  uint64_t breaker_recoveries = 0;    // Successful probes (-> closed).
  uint64_t breaker_rejections = 0;    // Messages refused while open.
  uint64_t batch_flushes = 0;         // Batch transport operations made.
  uint64_t batched_messages = 0;      // Messages those flushes carried.
};

/// At-least-once delivery in front of fire-and-forget invalidation sinks
/// (the reliability layer the paper's Section 4.2.4 HTTP eject transport
/// lacks). The queue is itself an InvalidationSink: the invalidator
/// sends to it once, and it owns redelivery to every registered
/// downstream sink — per-sink FIFO pending queues, exponential backoff
/// with deterministic jitter, a per-message delivery deadline, and
/// dead-letter escalation that degrades safely (flush the unreachable
/// cache wholesale, or quarantine it) instead of risking staleness.
///
/// Time is read from the injected Clock only; nothing sleeps. Call
/// Pump() whenever time has advanced (e.g. once per invalidation cycle)
/// to perform due retries. Redelivery is safe because ejects are
/// idempotent; a message may therefore be delivered more than once but
/// is never silently lost while its sink is healthy.
///
/// Per-sink circuit breakers (`breaker_failure_threshold` > 0) sit on
/// top of the retry queue: a sink that fails N attempts in a row trips
/// its breaker open — its backlog is dead-lettered, arriving messages
/// are refused without an attempt, and after `breaker_cooldown` the next
/// message probes half-open. Because ejects were dropped while open, a
/// successful probe escalates to a recovery flush (or quarantine when no
/// flush callback exists) before the breaker closes, so the recovered
/// cache can never serve a page whose eject was swallowed.
///
/// The queue implements CheckpointableSink: un-acked messages (and
/// breaker/quarantine state) survive a crash through
/// Invalidator::Checkpoint()/Restore(). It also implements
/// ObservableSink, so Invalidator::StatsReport() shows delivery health.
class ReliableDeliveryQueue : public invalidator::InvalidationSink,
                              public invalidator::CheckpointableSink,
                              public invalidator::ObservableSink {
 public:
  /// Invoked on kFlush escalation; must drop every entry of the sink's
  /// cache through a channel that does not depend on the failing
  /// transport (e.g. cache::PageCache::Clear on a management interface).
  using FlushFn = std::function<void()>;

  /// The retry-vs-give-up split: retrying is for failures time can fix.
  /// kUnavailable (connection refused, reset, timeout, partition) and
  /// kInternal (legacy sinks' transient code) earn retries; a protocol
  /// version mismatch (kNotSupported), frame/stream corruption
  /// (kParseError), or a malformed message (kInvalidArgument) will fail
  /// identically forever, so the queue dead-letters the message on the
  /// spot — and escalates, because an undeliverable eject means the
  /// cache may be serving the stale page right now.
  static bool IsFatalDeliveryError(const Status& status) {
    return status.IsNotSupported() || status.IsParseError() ||
           status.IsInvalidArgument();
  }

  /// `clock` drives backoff and deadlines; not owned.
  explicit ReliableDeliveryQueue(const Clock* clock,
                                 DeliveryOptions options = {});

  ReliableDeliveryQueue(const ReliableDeliveryQueue&) = delete;
  ReliableDeliveryQueue& operator=(const ReliableDeliveryQueue&) = delete;

  /// Registers a downstream sink (not owned). `name` identifies the sink
  /// in diagnostics, quarantine queries, and checkpoints — it must be
  /// unique and stable across restarts. `flush` backs kFlush escalation;
  /// may be null.
  void AddSink(invalidator::InvalidationSink* sink, std::string name,
               FlushFn flush = nullptr);

  /// Attempts immediate delivery to every non-quarantined sink; failures
  /// are queued for retry. Always returns OK — once accepted, a message
  /// is the queue's responsibility until delivered or dead-lettered.
  Status SendInvalidation(const http::HttpRequest& eject_message,
                          const std::string& cache_key) override;

  /// Targeted send: same contract as SendInvalidation but for the one
  /// named sink — the primitive a partitioning router (DeliveryRouter)
  /// builds fan-out on, with each message owed to exactly one peer.
  /// kInvalidArgument for unknown names.
  Status SendInvalidationTo(const std::string& sink_name,
                            const http::HttpRequest& eject_message,
                            const std::string& cache_key);

  /// Retries every message whose backoff has elapsed (per the clock) and
  /// applies deadline/attempt escalation. Returns messages delivered.
  size_t Pump();

  /// Pumps, advancing `clock` (must be the queue's clock) to each next
  /// retry time, until no messages are pending or only quarantined sinks
  /// hold any. For tests and drain-on-shutdown.
  size_t DrainWith(ManualClock* clock);

  /// Earliest scheduled retry time, or nullopt when nothing is pending.
  std::optional<Micros> NextRetryAt() const;

  /// Un-acked (message, sink) pairs currently queued.
  size_t pending() const;
  /// Un-acked messages queued for `name` (0 for unknown names).
  size_t pending_for(const std::string& name) const;

  /// True while `name` is quarantined; the serving path should bypass
  /// that cache (it may hold pages whose ejects were dropped).
  bool IsQuarantined(const std::string& name) const;

  /// Clears `name`'s quarantine once the operator knows the cache is
  /// reachable again and has been flushed or repopulated fresh.
  void Reinstate(const std::string& name);

  /// Circuit-breaker state of one sink.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  /// `name`'s breaker state (kClosed for unknown names).
  BreakerState breaker_state(const std::string& name) const;

  const DeliveryStats& stats() const { return stats_; }
  const DeliveryOptions& options() const { return options_; }

  // ObservableSink: un-acked backlog and a one-line health summary
  // (pending, dead-letters, escalations, per-sink breaker/quarantine).
  size_t PendingBacklog() const override { return pending(); }
  std::string HealthReport() const override;

  // CheckpointableSink: un-acked messages and quarantine/breaker flags
  // in the record codec. RestoreState requires the same sinks to have
  // been re-added (matched by name) and changes nothing unless the whole
  // state decodes; restored messages retry immediately, with attempt
  // counts rebased so a recovering sink gets a full budget.
  std::string CheckpointState() const override;
  Status RestoreState(std::string_view state) override;

 private:
  struct PendingMessage {
    http::HttpRequest request;
    std::string cache_key;
    int attempts = 0;       // Delivery attempts made so far.
    Micros first_attempt = 0;
    Micros next_retry = 0;
  };

  struct SinkState {
    invalidator::InvalidationSink* sink = nullptr;
    /// Non-null when the sink advertises batch capability (resolved once
    /// at AddSink); Pump() then drains it batch_max messages per flush.
    invalidator::BatchInvalidationSink* batch = nullptr;
    std::string name;
    FlushFn flush;
    bool quarantined = false;
    std::deque<PendingMessage> queue;
    // Circuit breaker.
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    Micros breaker_opened_at = 0;
    // Ejects were dropped while the breaker was open: the sink must be
    // flushed (or quarantined) before it can serve again.
    bool recovery_flush_pending = false;
  };

  /// Backoff delay after `attempts` deliveries have failed.
  Micros BackoffAfter(int attempts);

  /// One delivery attempt; queues/escalates on failure. Returns true if
  /// the sink acked.
  bool Attempt(SinkState& state, PendingMessage message, bool is_retry);

  /// True when `state` should coalesce queued messages into batch sends.
  bool BatchEligible(const SinkState& state) const {
    return state.batch != nullptr && options_.batch_max > 1;
  }

  /// Enqueues one message for `state` (the per-sink body of the Send*
  /// entry points): immediate attempt when the sink is idle and not
  /// batch-eligible, FIFO append otherwise.
  void EnqueueLocked(SinkState& state, const http::HttpRequest& eject_message,
                     const std::string& cache_key, Micros now);

  /// Drains up to batch_max due messages from `state`'s queue head
  /// through its batch sink. Returns messages confirmed; *keep_going is
  /// false when the flush did not fully succeed (the caller stops
  /// draining this sink).
  size_t FlushBatch(SinkState& state, Micros now, bool* keep_going);

  /// Dead-letters `state`'s entire queue and applies the configured
  /// escalation.
  void Escalate(SinkState& state);

  /// Trips `state`'s breaker open: dead-letters its backlog and stops
  /// attempting until the cooldown elapses.
  void OpenBreaker(SinkState& state);

  /// Moves an open breaker to half-open once the cooldown has elapsed.
  void MaybeHalfOpen(SinkState& state, Micros now);

  /// Closes the breaker after a successful probe; applies the recovery
  /// flush (or quarantine) covering the ejects dropped while open.
  void CloseBreakerAfterProbe(SinkState& state);

  SinkState* FindSink(const std::string& name);
  const SinkState* FindSink(const std::string& name) const;

  const Clock* clock_;
  DeliveryOptions options_;
  Random jitter_;
  std::vector<SinkState> sinks_;
  DeliveryStats stats_;
};

}  // namespace cacheportal::core

#endif  // CACHEPORTAL_CORE_RELIABLE_DELIVERY_H_
