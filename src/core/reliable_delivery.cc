#include "core/reliable_delivery.h"

#include <algorithm>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/record_codec.h"
#include "common/strings.h"

namespace cacheportal::core {

namespace {

/// Queue state layout (common/record_codec.h): magic, then a counted
/// list of sinks in AddSink order, each: name bytes, quarantined flag,
/// breaker-tripped flag (open or half-open), recovery-flush flag, and a
/// counted list of messages (cache key bytes, serialized eject bytes).
constexpr char kQueueStateMagic[] = "CPDQ";

const char* BreakerName(ReliableDeliveryQueue::BreakerState state) {
  switch (state) {
    case ReliableDeliveryQueue::BreakerState::kClosed:
      return "closed";
    case ReliableDeliveryQueue::BreakerState::kOpen:
      return "open";
    case ReliableDeliveryQueue::BreakerState::kHalfOpen:
      return "half-open";
  }
  return "closed";
}

}  // namespace

ReliableDeliveryQueue::ReliableDeliveryQueue(const Clock* clock,
                                             DeliveryOptions options)
    : clock_(clock), options_(options), jitter_(options.jitter_seed) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

void ReliableDeliveryQueue::AddSink(invalidator::InvalidationSink* sink,
                                    std::string name, FlushFn flush) {
  SinkState state;
  state.sink = sink;
  state.batch = dynamic_cast<invalidator::BatchInvalidationSink*>(sink);
  if (state.batch != nullptr && !state.batch->BatchingEnabled()) {
    state.batch = nullptr;
  }
  state.name = std::move(name);
  state.flush = std::move(flush);
  sinks_.push_back(std::move(state));
}

void ReliableDeliveryQueue::EnqueueLocked(
    SinkState& state, const http::HttpRequest& eject_message,
    const std::string& cache_key, Micros now) {
  ++stats_.enqueued;
  PendingMessage message;
  message.request = eject_message;
  message.cache_key = cache_key;
  message.first_attempt = now;
  if (!state.queue.empty() || BatchEligible(state)) {
    // Backlogged: keep per-sink FIFO order rather than letting a fresh
    // message overtake queued ones. Batch-eligible sinks always defer to
    // Pump() so consecutive sends coalesce into one flush instead of
    // paying a transport round trip each.
    message.next_retry = now;
    state.queue.push_back(std::move(message));
    return;
  }
  Attempt(state, std::move(message), /*is_retry=*/false);
}

Status ReliableDeliveryQueue::SendInvalidation(
    const http::HttpRequest& eject_message, const std::string& cache_key) {
  Micros now = clock_->NowMicros();
  for (SinkState& state : sinks_) {
    if (state.quarantined) {
      // The serving path bypasses this cache; delivering is pointless
      // until it is reinstated (flushed or repopulated fresh).
      ++stats_.dead_lettered;
      continue;
    }
    MaybeHalfOpen(state, now);
    if (state.breaker == BreakerState::kOpen) {
      // The sink is plainly down: refuse without an attempt. The drop is
      // compensated by the recovery flush when the breaker closes.
      ++stats_.breaker_rejections;
      ++stats_.dead_lettered;
      continue;
    }
    EnqueueLocked(state, eject_message, cache_key, now);
  }
  return Status::OK();
}

Status ReliableDeliveryQueue::SendInvalidationTo(
    const std::string& sink_name, const http::HttpRequest& eject_message,
    const std::string& cache_key) {
  SinkState* state = FindSink(sink_name);
  if (state == nullptr) {
    return Status::InvalidArgument(
        StrCat("SendInvalidationTo: unknown sink '", sink_name, "'"));
  }
  Micros now = clock_->NowMicros();
  if (state->quarantined) {
    ++stats_.dead_lettered;
    return Status::OK();
  }
  MaybeHalfOpen(*state, now);
  if (state->breaker == BreakerState::kOpen) {
    ++stats_.breaker_rejections;
    ++stats_.dead_lettered;
    return Status::OK();
  }
  EnqueueLocked(*state, eject_message, cache_key, now);
  return Status::OK();
}

Micros ReliableDeliveryQueue::BackoffAfter(int attempts) {
  double backoff = static_cast<double>(options_.initial_backoff);
  for (int i = 1; i < attempts; ++i) backoff *= options_.backoff_multiplier;
  backoff = std::min(backoff, static_cast<double>(options_.max_backoff));
  if (options_.jitter_fraction > 0.0) {
    double jitter =
        (jitter_.NextDouble() * 2.0 - 1.0) * options_.jitter_fraction;
    backoff *= 1.0 + jitter;
  }
  return std::max<Micros>(1, static_cast<Micros>(backoff));
}

bool ReliableDeliveryQueue::Attempt(SinkState& state, PendingMessage message,
                                    bool is_retry) {
  ++stats_.attempts;
  if (is_retry) ++stats_.retries;
  bool is_probe = state.breaker == BreakerState::kHalfOpen;
  if (is_probe) ++stats_.breaker_probes;
  ++message.attempts;
  Status sent = state.sink->SendInvalidation(message.request,
                                             message.cache_key);
  if (sent.ok()) {
    ++stats_.delivered;
    if (message.attempts == 1) ++stats_.delivered_first_try;
    if (is_probe) {
      CloseBreakerAfterProbe(state);
    } else {
      state.consecutive_failures = 0;
    }
    return true;
  }
  Micros now = clock_->NowMicros();
  if (IsFatalDeliveryError(sent)) {
    // A version mismatch or corrupt frame fails identically on every
    // retry — burning the attempt budget just delays the escalation the
    // undelivered eject requires (the cache may be serving the stale
    // page right now).
    LogMessage(LogLevel::kWarning,
               StrCat("delivery to sink '", state.name,
                      "' hit a fatal error on '", message.cache_key,
                      "'; dead-lettering without retries (",
                      sent.ToString(), ")"));
    ++stats_.dead_lettered;
    ++stats_.fatal_dead_letters;
    Escalate(state);
    return false;
  }
  if (is_probe) {
    // Failed probe: the sink is still down. Reopen for another full
    // cooldown; the probe message is dead-lettered like any message
    // arriving while open (the pending recovery flush covers it).
    ++stats_.breaker_opens;
    ++stats_.dead_lettered;
    state.breaker = BreakerState::kOpen;
    state.breaker_opened_at = now;
    LogMessage(LogLevel::kWarning,
               StrCat("sink '", state.name,
                      "' failed its half-open probe; breaker reopened"));
    return false;
  }
  if (options_.breaker_failure_threshold > 0) {
    ++state.consecutive_failures;
    if (state.consecutive_failures >= options_.breaker_failure_threshold) {
      ++stats_.dead_lettered;  // The message that tripped the breaker.
      OpenBreaker(state);
      return false;
    }
  }
  bool deadline_passed =
      options_.delivery_deadline > 0 &&
      now - message.first_attempt >= options_.delivery_deadline;
  if (message.attempts >= options_.max_attempts || deadline_passed) {
    LogMessage(LogLevel::kWarning,
               StrCat("delivery to sink '", state.name, "' gave up on '",
                      message.cache_key, "' after ", message.attempts,
                      " attempts (", sent.ToString(), ")"));
    ++stats_.dead_lettered;
    Escalate(state);
    return false;
  }
  message.next_retry = now + BackoffAfter(message.attempts);
  // Back to the head: this message stays first in the sink's FIFO.
  state.queue.push_front(std::move(message));
  return false;
}

void ReliableDeliveryQueue::Escalate(SinkState& state) {
  ++stats_.escalations;
  stats_.dead_lettered += state.queue.size();
  state.queue.clear();
  if (options_.escalation == DeliveryOptions::Escalation::kFlush &&
      state.flush != nullptr) {
    // Freshness over hit ratio: emptying the unreachable cache costs
    // misses but cannot serve a stale page. The callback must not use
    // the failing transport.
    LogMessage(LogLevel::kWarning,
               StrCat("sink '", state.name,
                      "' unreachable; flushing its cache wholesale"));
    state.flush();
    return;
  }
  state.quarantined = true;
  LogMessage(LogLevel::kWarning,
             StrCat("sink '", state.name,
                    "' unreachable; quarantined (serving path should "
                    "bypass it until reinstated)"));
}

void ReliableDeliveryQueue::OpenBreaker(SinkState& state) {
  ++stats_.breaker_opens;
  stats_.dead_lettered += state.queue.size();
  state.queue.clear();
  state.breaker = BreakerState::kOpen;
  state.breaker_opened_at = clock_->NowMicros();
  state.recovery_flush_pending = true;
  if (state.flush == nullptr) {
    // Without an out-of-band flush channel the ejects dropped while open
    // can never be compensated; quarantine so the serving path bypasses
    // the cache until an operator reinstates it.
    ++stats_.escalations;
    state.quarantined = true;
    LogMessage(LogLevel::kWarning,
               StrCat("sink '", state.name, "' breaker opened after ",
                      state.consecutive_failures,
                      " consecutive failures; no flush channel, "
                      "quarantined"));
    return;
  }
  LogMessage(LogLevel::kWarning,
             StrCat("sink '", state.name, "' breaker opened after ",
                    state.consecutive_failures,
                    " consecutive failures; cooling down"));
}

void ReliableDeliveryQueue::MaybeHalfOpen(SinkState& state, Micros now) {
  if (state.breaker != BreakerState::kOpen) return;
  if (now - state.breaker_opened_at < options_.breaker_cooldown) return;
  state.breaker = BreakerState::kHalfOpen;
  LogMessage(LogLevel::kInfo,
             StrCat("sink '", state.name,
                    "' breaker half-open; next message probes"));
}

void ReliableDeliveryQueue::CloseBreakerAfterProbe(SinkState& state) {
  ++stats_.breaker_recoveries;
  state.breaker = BreakerState::kClosed;
  state.consecutive_failures = 0;
  if (!state.recovery_flush_pending) return;
  state.recovery_flush_pending = false;
  // Ejects were dropped while the breaker was open, so the recovered
  // cache may hold pages whose invalidations it never saw: start clean.
  ++stats_.escalations;
  if (state.flush != nullptr) {
    LogMessage(LogLevel::kWarning,
               StrCat("sink '", state.name,
                      "' breaker closed; recovery flush covers ejects "
                      "dropped while open"));
    state.flush();
    return;
  }
  state.quarantined = true;
  LogMessage(LogLevel::kWarning,
             StrCat("sink '", state.name,
                    "' breaker closed but no flush channel; quarantined "
                    "until reinstated"));
}

size_t ReliableDeliveryQueue::FlushBatch(SinkState& state, Micros now,
                                         bool* keep_going) {
  // Pop every due message up to batch_max; the batch is sent as one
  // transport operation and confirmed as a prefix.
  std::vector<PendingMessage> batch;
  size_t cap = static_cast<size_t>(std::max(options_.batch_max, 1));
  while (batch.size() < cap && !state.queue.empty() &&
         state.queue.front().next_retry <= now) {
    batch.push_back(std::move(state.queue.front()));
    state.queue.pop_front();
  }
  if (batch.empty()) {
    *keep_going = false;
    return 0;
  }
  ++stats_.batch_flushes;
  stats_.batched_messages += batch.size();
  std::vector<invalidator::BatchItem> items;
  items.reserve(batch.size());
  for (PendingMessage& message : batch) {
    ++stats_.attempts;
    if (message.attempts > 0) ++stats_.retries;
    ++message.attempts;
    items.push_back({&message.request, &message.cache_key});
  }
  invalidator::BatchSendResult sent =
      state.batch->SendInvalidationBatch(items);
  size_t confirmed = std::min(sent.confirmed, batch.size());
  for (size_t i = 0; i < confirmed; ++i) {
    ++stats_.delivered;
    if (batch[i].attempts == 1) ++stats_.delivered_first_try;
  }
  if (confirmed == batch.size()) {
    state.consecutive_failures = 0;
    *keep_going = true;
    return confirmed;
  }
  *keep_going = false;
  size_t remainder = batch.size() - confirmed;
  // The head of the unconfirmed suffix owns the failure: it is the
  // message the sink stopped at, so the escalation rules that Attempt()
  // applies per message apply to it, and the rest ride along (they were
  // never individually refused).
  Status cause = sent.status.ok()
                     ? Status::Unavailable(
                           "batch sink confirmed only a prefix")
                     : sent.status;
  now = clock_->NowMicros();
  if (IsFatalDeliveryError(cause)) {
    LogMessage(LogLevel::kWarning,
               StrCat("batch delivery to sink '", state.name,
                      "' hit a fatal error at '",
                      batch[confirmed].cache_key,
                      "'; dead-lettering without retries (",
                      cause.ToString(), ")"));
    stats_.dead_lettered += remainder;
    ++stats_.fatal_dead_letters;  // The message the fatal error named.
    Escalate(state);
    return confirmed;
  }
  if (options_.breaker_failure_threshold > 0) {
    ++state.consecutive_failures;
    if (state.consecutive_failures >= options_.breaker_failure_threshold) {
      stats_.dead_lettered += remainder;  // Tripping batch remainder.
      OpenBreaker(state);
      return confirmed;
    }
  }
  PendingMessage& head = batch[confirmed];
  bool deadline_passed =
      options_.delivery_deadline > 0 &&
      now - head.first_attempt >= options_.delivery_deadline;
  if (head.attempts >= options_.max_attempts || deadline_passed) {
    LogMessage(LogLevel::kWarning,
               StrCat("batch delivery to sink '", state.name,
                      "' gave up on '", head.cache_key, "' after ",
                      head.attempts, " attempts (", cause.ToString(), ")"));
    stats_.dead_lettered += remainder;
    Escalate(state);
    return confirmed;
  }
  // Requeue the unconfirmed suffix at the FRONT in original order so the
  // per-sink FIFO holds; the whole suffix shares the head's backoff (it
  // travels in the head's next batch anyway).
  Micros next_retry = now + BackoffAfter(head.attempts);
  for (size_t i = batch.size(); i-- > confirmed;) {
    batch[i].next_retry = next_retry;
    state.queue.push_front(std::move(batch[i]));
  }
  return confirmed;
}

size_t ReliableDeliveryQueue::Pump() {
  size_t delivered = 0;
  Micros now = clock_->NowMicros();
  for (SinkState& state : sinks_) {
    if (state.quarantined) continue;
    // An open breaker holds no queue (it was dead-lettered on trip), but
    // Pump still advances it toward half-open as time passes.
    MaybeHalfOpen(state, now);
    if (state.breaker == BreakerState::kOpen) continue;
    if (BatchEligible(state) && state.breaker != BreakerState::kHalfOpen) {
      // Batched drain: up to batch_max messages per transport operation.
      // Half-open probes stay single-message (below) so a recovering
      // sink is tested with one message, not a whole batch.
      bool keep_going = true;
      while (keep_going) {
        delivered += FlushBatch(state, now, &keep_going);
        if (state.quarantined || state.breaker != BreakerState::kClosed) {
          break;
        }
      }
      continue;
    }
    while (!state.queue.empty() && state.queue.front().next_retry <= now) {
      PendingMessage message = std::move(state.queue.front());
      state.queue.pop_front();
      bool is_retry = message.attempts > 0;
      if (!Attempt(state, std::move(message), is_retry)) break;
      ++delivered;
    }
  }
  return delivered;
}

size_t ReliableDeliveryQueue::DrainWith(ManualClock* clock) {
  size_t delivered = Pump();
  while (std::optional<Micros> next = NextRetryAt()) {
    if (*next > clock->NowMicros()) clock->SetTime(*next);
    delivered += Pump();
    // Terminates: every due attempt either delivers (queue shrinks) or
    // raises the message's attempt count toward escalation, which clears
    // the sink's queue.
  }
  return delivered;
}

std::optional<Micros> ReliableDeliveryQueue::NextRetryAt() const {
  std::optional<Micros> next;
  for (const SinkState& state : sinks_) {
    if (state.quarantined || state.queue.empty()) continue;
    Micros head = state.queue.front().next_retry;
    if (!next.has_value() || head < *next) next = head;
  }
  return next;
}

size_t ReliableDeliveryQueue::pending() const {
  size_t total = 0;
  for (const SinkState& state : sinks_) total += state.queue.size();
  return total;
}

size_t ReliableDeliveryQueue::pending_for(const std::string& name) const {
  const SinkState* state = FindSink(name);
  return state == nullptr ? 0 : state->queue.size();
}

bool ReliableDeliveryQueue::IsQuarantined(const std::string& name) const {
  const SinkState* state = FindSink(name);
  return state != nullptr && state->quarantined;
}

void ReliableDeliveryQueue::Reinstate(const std::string& name) {
  SinkState* state = FindSink(name);
  if (state != nullptr) state->quarantined = false;
}

ReliableDeliveryQueue::BreakerState ReliableDeliveryQueue::breaker_state(
    const std::string& name) const {
  const SinkState* state = FindSink(name);
  if (state == nullptr) return BreakerState::kClosed;
  // Report the effective state: an open breaker whose cooldown has
  // elapsed probes on the next message, so observers see half-open even
  // before that message arrives.
  if (state->breaker == BreakerState::kOpen &&
      clock_->NowMicros() - state->breaker_opened_at >=
          options_.breaker_cooldown) {
    return BreakerState::kHalfOpen;
  }
  return state->breaker;
}

std::string ReliableDeliveryQueue::HealthReport() const {
  std::string report = StrCat(
      "delivery: pending=", pending(), " delivered=", stats_.delivered,
      " dead-letters=", stats_.dead_lettered,
      " fatal-dead-letters=", stats_.fatal_dead_letters,
      " escalations=", stats_.escalations,
      " breaker-opens=", stats_.breaker_opens,
      " breaker-rejections=", stats_.breaker_rejections);
  for (const SinkState& state : sinks_) {
    report += StrCat(" ", state.name, "=",
                     state.quarantined ? "quarantined"
                                       : BreakerName(breaker_state(state.name)));
  }
  // Per-peer connection health travels with the queue's line: the
  // operator reading delivery state sees reconnects/epochs/quarantines
  // of each observable downstream sink in the same place.
  for (const SinkState& state : sinks_) {
    if (auto* observable =
            dynamic_cast<const invalidator::ObservableSink*>(state.sink)) {
      report += StrCat("\n  [", state.name, "] ",
                       observable->HealthReport());
    }
  }
  return report;
}

ReliableDeliveryQueue::SinkState* ReliableDeliveryQueue::FindSink(
    const std::string& name) {
  for (SinkState& state : sinks_) {
    if (state.name == name) return &state;
  }
  return nullptr;
}

const ReliableDeliveryQueue::SinkState* ReliableDeliveryQueue::FindSink(
    const std::string& name) const {
  for (const SinkState& state : sinks_) {
    if (state.name == name) return &state;
  }
  return nullptr;
}

std::string ReliableDeliveryQueue::CheckpointState() const {
  std::string out = kQueueStateMagic;
  PutFixed64(&out, sinks_.size());
  for (const SinkState& state : sinks_) {
    PutLengthPrefixed(&out, state.name);
    PutFixed64(&out, state.quarantined ? 1 : 0);
    PutFixed64(&out, state.breaker != BreakerState::kClosed ? 1 : 0);
    PutFixed64(&out, state.recovery_flush_pending ? 1 : 0);
    PutFixed64(&out, state.queue.size());
    for (const PendingMessage& message : state.queue) {
      PutLengthPrefixed(&out, message.cache_key);
      PutLengthPrefixed(&out, message.request.Serialize());
    }
  }
  return out;
}

Status ReliableDeliveryQueue::RestoreState(std::string_view state_bytes) {
  CACHEPORTAL_ASSIGN_OR_RETURN(
      RecordReader r, RecordReader::Open(state_bytes, kQueueStateMagic,
                                         "delivery-queue state"));
  // Every sink decodes into staging first; the live sinks change only
  // after the whole blob has decoded, so a corrupt record anywhere drops
  // no pending eject.
  struct Staged {
    SinkState* live = nullptr;
    bool quarantined = false;
    bool breaker_tripped = false;
    bool recovery_flush_pending = false;
    std::deque<PendingMessage> queue;
  };
  CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t num_sinks,
                               r.Count("sink count", 4 + 4 * 8));
  std::vector<Staged> staged(num_sinks);
  const Micros now = clock_->NowMicros();
  for (size_t i = 0; i < staged.size(); ++i) {
    Staged& sink = staged[i];
    CACHEPORTAL_ASSIGN_OR_RETURN(std::string_view name, r.Bytes("sink name"));
    sink.live = FindSink(std::string(name));
    if (sink.live == nullptr) {
      return Status::InvalidArgument(
          StrCat("delivery checkpoint references unknown sink '", name,
                 "'; re-add sinks with their original names before "
                 "restoring"));
    }
    for (size_t j = 0; j < i; ++j) {
      if (staged[j].live == sink.live) {
        return r.Invalid("sink name", StrCat("duplicate sink '", name, "'"));
      }
    }
    CACHEPORTAL_ASSIGN_OR_RETURN(sink.quarantined, r.Flag("quarantined"));
    CACHEPORTAL_ASSIGN_OR_RETURN(sink.breaker_tripped, r.Flag("breaker"));
    CACHEPORTAL_ASSIGN_OR_RETURN(sink.recovery_flush_pending,
                                 r.Flag("recovery flush"));
    CACHEPORTAL_ASSIGN_OR_RETURN(uint64_t num_messages,
                                 r.Count("message count", 2 * 4));
    for (uint64_t m = 0; m < num_messages; ++m) {
      PendingMessage message;
      CACHEPORTAL_ASSIGN_OR_RETURN(std::string_view key,
                                   r.Bytes("message cache key"));
      CACHEPORTAL_ASSIGN_OR_RETURN(std::string_view wire,
                                   r.Bytes("message request"));
      Result<http::HttpRequest> request =
          http::HttpRequest::Parse(std::string(wire));
      if (!request.ok()) {
        return r.Invalid("message request", request.status().message());
      }
      message.request = std::move(request).value();
      message.cache_key = key;
      // Rebase timing into the new process's clock and grant a full
      // attempt budget: the outage that queued the message has usually
      // passed, and redelivery is idempotent either way.
      message.first_attempt = now;
      message.next_retry = now;
      sink.queue.push_back(std::move(message));
    }
  }
  CACHEPORTAL_RETURN_NOT_OK(r.Finish());
  for (Staged& sink : staged) {
    SinkState& live = *sink.live;
    live.quarantined = sink.quarantined;
    live.queue = std::move(sink.queue);
    // Breaker state rebases into the new process's clock: a breaker
    // that was open (or mid-probe) restarts a full cooldown now, and the
    // failure streak resets — but a pending recovery flush is durable,
    // since the dropped ejects are gone either way.
    live.breaker =
        sink.breaker_tripped ? BreakerState::kOpen : BreakerState::kClosed;
    live.breaker_opened_at = now;
    live.consecutive_failures = 0;
    live.recovery_flush_pending = sink.recovery_flush_pending;
  }
  return Status::OK();
}

}  // namespace cacheportal::core
