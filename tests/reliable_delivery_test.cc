#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "core/reliable_delivery.h"
#include "http/message.h"

namespace cacheportal::core {
namespace {

/// Sink whose failures are scripted by the test.
class ScriptedSink : public invalidator::InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest& message,
                          const std::string& cache_key) override {
    ++attempts;
    if (always_fail || fail_next > 0) {
      if (fail_next > 0) --fail_next;
      return Status::Internal("scripted failure");
    }
    delivered.push_back(cache_key);
    last_message = message;
    return Status::OK();
  }

  int fail_next = 0;
  bool always_fail = false;
  int attempts = 0;
  std::vector<std::string> delivered;
  http::HttpRequest last_message;
};

http::HttpRequest Eject(const std::string& path) {
  http::HttpRequest message = *http::HttpRequest::Get("http://cache" + path);
  message.headers.Set("Cache-Control", "eject");
  return message;
}

DeliveryOptions NoJitterOptions() {
  DeliveryOptions options;
  options.initial_backoff = 100 * kMicrosPerMilli;
  options.backoff_multiplier = 2.0;
  options.max_backoff = 10 * kMicrosPerSecond;
  options.jitter_fraction = 0.0;  // Exact schedules for assertions.
  options.delivery_deadline = 0;  // Attempt-bounded unless a test opts in.
  return options;
}

TEST(ReliableDeliveryTest, DeliversImmediatelyWhenHealthy) {
  ManualClock clock;
  ScriptedSink sink;
  ReliableDeliveryQueue queue(&clock, NoJitterOptions());
  queue.AddSink(&sink, "edge");

  EXPECT_TRUE(queue.SendInvalidation(Eject("/p1"), "k1").ok());
  EXPECT_EQ(sink.delivered, std::vector<std::string>{"k1"});
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.stats().delivered_first_try, 1u);
  EXPECT_EQ(queue.stats().retries, 0u);
  EXPECT_FALSE(queue.NextRetryAt().has_value());
}

TEST(ReliableDeliveryTest, RetriesWithExponentialBackoff) {
  ManualClock clock;
  ScriptedSink sink;
  sink.fail_next = 3;
  ReliableDeliveryQueue queue(&clock, NoJitterOptions());
  queue.AddSink(&sink, "edge");

  queue.SendInvalidation(Eject("/p1"), "k1");  // Attempt 1 fails at t=0.
  EXPECT_EQ(sink.attempts, 1);
  EXPECT_EQ(queue.pending(), 1u);
  ASSERT_TRUE(queue.NextRetryAt().has_value());
  EXPECT_EQ(*queue.NextRetryAt(), 100 * kMicrosPerMilli);

  // Before the backoff elapses, pumping must not retry.
  clock.Advance(50 * kMicrosPerMilli);
  EXPECT_EQ(queue.Pump(), 0u);
  EXPECT_EQ(sink.attempts, 1);

  clock.SetTime(100 * kMicrosPerMilli);  // Attempt 2 fails.
  EXPECT_EQ(queue.Pump(), 0u);
  EXPECT_EQ(sink.attempts, 2);
  EXPECT_EQ(*queue.NextRetryAt(), 300 * kMicrosPerMilli);  // +200ms.

  clock.SetTime(300 * kMicrosPerMilli);  // Attempt 3 fails.
  EXPECT_EQ(queue.Pump(), 0u);
  EXPECT_EQ(*queue.NextRetryAt(), 700 * kMicrosPerMilli);  // +400ms.

  clock.SetTime(700 * kMicrosPerMilli);  // Attempt 4 succeeds.
  EXPECT_EQ(queue.Pump(), 1u);
  EXPECT_EQ(sink.delivered, std::vector<std::string>{"k1"});
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.stats().retries, 3u);
  EXPECT_EQ(queue.stats().delivered, 1u);
  EXPECT_EQ(queue.stats().delivered_first_try, 0u);
}

TEST(ReliableDeliveryTest, BackoffIsCappedAtMaxBackoff) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_backoff = 300 * kMicrosPerMilli;
  options.max_attempts = 100;
  ReliableDeliveryQueue queue(&clock, options);
  queue.AddSink(&sink, "edge");

  queue.SendInvalidation(Eject("/p1"), "k1");
  // Walk a few retries; after the cap the gap stays at max_backoff.
  Micros prev = 0;
  for (int i = 0; i < 6; ++i) {
    Micros next = *queue.NextRetryAt();
    EXPECT_LE(next - prev, 300 * kMicrosPerMilli + 1);
    prev = clock.NowMicros();
    clock.SetTime(next);
    queue.Pump();
    prev = next;
  }
  EXPECT_EQ(*queue.NextRetryAt() - prev, 300 * kMicrosPerMilli);
}

TEST(ReliableDeliveryTest, JitterIsDeterministicPerSeed) {
  DeliveryOptions options = NoJitterOptions();
  options.jitter_fraction = 0.3;
  options.jitter_seed = 1234;

  auto schedule = [&options]() {
    ManualClock clock;
    ScriptedSink sink;
    sink.always_fail = true;
    ReliableDeliveryQueue queue(&clock, options);
    queue.AddSink(&sink, "edge");
    queue.SendInvalidation(Eject("/p1"), "k1");
    std::vector<Micros> retries;
    for (int i = 0; i < 5; ++i) {
      retries.push_back(*queue.NextRetryAt());
      clock.SetTime(retries.back());
      queue.Pump();
    }
    return retries;
  };

  std::vector<Micros> first = schedule();
  std::vector<Micros> second = schedule();
  EXPECT_EQ(first, second);  // Same seed: identical schedule.
  // And the jitter actually perturbs the deterministic base schedule.
  EXPECT_NE(first[0], 100 * kMicrosPerMilli);
}

TEST(ReliableDeliveryTest, PerSinkFifoOrderSurvivesRetries) {
  ManualClock clock;
  ScriptedSink sink;
  sink.fail_next = 5;
  ReliableDeliveryQueue queue(&clock, NoJitterOptions());
  queue.AddSink(&sink, "edge");

  queue.SendInvalidation(Eject("/p1"), "k1");
  queue.SendInvalidation(Eject("/p2"), "k2");
  queue.SendInvalidation(Eject("/p3"), "k3");
  EXPECT_EQ(queue.pending(), 3u);

  EXPECT_EQ(queue.DrainWith(&clock), 3u);
  EXPECT_EQ(sink.delivered, (std::vector<std::string>{"k1", "k2", "k3"}));
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(ReliableDeliveryTest, IndependentSinksDoNotShareFate) {
  ManualClock clock;
  ScriptedSink healthy, flaky;
  flaky.fail_next = 2;
  ReliableDeliveryQueue queue(&clock, NoJitterOptions());
  queue.AddSink(&healthy, "healthy");
  queue.AddSink(&flaky, "flaky");

  queue.SendInvalidation(Eject("/p1"), "k1");
  // The healthy sink is done immediately; only the flaky one queues.
  EXPECT_EQ(healthy.delivered, std::vector<std::string>{"k1"});
  EXPECT_EQ(queue.pending_for("healthy"), 0u);
  EXPECT_EQ(queue.pending_for("flaky"), 1u);

  queue.DrainWith(&clock);
  EXPECT_EQ(flaky.delivered, std::vector<std::string>{"k1"});
  EXPECT_EQ(healthy.attempts, 1);  // Never retried against the healthy sink.
}

TEST(ReliableDeliveryTest, ExhaustedAttemptsFlushTheSink) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 3;
  ReliableDeliveryQueue queue(&clock, options);
  int flushes = 0;
  queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });

  queue.SendInvalidation(Eject("/p1"), "k1");
  queue.SendInvalidation(Eject("/p2"), "k2");
  EXPECT_EQ(queue.DrainWith(&clock), 0u);

  // The head message burned its 3 attempts; escalation flushed the cache
  // wholesale and dead-lettered the rest of the backlog.
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.stats().escalations, 1u);
  EXPECT_EQ(queue.stats().dead_lettered, 2u);
  EXPECT_FALSE(queue.IsQuarantined("edge"));

  // A flushed sink keeps receiving future messages once it heals.
  sink.always_fail = false;
  queue.SendInvalidation(Eject("/p3"), "k3");
  EXPECT_EQ(sink.delivered, std::vector<std::string>{"k3"});
}

TEST(ReliableDeliveryTest, EscalationQuarantinesWithoutFlushFn) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 2;
  ReliableDeliveryQueue queue(&clock, options);
  queue.AddSink(&sink, "edge");  // kFlush but no flush callback.

  queue.SendInvalidation(Eject("/p1"), "k1");
  queue.DrainWith(&clock);
  EXPECT_TRUE(queue.IsQuarantined("edge"));

  // Messages to a quarantined sink are dead-lettered, not attempted.
  int attempts_before = sink.attempts;
  queue.SendInvalidation(Eject("/p2"), "k2");
  EXPECT_EQ(sink.attempts, attempts_before);
  EXPECT_EQ(queue.pending(), 0u);

  // Reinstating resumes delivery.
  sink.always_fail = false;
  queue.Reinstate("edge");
  queue.SendInvalidation(Eject("/p3"), "k3");
  EXPECT_EQ(sink.delivered, std::vector<std::string>{"k3"});
}

TEST(ReliableDeliveryTest, QuarantinePolicyNeverCallsFlush) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 2;
  options.escalation = DeliveryOptions::Escalation::kQuarantine;
  ReliableDeliveryQueue queue(&clock, options);
  int flushes = 0;
  queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });

  queue.SendInvalidation(Eject("/p1"), "k1");
  queue.DrainWith(&clock);
  EXPECT_EQ(flushes, 0);
  EXPECT_TRUE(queue.IsQuarantined("edge"));
}

TEST(ReliableDeliveryTest, DeadlineDeadLettersWithAttemptsRemaining) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 100;
  options.initial_backoff = 400 * kMicrosPerMilli;
  options.delivery_deadline = kMicrosPerSecond;
  ReliableDeliveryQueue queue(&clock, options);
  queue.AddSink(&sink, "edge");

  queue.SendInvalidation(Eject("/p1"), "k1");
  queue.DrainWith(&clock);
  // Attempts at t=0, 400ms, 1200ms; the third fails past the 1s deadline
  // and escalates long before the 100-attempt budget.
  EXPECT_EQ(sink.attempts, 3);
  EXPECT_EQ(queue.stats().escalations, 1u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(ReliableDeliveryTest, CheckpointRestoresPendingMessages) {
  ManualClock clock_a;
  ScriptedSink sink_a;
  sink_a.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 10;
  ReliableDeliveryQueue queue_a(&clock_a, options);
  queue_a.AddSink(&sink_a, "edge");

  http::HttpRequest eject = Eject("/p1?id=7");
  queue_a.SendInvalidation(eject, "k1");
  queue_a.SendInvalidation(Eject("/p2"), "k2");
  ASSERT_EQ(queue_a.pending(), 2u);
  std::string state = queue_a.CheckpointState();

  // "Restart": a fresh queue over a fresh clock and a healthy sink
  // registered under the same name.
  ManualClock clock_b;
  clock_b.SetTime(5 * kMicrosPerSecond);
  ScriptedSink sink_b;
  ReliableDeliveryQueue queue_b(&clock_b, options);
  queue_b.AddSink(&sink_b, "edge");
  ASSERT_TRUE(queue_b.RestoreState(state).ok());
  EXPECT_EQ(queue_b.pending_for("edge"), 2u);

  EXPECT_EQ(queue_b.Pump(), 2u);
  EXPECT_EQ(sink_b.delivered, (std::vector<std::string>{"k1", "k2"}));
  // The restored message is the original eject, not a husk: headers and
  // parameters survived the round trip.
  EXPECT_EQ(sink_b.last_message.headers.Get("Cache-Control"), "eject");
}

TEST(ReliableDeliveryTest, CheckpointPreservesQuarantine) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 1;
  options.escalation = DeliveryOptions::Escalation::kQuarantine;
  ReliableDeliveryQueue queue(&clock, options);
  queue.AddSink(&sink, "edge");
  queue.SendInvalidation(Eject("/p1"), "k1");
  ASSERT_TRUE(queue.IsQuarantined("edge"));

  ReliableDeliveryQueue restored(&clock, options);
  ScriptedSink sink2;
  restored.AddSink(&sink2, "edge");
  ASSERT_TRUE(restored.RestoreState(queue.CheckpointState()).ok());
  EXPECT_TRUE(restored.IsQuarantined("edge"));
}

TEST(ReliableDeliveryTest, RestoreRejectsUnknownSink) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  ReliableDeliveryQueue queue(&clock, NoJitterOptions());
  queue.AddSink(&sink, "edge");
  queue.SendInvalidation(Eject("/p1"), "k1");
  std::string state = queue.CheckpointState();

  ReliableDeliveryQueue other(&clock, NoJitterOptions());
  other.AddSink(&sink, "differently-named");
  EXPECT_TRUE(other.RestoreState(state).IsInvalidArgument());
}

/// Regression: RestoreState used to clear a sink's queue and overwrite
/// its flags as soon as it reached that sink's record, so a corrupt
/// record further on returned ParseError with the pending ejects already
/// gone — and a dropped eject is a stale page. A failed restore must
/// leave every sink exactly as it was.
TEST(ReliableDeliveryTest, FailedRestoreLeavesTheQueueUntouched) {
  ManualClock clock;
  ScriptedSink down;
  down.always_fail = true;
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 10;
  ReliableDeliveryQueue queue(&clock, options);
  queue.AddSink(&down, "edge-a");
  queue.AddSink(&down, "edge-b");
  queue.SendInvalidation(Eject("/p1"), "k1");
  queue.SendInvalidation(Eject("/p2"), "k2");
  ASSERT_EQ(queue.pending(), 4u);
  const std::string before = queue.CheckpointState();

  // A blob for the same sinks whose second sink's last message is not an
  // HTTP request: everything before it decodes cleanly.
  ReliableDeliveryQueue source(&clock, options);
  source.AddSink(&down, "edge-a");
  source.AddSink(&down, "edge-b");
  source.SendInvalidation(Eject("/other"), "k9");
  std::string corrupt = source.CheckpointState();
  const std::string wire = Eject("/other").Serialize();
  size_t at = corrupt.rfind(wire);
  ASSERT_NE(at, std::string::npos);
  ASSERT_GT(at, corrupt.find("edge-b"));
  corrupt.replace(at, wire.size(), std::string(wire.size(), 'X'));

  Status status = queue.RestoreState(corrupt);
  EXPECT_TRUE(status.IsParseError()) << status.ToString();
  EXPECT_EQ(queue.CheckpointState(), before);
  EXPECT_EQ(queue.pending_for("edge-a"), 2u);
  EXPECT_EQ(queue.pending_for("edge-b"), 2u);
}

DeliveryOptions BreakerOptions() {
  DeliveryOptions options = NoJitterOptions();
  options.max_attempts = 100;  // Breaker trips long before escalation.
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown = kMicrosPerSecond;
  return options;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndDeadLettersBacklog) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  ReliableDeliveryQueue queue(&clock, BreakerOptions());
  int flushes = 0;
  queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });

  queue.SendInvalidation(Eject("/p1"), "k1");  // Failure 1.
  queue.SendInvalidation(Eject("/p2"), "k2");  // Queued behind the head.
  EXPECT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kClosed);

  // Failures 2 and 3 via retries trip the breaker; the backlog is
  // dead-lettered, but the flush waits for recovery (the sink is down).
  clock.Advance(kMicrosPerSecond);
  queue.Pump();  // Failure 2 (k1 retry).
  clock.Advance(kMicrosPerSecond);
  queue.Pump();  // Failure 3: trip.
  EXPECT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kOpen);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.stats().breaker_opens, 1u);
  EXPECT_EQ(queue.stats().dead_lettered, 2u);  // k1 and the queued k2.
  EXPECT_EQ(flushes, 0);

  // While open: refused without an attempt.
  int attempts_before = sink.attempts;
  queue.SendInvalidation(Eject("/p3"), "k3");
  EXPECT_EQ(sink.attempts, attempts_before);
  EXPECT_EQ(queue.stats().breaker_rejections, 1u);
  EXPECT_FALSE(queue.NextRetryAt().has_value());
}

TEST(CircuitBreakerTest, HalfOpenProbeRecoversWithFlush) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  ReliableDeliveryQueue queue(&clock, BreakerOptions());
  int flushes = 0;
  queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });

  // One message, drained: 3 consecutive failed attempts trip the
  // breaker long before the 100-attempt escalation budget.
  queue.SendInvalidation(Eject("/p"), "k");
  queue.DrainWith(&clock);
  ASSERT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kOpen);

  // Cooldown elapses: observers see half-open before any message.
  clock.Advance(kMicrosPerSecond);
  EXPECT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kHalfOpen);

  // Successful probe closes the breaker AND flushes: ejects k (and the
  // rejected arrivals) were dropped while open, so the cache starts
  // clean rather than risking a stale page.
  sink.always_fail = false;
  queue.SendInvalidation(Eject("/p9"), "k9");
  EXPECT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kClosed);
  EXPECT_EQ(queue.stats().breaker_probes, 1u);
  EXPECT_EQ(queue.stats().breaker_recoveries, 1u);
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(sink.delivered, std::vector<std::string>{"k9"});

  // Healthy again: no second flush on the next message.
  queue.SendInvalidation(Eject("/p10"), "k10");
  EXPECT_EQ(flushes, 1);
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  ReliableDeliveryQueue queue(&clock, BreakerOptions());
  int flushes = 0;
  queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });

  // One message, drained: 3 consecutive failed attempts trip the
  // breaker long before the 100-attempt escalation budget.
  queue.SendInvalidation(Eject("/p"), "k");
  queue.DrainWith(&clock);
  clock.Advance(kMicrosPerSecond);
  uint64_t dead_before = queue.stats().dead_lettered;
  queue.SendInvalidation(Eject("/probe"), "kp");  // Probe fails.
  EXPECT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kOpen);
  EXPECT_EQ(queue.stats().breaker_probes, 1u);
  EXPECT_EQ(queue.stats().breaker_recoveries, 0u);
  EXPECT_EQ(queue.stats().dead_lettered, dead_before + 1);  // The probe.
  EXPECT_EQ(flushes, 0);

  // Half a cooldown is not enough; a full one re-arms the probe.
  clock.Advance(kMicrosPerSecond / 2);
  EXPECT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kOpen);
  clock.Advance(kMicrosPerSecond / 2);
  sink.always_fail = false;
  queue.SendInvalidation(Eject("/p2"), "k2");
  EXPECT_EQ(queue.stats().breaker_recoveries, 1u);
  EXPECT_EQ(flushes, 1);
}

TEST(CircuitBreakerTest, NoFlushChannelQuarantinesOnTrip) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  ReliableDeliveryQueue queue(&clock, BreakerOptions());
  queue.AddSink(&sink, "edge");  // No flush callback.

  // One message, drained: 3 consecutive failed attempts trip the
  // breaker long before the 100-attempt escalation budget.
  queue.SendInvalidation(Eject("/p"), "k");
  queue.DrainWith(&clock);
  // Dropped ejects can never be compensated: quarantined immediately.
  EXPECT_TRUE(queue.IsQuarantined("edge"));
  EXPECT_EQ(queue.stats().escalations, 1u);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  ManualClock clock;
  ScriptedSink sink;
  ReliableDeliveryQueue queue(&clock, BreakerOptions());
  queue.AddSink(&sink, "edge", [] {});

  // 2 failures, success, 2 failures: never 3 consecutive, never trips.
  for (int round = 0; round < 2; ++round) {
    sink.fail_next = 2;
    queue.SendInvalidation(Eject("/p"), "k");
    queue.DrainWith(&clock);
  }
  EXPECT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kClosed);
  EXPECT_EQ(queue.stats().breaker_opens, 0u);
  EXPECT_EQ(queue.stats().delivered, 2u);
}

TEST(CircuitBreakerTest, BreakerStateSurvivesCheckpointRestore) {
  ManualClock clock;
  ScriptedSink sink;
  sink.always_fail = true;
  ReliableDeliveryQueue queue(&clock, BreakerOptions());
  int flushes = 0;
  queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });
  // One message, drained: 3 consecutive failed attempts trip the
  // breaker long before the 100-attempt escalation budget.
  queue.SendInvalidation(Eject("/p"), "k");
  queue.DrainWith(&clock);
  ASSERT_EQ(queue.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kOpen);
  std::string state = queue.CheckpointState();

  // Restart long after the trip: the restored breaker is still open and
  // restarts a FULL cooldown on the new clock (the outage's age did not
  // survive the crash, so assume the worst).
  ManualClock clock_b;
  clock_b.SetTime(60 * kMicrosPerSecond);
  ScriptedSink sink_b;
  ReliableDeliveryQueue restored(&clock_b, BreakerOptions());
  int flushes_b = 0;
  restored.AddSink(&sink_b, "edge", [&flushes_b] { ++flushes_b; });
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kOpen);

  // The pending recovery flush is durable: after cooldown, a successful
  // probe still flushes, covering ejects dropped before the crash.
  clock_b.Advance(kMicrosPerSecond);
  restored.SendInvalidation(Eject("/p9"), "k9");
  EXPECT_EQ(restored.breaker_state("edge"),
            ReliableDeliveryQueue::BreakerState::kClosed);
  EXPECT_EQ(flushes_b, 1);
  EXPECT_EQ(sink_b.delivered, std::vector<std::string>{"k9"});
}

/// Sink that fails with a fixed status until `fail_next` runs out.
class StatusSink : public invalidator::InvalidationSink {
 public:
  explicit StatusSink(Status failure) : failure_(std::move(failure)) {}

  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    ++attempts;
    if (fail_next > 0) {
      --fail_next;
      return failure_;
    }
    delivered.push_back(cache_key);
    return Status::OK();
  }

  int fail_next = 0;
  int attempts = 0;
  std::vector<std::string> delivered;

 private:
  Status failure_;
};

TEST(DeliveryTaxonomyTest, FatalStatusDeadLettersWithoutRetries) {
  // A protocol version mismatch fails identically forever: the queue
  // must not burn its attempt budget, and MUST escalate — an
  // undeliverable eject means the cache may be serving the stale page.
  for (Status fatal :
       {Status::NotSupported("wire protocol: version mismatch"),
        Status::ParseError("corrupt frame from server"),
        Status::InvalidArgument("malformed eject")}) {
    ManualClock clock;
    StatusSink sink(fatal);
    sink.fail_next = 1000;
    int flushes = 0;
    ReliableDeliveryQueue queue(&clock, NoJitterOptions());
    queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });

    queue.SendInvalidation(Eject("/p1"), "k1");
    EXPECT_EQ(sink.attempts, 1) << fatal.ToString();  // No retries.
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.stats().dead_lettered, 1u);
    EXPECT_EQ(queue.stats().fatal_dead_letters, 1u);
    EXPECT_EQ(queue.stats().escalations, 1u);
    EXPECT_EQ(flushes, 1);
    EXPECT_FALSE(queue.NextRetryAt().has_value());
  }
}

TEST(DeliveryTaxonomyTest, RetryableStatusesEarnTheFullBudget) {
  // kUnavailable (the wire's transient code) and kInternal (legacy
  // sinks') both retry to eventual success.
  for (Status transient : {Status::Unavailable("connection reset"),
                           Status::Internal("scripted failure")}) {
    ManualClock clock;
    StatusSink sink(transient);
    sink.fail_next = 3;
    ReliableDeliveryQueue queue(&clock, NoJitterOptions());
    queue.AddSink(&sink, "edge");

    queue.SendInvalidation(Eject("/p1"), "k1");
    queue.DrainWith(&clock);
    EXPECT_EQ(sink.delivered, std::vector<std::string>{"k1"})
        << transient.ToString();
    EXPECT_EQ(sink.attempts, 4);
    EXPECT_EQ(queue.stats().dead_lettered, 0u);
    EXPECT_EQ(queue.stats().fatal_dead_letters, 0u);
  }
}

TEST(DeliveryTaxonomyTest, EveryFatalMessageDiesOnArrival) {
  // While the sink keeps returning a fatal status, every message is
  // dead-lettered on its first (and only) attempt, each with its own
  // escalation — no backlog ever forms behind a broken protocol.
  ManualClock clock;
  StatusSink sink(Status::NotSupported("version mismatch"));
  sink.fail_next = 1000;
  int flushes = 0;
  ReliableDeliveryQueue queue(&clock, NoJitterOptions());
  queue.AddSink(&sink, "edge", [&flushes] { ++flushes; });

  queue.SendInvalidation(Eject("/p1"), "k1");
  queue.SendInvalidation(Eject("/p2"), "k2");
  EXPECT_EQ(sink.attempts, 2);
  EXPECT_EQ(queue.stats().dead_lettered, 2u);
  EXPECT_EQ(queue.stats().fatal_dead_letters, 2u);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(flushes, 2);
}

TEST(DeliveryTaxonomyTest, HealthReportCountsFatalDeadLetters) {
  ManualClock clock;
  StatusSink sink(Status::ParseError("corrupt frame"));
  sink.fail_next = 1000;
  ReliableDeliveryQueue queue(&clock, NoJitterOptions());
  queue.AddSink(&sink, "edge", [] {});
  queue.SendInvalidation(Eject("/p1"), "k1");
  std::string report = queue.HealthReport();
  EXPECT_NE(report.find("fatal-dead-letters=1"), std::string::npos)
      << report;
}

TEST(CircuitBreakerTest, HealthReportNamesSinkStates) {
  ManualClock clock;
  ScriptedSink healthy, down;
  down.always_fail = true;
  ReliableDeliveryQueue queue(&clock, BreakerOptions());
  queue.AddSink(&healthy, "front", [] {});
  queue.AddSink(&down, "edge", [] {});
  // One message, drained: 3 consecutive failed attempts trip the
  // breaker long before the 100-attempt escalation budget.
  queue.SendInvalidation(Eject("/p"), "k");
  queue.DrainWith(&clock);
  std::string report = queue.HealthReport();
  EXPECT_NE(report.find("front=closed"), std::string::npos) << report;
  EXPECT_NE(report.find("edge=open"), std::string::npos) << report;
  EXPECT_NE(report.find("breaker-opens=1"), std::string::npos) << report;
}

}  // namespace
}  // namespace cacheportal::core
