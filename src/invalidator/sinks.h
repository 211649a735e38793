#ifndef CACHEPORTAL_INVALIDATOR_SINKS_H_
#define CACHEPORTAL_INVALIDATOR_SINKS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "http/message.h"

namespace cacheportal::invalidator {

/// Receives the invalidation messages the invalidator generates
/// (Section 4.2.4). The message is a normal HTTP request carrying
/// `Cache-Control: eject`; `cache_key` is the addressed page's canonical
/// identity. core::PageCacheSink adapts a cache::PageCache.
///
/// Delivery contract: ejects are idempotent (re-ejecting an absent page
/// is a no-op), so a failed SendInvalidation may be retried safely —
/// core::ReliableDeliveryQueue builds at-least-once delivery on exactly
/// this property. A non-OK return means the message may not have reached
/// the cache; the caller must retry or escalate, never ignore it.
///
/// Threading contract: with InvalidatorOptions::worker_threads > 1 the
/// invalidator calls each sink from a pool thread, but never calls the
/// SAME sink from two threads at once, and messages reach each sink in
/// the same order as the serial pipeline would send them. Sinks need no
/// internal locking unless they share mutable state with one another.
class InvalidationSink {
 public:
  virtual ~InvalidationSink() = default;

  virtual Status SendInvalidation(const http::HttpRequest& eject_message,
                                  const std::string& cache_key) = 0;
};

/// One entry of a batch send: borrowed pointers into the caller's
/// pending messages (valid for the duration of the call only).
struct BatchItem {
  const http::HttpRequest* eject_message = nullptr;
  const std::string* cache_key = nullptr;
};

/// What a batch send achieved. The sink confirmed the first `confirmed`
/// items (in call order) — each with the same "acked downstream"
/// meaning as a successful SendInvalidation — and `status` explains the
/// first unconfirmed one (it is ignored when everything confirmed). The
/// retryable-vs-fatal taxonomy is unchanged: kUnavailable earns the
/// remainder a retry, kNotSupported/kParseError/kInvalidArgument
/// dead-letter it.
struct BatchSendResult {
  size_t confirmed = 0;
  Status status = Status::OK();
};

/// Optional capability of an InvalidationSink: amortized delivery of
/// many ejects per transport operation (e.g. the pipelined invalidation
/// wire's EJECT_BATCH frames). core::ReliableDeliveryQueue discovers it
/// by dynamic_cast and, when BatchingEnabled(), drains up to batch_max
/// queued messages per flush through SendInvalidationBatch instead of
/// one SendInvalidation at a time. Items arrive in the sink's FIFO
/// order; a partial confirmation MUST be a prefix (the queue requeues
/// the unconfirmed suffix in order, preserving per-sink FIFO).
class BatchInvalidationSink {
 public:
  virtual ~BatchInvalidationSink() = default;

  virtual BatchSendResult SendInvalidationBatch(
      const std::vector<BatchItem>& items) = 0;

  /// Lets an adapter implement the interface unconditionally but opt in
  /// per instance (e.g. only when constructed with a batch transport).
  virtual bool BatchingEnabled() const { return true; }
};

/// Optional capability of an InvalidationSink: delivery health the
/// invalidator can observe. The overload controller reads PendingBacklog
/// as an overload signal, and StatsReport() embeds HealthReport so
/// delivery health is visible where operators already look.
class ObservableSink {
 public:
  virtual ~ObservableSink() = default;

  /// Un-acked (message, sink) pairs the sink still owes downstream.
  virtual size_t PendingBacklog() const = 0;

  /// One diagnostic line (no trailing newline).
  virtual std::string HealthReport() const = 0;
};

/// Optional capability of an InvalidationSink: state that must survive a
/// process restart (e.g. a delivery queue's un-acked messages).
/// Invalidator::Checkpoint embeds each capable sink's state and
/// Invalidator::Restore hands it back, matched by AddSink order.
class CheckpointableSink {
 public:
  virtual ~CheckpointableSink() = default;

  /// Serializes the sink's durable state (opaque bytes).
  virtual std::string CheckpointState() const = 0;

  /// Rebuilds state from CheckpointState() output. A state that fails to
  /// decode must leave the sink untouched.
  virtual Status RestoreState(std::string_view state) = 0;
};

}  // namespace cacheportal::invalidator

#endif  // CACHEPORTAL_INVALIDATOR_SINKS_H_
