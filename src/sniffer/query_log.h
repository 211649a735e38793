#ifndef CACHEPORTAL_SNIFFER_QUERY_LOG_H_
#define CACHEPORTAL_SNIFFER_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace cacheportal::sniffer {

/// One record of the query instance request/delivery log (Section 3.2):
/// the query string plus receive and result-delivery timestamps, captured
/// by the JDBC wrapper.
struct QueryLogEntry {
  uint64_t id = 0;
  std::string sql;
  bool is_select = true;
  Micros receive_time = 0;
  Micros delivery_time = 0;
};

/// Query log, appended in receive-time order. The request-to-query mapper
/// trims the entries no later request can be matched with; ids are
/// dense, 1-based and never reused.
class QueryLog {
 public:
  QueryLog() = default;

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends a completed query record; returns its ID.
  uint64_t Append(const std::string& sql, bool is_select, Micros receive_time,
                  Micros delivery_time);

  /// The retained entries, oldest first; entry i has id base() + i + 1.
  const std::vector<QueryLogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// Entries ever appended, trimmed ones included.
  uint64_t lifetime_size() const { return next_id_ - 1; }

  /// Every id <= base() has been trimmed.
  uint64_t base() const { return base_; }

  /// Retained entries with id > `after_id`.
  std::vector<QueryLogEntry> ReadSince(uint64_t after_id) const;

  /// Drops the leading entries received before `receive_time`.
  void TrimBefore(Micros receive_time);

 private:
  std::vector<QueryLogEntry> entries_;
  uint64_t base_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace cacheportal::sniffer

#endif  // CACHEPORTAL_SNIFFER_QUERY_LOG_H_
