#ifndef CACHEPORTAL_SNIFFER_MAPPER_H_
#define CACHEPORTAL_SNIFFER_MAPPER_H_

#include <cstdint>
#include <optional>
#include <set>

#include "sniffer/qiurl_map.h"
#include "sniffer/query_log.h"
#include "sniffer/request_log.h"

namespace cacheportal::sniffer {

/// The request-to-query mapper (Section 3.3): joins the request log and
/// the query log on time intervals. For every completed request interval
/// [receive, delivery], each SELECT whose own [receive, delivery] interval
/// falls inside it is recorded as a (query instance, URL) pair in the
/// QI/URL map.
///
/// Note the inherent approximation the paper accepts: when requests
/// overlap in time, a query may be attributed to several requests. That
/// errs toward over-invalidation, never staleness.
///
/// The mapper trims both logs behind it, so they hold only what a later
/// Run can still read: request entries at or past the first unprocessed
/// one, and query entries received no earlier than the earliest request
/// a later Run can map. Requests are logged at receive time from one
/// clock, so a request not yet opened arrives no earlier than the newest
/// one seen.
class RequestToQueryMapper {
 public:
  /// None of the pointers are owned.
  RequestToQueryMapper(RequestLog* request_log, QueryLog* query_log,
                       QiUrlMap* map)
      : request_log_(request_log), query_log_(query_log), map_(map) {}

  /// Processes newly completed requests, then trims both logs; returns
  /// how many (query, page) pairs were added to the map. Idempotent per
  /// request.
  size_t Run();

  /// Requests processed so far.
  uint64_t requests_processed() const { return cursor_ + processed_.size(); }

 private:
  RequestLog* request_log_;
  QueryLog* query_log_;
  QiUrlMap* map_;
  // Every request with id <= `cursor_` is processed (and trimmed); Run
  // starts past it, so a cycle touches only the log's tail. Entries
  // beyond it that completed before an earlier in-flight one are held in
  // `processed_` until the cursor passes them.
  uint64_t cursor_ = 0;
  std::set<uint64_t> processed_;
  // Receive time of the newest request seen; unset before the first.
  std::optional<Micros> newest_receive_;
};

}  // namespace cacheportal::sniffer

#endif  // CACHEPORTAL_SNIFFER_MAPPER_H_
