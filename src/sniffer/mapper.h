#ifndef CACHEPORTAL_SNIFFER_MAPPER_H_
#define CACHEPORTAL_SNIFFER_MAPPER_H_

#include <cstdint>
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
class RequestToQueryMapper {
 public:
  /// None of the pointers are owned.
  RequestToQueryMapper(const RequestLog* request_log,
                       const QueryLog* query_log, QiUrlMap* map)
      : request_log_(request_log), query_log_(query_log), map_(map) {}

  /// Processes newly completed requests; returns how many (query, page)
  /// pairs were added to the map. Idempotent per request.
  size_t Run();

  /// Requests processed so far.
  uint64_t requests_processed() const { return cursor_ + processed_.size(); }

 private:
  const RequestLog* request_log_;
  const QueryLog* query_log_;
  QiUrlMap* map_;
  // Every log entry before position `cursor_` is processed; Run starts
  // there, so a cycle touches only the log's tail. Entries past it that
  // completed before an earlier in-flight one are held in `processed_`
  // until the cursor passes them.
  size_t cursor_ = 0;
  std::set<uint64_t> processed_;
};

}  // namespace cacheportal::sniffer

#endif  // CACHEPORTAL_SNIFFER_MAPPER_H_
