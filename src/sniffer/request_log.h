#ifndef CACHEPORTAL_SNIFFER_REQUEST_LOG_H_
#define CACHEPORTAL_SNIFFER_REQUEST_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "http/url.h"

namespace cacheportal::sniffer {

/// One record of the HTTP request/delivery log (Section 3.1): a unique
/// ID, the request string (page name + GET parameters), the cookie and
/// POST strings, and receive/delivery timestamps. `page_key` is the
/// page's cache identity after narrowing to the servlet's key parameters.
struct RequestLogEntry {
  uint64_t id = 0;
  std::string servlet_name;
  std::string request_string;  // "/path?get_params"
  std::string cookie_string;
  std::string post_string;
  std::string page_key;  // Canonical cache key (http::PageId::CacheKey()).
  Micros receive_time = 0;
  Micros delivery_time = -1;  // -1 while in flight.

  bool completed() const { return delivery_time >= 0; }
};

/// Request log written by the request logger and consumed by the
/// request-to-query mapper, which trims the entries it has mapped. Ids
/// are dense, 1-based and never reused: trimming moves the id base, so
/// Close and ReadSince keep taking the ids Open returned.
class RequestLog {
 public:
  RequestLog() = default;

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  /// Opens an entry at receive time; returns its ID.
  uint64_t Open(const std::string& servlet_name,
                const std::string& request_string,
                const std::string& cookie_string,
                const std::string& post_string, const std::string& page_key,
                Micros receive_time);

  /// Completes the entry with its delivery timestamp. A trimmed id is
  /// ignored.
  void Close(uint64_t id, Micros delivery_time);

  /// The retained entries, oldest first; entry i has id base() + i + 1.
  const std::vector<RequestLogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// Entries ever opened, trimmed ones included.
  uint64_t lifetime_size() const { return next_id_ - 1; }

  /// Every id <= base() has been trimmed.
  uint64_t base() const { return base_; }

  /// Retained entries with id > `after_id` (for incremental consumption).
  std::vector<RequestLogEntry> ReadSince(uint64_t after_id) const;

  /// Drops every entry with id <= `id`.
  void TrimThrough(uint64_t id);

 private:
  std::vector<RequestLogEntry> entries_;
  uint64_t base_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace cacheportal::sniffer

#endif  // CACHEPORTAL_SNIFFER_REQUEST_LOG_H_
