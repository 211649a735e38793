#include "sniffer/mapper.h"

#include <algorithm>

namespace cacheportal::sniffer {

size_t RequestToQueryMapper::Run() {
  size_t added = 0;
  const auto& queries = query_log_->entries();
  const auto& requests = request_log_->entries();
  // Entry i has id base + i + 1. Only the mapper trims, so the cursor's
  // entry is still retained; entries trimmed by anyone else are gone
  // unmapped.
  const uint64_t base = request_log_->base();
  cursor_ = std::max(cursor_, base);
  for (size_t i = cursor_ - base; i < requests.size(); ++i) {
    const RequestLogEntry& request = requests[i];
    // At or below the cursor: held entries the cursor just swept past.
    if (request.id <= cursor_ || !request.completed()) continue;
    if (request.id > cursor_ + 1 && !processed_.insert(request.id).second) {
      continue;
    }

    // Query log entries are appended in receive-time order; binary-search
    // the first candidate.
    auto begin = std::lower_bound(
        queries.begin(), queries.end(), request.receive_time,
        [](const QueryLogEntry& q, Micros t) { return q.receive_time < t; });
    for (auto it = begin; it != queries.end(); ++it) {
      if (it->receive_time > request.delivery_time) break;
      if (!it->is_select) continue;
      if (it->delivery_time > request.delivery_time) continue;
      uint64_t before = map_->size();
      map_->Add(it->sql, request.page_key, request.request_string,
                request.delivery_time);
      if (map_->size() > before) ++added;
    }
    if (request.id == cursor_ + 1) {
      do {
        ++cursor_;
      } while (cursor_ - base < requests.size() &&
               processed_.erase(requests[cursor_ - base].id) > 0);
    }
  }

  // A later Run maps only the requests past the cursor that are not
  // held, and requests not opened yet; none of them was received before
  // `horizon`, and a query matches only requests received no later than
  // it was.
  if (!requests.empty()) newest_receive_ = requests.back().receive_time;
  if (newest_receive_.has_value()) {
    Micros horizon = *newest_receive_;
    for (size_t i = cursor_ - base; i < requests.size(); ++i) {
      if (!processed_.contains(requests[i].id)) {
        horizon = std::min(horizon, requests[i].receive_time);
      }
    }
    query_log_->TrimBefore(horizon);
  }
  request_log_->TrimThrough(cursor_);
  return added;
}

}  // namespace cacheportal::sniffer
