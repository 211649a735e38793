#include "sniffer/mapper.h"

#include <algorithm>

namespace cacheportal::sniffer {

size_t RequestToQueryMapper::Run() {
  size_t added = 0;
  const auto& queries = query_log_->entries();
  const auto& requests = request_log_->entries();
  for (size_t i = cursor_; i < requests.size(); ++i) {
    const RequestLogEntry& request = requests[i];
    // Below the cursor: held entries the cursor just swept past.
    if (i < cursor_ || !request.completed()) continue;
    if (i > cursor_ && !processed_.insert(request.id).second) continue;

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
    if (i == cursor_) {
      do {
        ++cursor_;
      } while (cursor_ < requests.size() &&
               processed_.erase(requests[cursor_].id) > 0);
    }
  }
  return added;
}

}  // namespace cacheportal::sniffer
