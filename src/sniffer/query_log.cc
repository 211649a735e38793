#include "sniffer/query_log.h"

#include <algorithm>
#include <cstddef>

namespace cacheportal::sniffer {

uint64_t QueryLog::Append(const std::string& sql, bool is_select,
                          Micros receive_time, Micros delivery_time) {
  QueryLogEntry entry;
  entry.id = next_id_++;
  entry.sql = sql;
  entry.is_select = is_select;
  entry.receive_time = receive_time;
  entry.delivery_time = delivery_time;
  entries_.push_back(std::move(entry));
  return entries_.back().id;
}

std::vector<QueryLogEntry> QueryLog::ReadSince(uint64_t after_id) const {
  std::vector<QueryLogEntry> out;
  uint64_t skip = after_id > base_ ? after_id - base_ : 0;
  if (skip >= entries_.size()) return out;
  out.assign(entries_.begin() + static_cast<ptrdiff_t>(skip), entries_.end());
  return out;
}

void QueryLog::TrimBefore(Micros receive_time) {
  auto keep = std::find_if(entries_.begin(), entries_.end(),
                           [&](const QueryLogEntry& entry) {
                             return entry.receive_time >= receive_time;
                           });
  base_ += static_cast<uint64_t>(keep - entries_.begin());
  entries_.erase(entries_.begin(), keep);
}

}  // namespace cacheportal::sniffer
