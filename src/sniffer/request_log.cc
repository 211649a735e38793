#include "sniffer/request_log.h"

#include <algorithm>
#include <cstddef>

namespace cacheportal::sniffer {

uint64_t RequestLog::Open(const std::string& servlet_name,
                          const std::string& request_string,
                          const std::string& cookie_string,
                          const std::string& post_string,
                          const std::string& page_key, Micros receive_time) {
  RequestLogEntry entry;
  entry.id = next_id_++;
  entry.servlet_name = servlet_name;
  entry.request_string = request_string;
  entry.cookie_string = cookie_string;
  entry.post_string = post_string;
  entry.page_key = page_key;
  entry.receive_time = receive_time;
  entries_.push_back(std::move(entry));
  return entries_.back().id;
}

void RequestLog::Close(uint64_t id, Micros delivery_time) {
  if (id <= base_ || id - base_ > entries_.size()) return;
  entries_[id - base_ - 1].delivery_time = delivery_time;
}

std::vector<RequestLogEntry> RequestLog::ReadSince(uint64_t after_id) const {
  std::vector<RequestLogEntry> out;
  uint64_t skip = after_id > base_ ? after_id - base_ : 0;
  if (skip >= entries_.size()) return out;
  out.assign(entries_.begin() + static_cast<ptrdiff_t>(skip), entries_.end());
  return out;
}

void RequestLog::TrimThrough(uint64_t id) {
  if (id <= base_) return;
  uint64_t drop = std::min<uint64_t>(id - base_, entries_.size());
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<ptrdiff_t>(drop));
  base_ += drop;
}

}  // namespace cacheportal::sniffer
