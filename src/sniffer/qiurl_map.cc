#include "sniffer/qiurl_map.h"

#include <mutex>
#include <utility>

namespace cacheportal::sniffer {

uint64_t QiUrlMap::Add(const std::string& query_sql,
                       const std::string& page_key,
                       const std::string& request_string, Micros timestamp) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto key = std::make_pair(query_sql, page_key);
  auto it = pair_index_.find(key);
  if (it != pair_index_.end()) {
    // Timestamp refreshes don't bump the epoch: the row set is unchanged
    // and consumers scanning by ID would see nothing new.
    entries_[it->second].timestamp = timestamp;
    return it->second;
  }
  uint64_t id = next_id_++;
  QiUrlEntry entry;
  entry.id = id;
  entry.query_sql = query_sql;
  entry.page_key = page_key;
  entry.request_string = request_string;
  entry.timestamp = timestamp;
  entries_.emplace(id, std::move(entry));
  pair_index_.emplace(std::move(key), id);
  by_query_[query_sql].insert(page_key);
  by_page_[page_key].insert(query_sql);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return id;
}

std::vector<QiUrlEntry> QiUrlMap::ReadSince(uint64_t after_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<QiUrlEntry> out;
  for (auto it = entries_.upper_bound(after_id); it != entries_.end(); ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::vector<std::string> QiUrlMap::PagesForQuery(
    const std::string& query_sql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_query_.find(query_sql);
  if (it == by_query_.end()) return {};
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

size_t QiUrlMap::NumPagesForQuery(const std::string& query_sql) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_query_.find(query_sql);
  return it == by_query_.end() ? 0 : it->second.size();
}

std::vector<std::string> QiUrlMap::QueriesForPage(
    const std::string& page_key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_page_.find(page_key);
  if (it == by_page_.end()) return {};
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

size_t QiUrlMap::RemovePage(const std::string& page_key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_page_.find(page_key);
  if (it == by_page_.end()) return 0;
  size_t removed = 0;
  for (const std::string& query : it->second) {
    auto pair_it = pair_index_.find(std::make_pair(query, page_key));
    if (pair_it != pair_index_.end()) {
      entries_.erase(pair_it->second);
      pair_index_.erase(pair_it);
      ++removed;
    }
    auto q_it = by_query_.find(query);
    if (q_it != by_query_.end()) {
      q_it->second.erase(page_key);
      if (q_it->second.empty()) by_query_.erase(q_it);
    }
  }
  by_page_.erase(it);
  if (removed > 0) {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    removals_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  return removed;
}

size_t QiUrlMap::NumQueries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_query_.size();
}

size_t QiUrlMap::NumPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_page_.size();
}

size_t QiUrlMap::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

uint64_t QiUrlMap::LastId() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return next_id_ - 1;
}

}  // namespace cacheportal::sniffer
