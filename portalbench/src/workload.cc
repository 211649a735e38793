#include "workload.h"

#include <algorithm>
#include <cmath>

namespace portalbench {

namespace {

// The workloads. Pass lengths are chosen so one pass takes about two
// seconds on a 4-core x86 server, leaving several passes per run.
//
// browse: read-mostly. Zipf requests over 600 pages that all fit the
//   default 10,000-page cache; one update per 50 requests, so each cycle
//   touches one table and the heavy (join) pages get polled. Nine updates
//   in ten go to the small table: a LargeT update polls every cached heavy
//   page, and a fixed share keeps the cheap cycle at the median and the
//   polling cycle at p99. Stresses the hit path.
// churn: update-heavy. Uniform requests over 300 pages (fewer than the
//   cache holds), 20 updates per 25 requests over both tables, WAL with
//   fsync per commit. Stresses misses, invalidation analysis and storage;
//   hit_ratio here measures invalidation precision, not capacity.
// edge: Figure 1 topology. Two edge caches of 400 pages each in front of
//   the origin proxy, 1,200 pages of which each edge owns ~600, so edges
//   evict; ejects reach the edges over the batched invalidation wire.
constexpr Shape kShapes[] = {
    {"browse", 200, 2, 8, 10000, 50, 1, 10, 400, 1.0, false, 0, 0},
    {"churn", 100, 2, 8, 10000, 25, 20, 2, 500, 0.0, true, 0, 0},
    {"edge", 400, 2, 8, 10000, 25, 2, 2, 240, 0.8, false, 2, 400},
};

// Update kinds by a table's update count: 4 value changes, 3 group
// moves, 3 delete+insert pairs in every 10.
constexpr char kKinds[] = "VGVPVGPVGP";

// splitmix64: small, fast, and identical on every platform, so a seed
// names the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Draws page indices: Zipf(s) over popularity ranks. Rank r is a page of
// class r % 3, so every seed spreads popularity evenly over the classes
// (whose miss costs differ tenfold); the seed shuffles which group holds
// each rank within a class.
class PagePicker {
 public:
  PagePicker(int pages, double s, Rng* rng) : order_(pages) {
    int groups = pages / 3;
    std::vector<int> group_of_slot(groups);
    for (int cls = 0; cls < 3; ++cls) {
      for (int g = 0; g < groups; ++g) group_of_slot[g] = g;
      for (int g = groups - 1; g > 0; --g) {
        std::swap(group_of_slot[g], group_of_slot[rng->Below(g + 1)]);
      }
      for (int slot = 0; slot < groups; ++slot) {
        order_[3 * slot + cls] = 3 * group_of_slot[slot] + cls;
      }
    }
    cdf_.resize(pages);
    double total = 0;
    for (int rank = 0; rank < pages; ++rank) {
      total += s == 0.0 ? 1.0 : 1.0 / std::pow(rank + 1, s);
      cdf_[rank] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  int Pick(Rng* rng) const {
    auto rank = std::upper_bound(cdf_.begin(), cdf_.end(), rng->Unit()) -
                cdf_.begin();
    return order_[std::min<size_t>(rank, order_.size() - 1)];
  }

 private:
  std::vector<int> order_;
  std::vector<double> cdf_;
};

// One table's live ids, so deletes always hit a row and inserts use a
// fresh id: the row count never changes.
struct TableIds {
  const char* name;
  std::vector<int> live;
  int next_id = 0;
  int updates = 0;
};

std::string InsertSql(const char* table, int id, int grp, int val) {
  return std::string("INSERT INTO ") + table + " VALUES (" +
         std::to_string(id) + ", " + std::to_string(grp) + ", " +
         std::to_string(val) + ")";
}

void AppendUpdate(TableIds* table, int groups, Rng* rng,
                  std::vector<std::string>* out) {
  size_t slot = rng->Below(static_cast<int>(table->live.size()));
  int id = table->live[slot];
  char kind = kKinds[table->updates++ % (sizeof(kKinds) - 1)];
  std::string where = " WHERE id = " + std::to_string(id);
  if (kind == 'V') {  // In-place value change: one group's pages.
    out->push_back(std::string("UPDATE ") + table->name +
                   " SET val = " + std::to_string(rng->Below(10000)) + where);
  } else if (kind == 'G') {  // Group move: two groups' pages.
    out->push_back(std::string("UPDATE ") + table->name +
                   " SET grp = " + std::to_string(rng->Below(groups)) + where);
  } else {  // Paired delete + insert of a fresh id.
    out->push_back(std::string("DELETE FROM ") + table->name + where);
    int fresh = table->next_id++;
    table->live[slot] = fresh;
    out->push_back(InsertSql(table->name, fresh, rng->Below(groups),
                             rng->Below(10000)));
  }
}

}  // namespace

const Shape* FindShape(const std::string& name) {
  for (const Shape& shape : kShapes) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

Inputs Generate(const Shape& shape, uint64_t seed, int pass) {
  // Distinct starting states give unrelated splitmix64 streams.
  Rng rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(pass));
  Inputs inputs;
  TableIds small{"SmallT", {}, 0, 0};
  TableIds large{"LargeT", {}, 0, 0};
  inputs.small_rows = shape.groups * shape.small_per_group;
  inputs.large_rows = shape.groups * shape.large_per_group;
  for (auto [table, rows] : {std::pair{&small, inputs.small_rows},
                             std::pair{&large, inputs.large_rows}}) {
    for (int i = 0; i < rows; ++i) {
      int id = table->next_id++;
      table->live.push_back(id);
      inputs.load.push_back(InsertSql(table->name, id,
                                      rng.Below(shape.groups),
                                      rng.Below(10000)));
    }
  }

  PagePicker picker(shape.pages(), shape.zipf_s, &rng);
  int updates = 0;
  inputs.rounds.resize(shape.rounds_per_pass);
  for (Inputs::Round& round : inputs.rounds) {
    round.requests.reserve(shape.requests_per_round);
    for (int i = 0; i < shape.requests_per_round; ++i) {
      round.requests.push_back(picker.Pick(&rng));
    }
    for (int i = 0; i < shape.updates_per_round; ++i) {
      bool to_large = updates++ % shape.large_every == 0;
      AppendUpdate(to_large ? &large : &small, shape.groups, &rng,
                   &round.updates);
    }
  }
  return inputs;
}

}  // namespace portalbench
