// Workload shapes and the seeded input generator of the site benchmark.
//
// The site is the paper's Section 5.2.1 application: a small and a large
// table sharing the join attribute `grp`, and three page classes per
// group. Page p is class p % 3 (light, medium, heavy) of group p / 3.
//
// Every generated update keeps both tables at their initial size, so the
// work per round does not drift with table growth.
#ifndef PORTALBENCH_WORKLOAD_H_
#define PORTALBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace portalbench {

/// What one workload runs. Load is a closed loop with one client: each
/// round serves `requests_per_round` page requests, applies
/// `updates_per_round` updates, then runs one sync point.
struct Shape {
  const char* name;
  int groups;             // Pages = 3 * groups.
  int small_per_group;    // Initial SmallT rows per group.
  int large_per_group;    // Initial LargeT rows per group.
  size_t cache_capacity;  // Pages the origin cache holds.
  int requests_per_round;
  int updates_per_round;
  int large_every;      // Every large_every-th update goes to LargeT.
  int rounds_per_pass;  // One pass = fresh site + this many rounds.
  double zipf_s;        // Request skew over pages; 0 = uniform.
  bool durability;      // WAL + fsync per commit, in the work directory.
  int edges;            // 0 = clients talk to the origin proxy.
  size_t edge_capacity;  // Pages each edge cache holds.

  int pages() const { return 3 * groups; }
};

/// The named workloads; nullptr for an unknown name.
const Shape* FindShape(const std::string& name);

/// The SQL and requests one pass feeds the site, derived from the seed
/// alone. Which table each update touches and what kind of update it is
/// follow a fixed schedule, so every seed has the same mix; the seed picks
/// rows, groups, values and requested pages.
struct Inputs {
  struct Round {
    std::vector<int> requests;         // Page indices, in order.
    std::vector<std::string> updates;  // Statements, in order.
  };
  std::vector<std::string> load;  // Initial INSERTs.
  std::vector<Round> rounds;
  int small_rows = 0;  // Table sizes, constant across the pass.
  int large_rows = 0;
};

/// The inputs of pass `pass` of a run with seed `seed`.
Inputs Generate(const Shape& shape, uint64_t seed, int pass);

}  // namespace portalbench

#endif  // PORTALBENCH_WORKLOAD_H_
