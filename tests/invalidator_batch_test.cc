// Columnar impact analysis: ProbeBatch against a brute-force anchor
// evaluator, the NaN bind-index regression, seeded worlds checked against
// the re-execution oracle and the precision reference, and
// consolidated-poll accounting against values known by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "impact_oracles.h"
#include "invalidator/baseline.h"
#include "invalidator/bind_index.h"
#include "invalidator/invalidator.h"
#include "invalidator/registry.h"
#include "invalidator/type_matcher.h"
#include "server/jdbc.h"
#include "sniffer/qiurl_map.h"
#include "sql/analyzer.h"
#include "sql/column_batch.h"
#include "sql/eval.h"
#include "sql/printer.h"
#include "sql/template.h"

namespace cacheportal::invalidator {
namespace {

using sql::Value;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class RecordingSink : public InvalidationSink {
 public:
  Status SendInvalidation(const http::HttpRequest&,
                          const std::string& cache_key) override {
    invalidated.insert(cache_key);
    return Status::OK();
  }
  std::set<std::string> invalidated;
};

/// A polling target whose every query fails, for exercising the
/// conservative degradation path.
class FailingConnection : public server::Connection {
 public:
  Result<db::QueryResult> ExecuteQuery(const std::string&) override {
    return Status::Internal("injected poll failure");
  }
  Result<int64_t> ExecuteUpdate(const std::string&) override {
    return Status::Internal("injected poll failure");
  }
};

// ---------------------------------------------------------------------------
// ProbeBatch against a brute-force evaluator: for every anchor relation,
// on both the kernel path (few index entries) and the sorted-merge path
// (many entries), across the full value zoo — NULL, booleans, strings,
// duplicates, ±inf, -0.0, and NaN — each instance's anchor conjunct is
// evaluated by sql::EvalPredicate on every row. A TRUE or NULL verdict
// must come back as a candidate; a FALSE one may only where bind_index.h
// documents an over-approximation (boolean cells; NaN and beyond-2^53
// integer cells and binds).
// ---------------------------------------------------------------------------

/// Compiles `sql` as the template of a fresh query type against `db`.
TypeMatcher CompileType(const db::Database& db, uint64_t type_id,
                        const std::string& sql, QueryType* type) {
  type->type_id = type_id;
  type->name = StrCat("type", type_id);
  type->tmpl = sql::ExtractTemplateFromSql(sql).value();
  return TypeMatcher::Compile(*type, db);
}

/// An instance of a hand-compiled type. AddInstance reads only the IDs
/// and the bindings, so no parsed statement is needed — and bindings can
/// hold values SQL text cannot spell (NaN, ±inf, -0.0).
QueryInstance MakeInstance(uint64_t instance_id, uint64_t type_id,
                           std::vector<Value> bindings) {
  QueryInstance instance;
  instance.instance_id = instance_id;
  instance.type_id = type_id;
  instance.sql = StrCat("instance-", instance_id);
  instance.bindings = std::move(bindings);
  return instance;
}

/// Probes `index` with a one-row column holding `cell`.
BindIndex::BatchProbe ProbeCell(const BindIndex& index, uint64_t type_id,
                                const CompiledAnchor& anchor,
                                const Value& cell) {
  db::Row row = {cell};
  std::vector<const db::Row*> rows = {&row};
  sql::ColumnBatch batch = sql::ColumnBatch::FromRows(rows);
  BindIndex::BatchProbe probe;
  index.ProbeBatch(type_id, "t", anchor, batch.Column(anchor.column_index),
                   &probe, nullptr);
  return probe;
}

Value RandomValue(Random& rng) {
  switch (rng.Uniform(13)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng.OneIn(0.5));
    case 2:
    case 3:
      return Value::String(StrCat("s", rng.Uniform(5)));
    case 4:
      return Value::Double(kInf);
    case 5:
      return Value::Double(-kInf);
    case 6:
      return Value::Double(kNaN);
    case 7:
      return Value::Double(-0.0);
    case 8:
      return Value::Double(static_cast<double>(rng.Uniform(8)) - 3.5);
    case 12:
      // Around 2^53, where neighboring integers share one double.
      return Value::Int((int64_t{1} << 53) - 1 +
                        static_cast<int64_t>(rng.Uniform(4)));
    default:
      return Value::Int(static_cast<int64_t>(rng.Uniform(8)) - 4);
  }
}

/// A numeric value whose double widening is not an exact order-and-
/// equality key: NaN, or an integer beyond ±2^53.
bool Unkeyable(const Value& v) {
  constexpr int64_t kLimit = int64_t{1} << 53;
  if (v.is_int()) return v.AsInt() > kLimit || v.AsInt() < -kLimit;
  return v.is_double() && std::isnan(v.AsDouble());
}

/// Binds column `c` to one cell; nothing else resolves.
class CellResolver : public sql::ColumnResolver {
 public:
  explicit CellResolver(const Value& cell) : cell_(cell) {}
  std::optional<Value> Resolve(const std::string&,
                               const std::string& column) const override {
    if (!EqualsIgnoreCase(column, "c")) return std::nullopt;
    return cell_;
  }

 private:
  const Value& cell_;
};

TEST(ProbeBatchPropertyTest, MatchesBruteForceAnchorEvaluator) {
  // Each template's WHERE is exactly its anchor conjunct, so the
  // instantiated WHERE is what the brute-force evaluator runs.
  const struct {
    const char* sql;
    size_t operands;
  } kCases[] = {
      {"SELECT * FROM T WHERE c = 1", 1},
      {"SELECT * FROM T WHERE c < 1", 1},
      {"SELECT * FROM T WHERE c <= 1", 1},
      {"SELECT * FROM T WHERE c > 1", 1},
      {"SELECT * FROM T WHERE c >= 1", 1},
      {"SELECT * FROM T WHERE c BETWEEN 1 AND 2", 2},
      {"SELECT * FROM T WHERE c IN (1, 2, 3)", 3},
  };
  uint64_t candidates = 0;
  uint64_t exclusions = 0;
  MatcherStats stats;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    // 3 instances per type stays on the per-entry kernel path; 24 puts
    // the populous value classes past the sorted-merge threshold.
    for (size_t count : {3u, 24u}) {
      SCOPED_TRACE(StrCat("seed=", seed, " instances=", count));
      Random rng(seed * 100 + count);
      ManualClock clock;
      db::Database db(&clock);
      ASSERT_TRUE(db.CreateTable(
                        db::TableSchema("T", {{"c", db::ColumnType::kInt},
                                              {"pad", db::ColumnType::kString}}))
                      .ok());

      struct Type {
        QueryType type;
        TypeMatcher matcher;
        std::vector<QueryInstance> instances;
      };
      std::vector<Type> types;
      BindIndex index;
      uint64_t next_instance = 1;
      for (const auto& c : kCases) {
        Type t;
        t.matcher = CompileType(db, types.size() + 1, c.sql, &t.type);
        ASSERT_TRUE(t.matcher.handled()) << c.sql;
        for (size_t i = 0; i < count; ++i) {
          std::vector<Value> bindings;
          for (size_t k = 0; k < c.operands; ++k) {
            bindings.push_back(RandomValue(rng));
          }
          t.instances.push_back(MakeInstance(
              next_instance++, t.type.type_id, std::move(bindings)));
          index.AddInstance(t.matcher, t.instances.back());
        }
        types.push_back(std::move(t));
      }

      size_t num_rows = 1 + rng.Uniform(60);
      std::vector<db::Row> rows;
      for (size_t i = 0; i < num_rows; ++i) {
        rows.push_back({RandomValue(rng), Value::String("pad")});
      }
      std::vector<const db::Row*> row_ptrs;
      for (const db::Row& row : rows) row_ptrs.push_back(&row);
      sql::ColumnBatch batch = sql::ColumnBatch::FromRows(row_ptrs);

      for (const Type& t : types) {
        SCOPED_TRACE(t.type.tmpl.canonical_text);
        const CompiledAnchor* anchor = t.matcher.AnchorFor("t");
        ASSERT_NE(anchor, nullptr);
        BindIndex::BatchProbe probe;
        index.ProbeBatch(t.type.type_id, "t", *anchor,
                         batch.Column(anchor->column_index), &probe, &stats);

        // all_rows is exactly the NULL / boolean / unkeyable cells,
        // ascending.
        std::vector<uint32_t> always;
        for (uint32_t r = 0; r < rows.size(); ++r) {
          const Value& cell = rows[r][anchor->column_index];
          if (cell.is_null() || cell.is_bool() || Unkeyable(cell)) {
            always.push_back(r);
          }
        }
        EXPECT_EQ(probe.all_rows, always);
        const std::set<uint32_t> all_rows(probe.all_rows.begin(),
                                          probe.all_rows.end());

        std::set<uint64_t> ids;
        for (const QueryInstance& instance : t.instances) {
          ids.insert(instance.instance_id);
        }
        for (const auto& [id, list] : probe.per_id) {
          EXPECT_TRUE(ids.contains(id)) << "foreign instance " << id;
          EXPECT_FALSE(list.empty()) << "instance " << id;
          EXPECT_TRUE(std::is_sorted(list.begin(), list.end()) &&
                      std::adjacent_find(list.begin(), list.end()) ==
                          list.end())
              << "instance " << id << " rows not ascending and unique";
          for (uint32_t r : list) {
            EXPECT_FALSE(all_rows.contains(r))
                << "instance " << id << " repeats all_rows row " << r;
          }
        }

        for (const QueryInstance& instance : t.instances) {
          auto statement =
              sql::InstantiateTemplate(t.type.tmpl, instance.bindings);
          ASSERT_TRUE(statement.ok()) << statement.status().ToString();
          bool unkeyable_bind =
              std::any_of(instance.bindings.begin(),
                          instance.bindings.end(), Unkeyable);
          auto own_it = probe.per_id.find(instance.instance_id);
          for (uint32_t r = 0; r < rows.size(); ++r) {
            const Value& cell = rows[r][anchor->column_index];
            Result<std::optional<bool>> truth = sql::EvalPredicate(
                *(*statement)->where, CellResolver(cell));
            ASSERT_TRUE(truth.ok()) << truth.status().ToString();
            bool candidate =
                all_rows.contains(r) ||
                (own_it != probe.per_id.end() &&
                 std::binary_search(own_it->second.begin(),
                                    own_it->second.end(), r));
            std::string where =
                StrCat("instance ", instance.instance_id, " row ", r,
                       ": ", sql::StatementToSql(**statement), " with c = ",
                       cell.ToSqlLiteral());
            if (!truth->has_value() || **truth) {
              EXPECT_TRUE(candidate) << "unsound exclusion: " << where;
              ++candidates;
              continue;
            }
            if (!candidate) {
              ++exclusions;
              continue;
            }
            EXPECT_TRUE(cell.is_bool() || Unkeyable(cell) || unkeyable_bind)
                << "undocumented false candidate: " << where;
          }
        }
      }
    }
  }
  // The zoo exercised both verdicts and both probe strategies.
  EXPECT_GT(candidates, 0u);
  EXPECT_GT(exclusions, 0u);
  EXPECT_GT(stats.batch_kernel_evals, 0u);
  EXPECT_GT(stats.batch_merge_probes, 0u);
}

// ---------------------------------------------------------------------------
// Non-finite bind regression (the std::map strict-weak-ordering bug): a
// NaN bind value must never become a sorted-map or hash key — it routes
// to the always-candidate lists — and a NaN cell probes as "all
// candidates". ±inf keys order and hash fine and index normally.
// ---------------------------------------------------------------------------

class BindIndexRegressionTest : public ::testing::Test {
 protected:
  BindIndexRegressionTest() : db_(&clock_) {}
  void SetUp() override {
    ASSERT_TRUE(
        db_.CreateTable(db::TableSchema("T", {{"c", db::ColumnType::kInt}}))
            .ok());
  }

  /// Candidates for a one-row column holding `cell`, ascending.
  std::vector<uint64_t> ProbeIds(const BindIndex& index, uint64_t type_id,
                                 const CompiledAnchor& anchor,
                                 const Value& cell) {
    BindIndex::BatchProbe probe = ProbeCell(index, type_id, anchor, cell);
    EXPECT_TRUE(probe.all_rows.empty());
    std::vector<uint64_t> ids;
    for (const auto& [id, rows] : probe.per_id) {
      EXPECT_EQ(rows, std::vector<uint32_t>{0});
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  ManualClock clock_;
  db::Database db_;
};

TEST_F(BindIndexRegressionTest, RangeNaNBindIsAlwaysCandidateAndMapStaysOrdered) {
  QueryType type;
  TypeMatcher matcher = CompileType(db_, 1, "SELECT * FROM T WHERE c < 10",
                                    &type);
  ASSERT_TRUE(matcher.handled());
  const CompiledAnchor& anchor = *matcher.AnchorFor("t");

  BindIndex index;
  // Interleave the NaN bind between ordinary keys: before the fix it
  // landed inside range_num and silently broke the map's ordering.
  index.AddInstance(matcher, MakeInstance(1, 1, {Value::Int(10)}));
  index.AddInstance(matcher, MakeInstance(2, 1, {Value::Double(kNaN)}));
  index.AddInstance(matcher, MakeInstance(3, 1, {Value::Int(20)}));
  index.AddInstance(matcher, MakeInstance(4, 1, {Value::Int(30)}));
  index.AddInstance(matcher, MakeInstance(5, 1, {Value::Double(kInf)}));

  // c < bind survives for binds > 15: instances 3, 4, the +inf bind 5 —
  // and the NaN bind 2, which the index never excludes.
  EXPECT_EQ(ProbeIds(index, 1, anchor, Value::Int(15)),
            (std::vector<uint64_t>{2, 3, 4, 5}));
  // Far right of every finite key: only +inf and NaN remain.
  EXPECT_EQ(ProbeIds(index, 1, anchor, Value::Int(1000)),
            (std::vector<uint64_t>{2, 5}));
  // A NaN cell is unordered against every key: all candidates.
  EXPECT_EQ(ProbeCell(index, 1, anchor, Value::Double(kNaN)).all_rows,
            std::vector<uint32_t>{0});

  // The always-routing must be fully removable (postings recorded).
  index.RemoveInstance(2);
  EXPECT_FALSE(index.ContainsInstance(2));
  EXPECT_EQ(ProbeIds(index, 1, anchor, Value::Int(1000)),
            (std::vector<uint64_t>{5}));
}

TEST_F(BindIndexRegressionTest, EqInAndBetweenNaNBindsRouteToAlwaysLists) {
  BindIndex index;
  QueryType eq_type, in_type, between_type;
  TypeMatcher eq = CompileType(db_, 1, "SELECT * FROM T WHERE c = 1",
                               &eq_type);
  TypeMatcher in = CompileType(db_, 2, "SELECT * FROM T WHERE c IN (1, 2)",
                               &in_type);
  TypeMatcher between = CompileType(
      db_, 3, "SELECT * FROM T WHERE c BETWEEN 1 AND 2", &between_type);
  ASSERT_TRUE(eq.handled() && in.handled() && between.handled());

  index.AddInstance(eq, MakeInstance(1, 1, {Value::Double(kNaN)}));
  index.AddInstance(eq, MakeInstance(2, 1, {Value::Int(7)}));
  // A NaN IN item taints the whole list (Value::Compare folds NaN
  // "equal" to every numeric, so no miss is definite).
  index.AddInstance(in, MakeInstance(3, 2,
                                     {Value::Int(1), Value::Double(kNaN)}));
  index.AddInstance(in, MakeInstance(4, 2, {Value::Int(1), Value::Int(2)}));
  // One NaN BETWEEN bound de-indexes the pair.
  index.AddInstance(between,
                    MakeInstance(5, 3, {Value::Double(kNaN), Value::Int(9)}));
  index.AddInstance(between,
                    MakeInstance(6, 3, {Value::Int(1), Value::Int(9)}));

  const CompiledAnchor& eq_anchor = *eq.AnchorFor("t");
  const CompiledAnchor& in_anchor = *in.AnchorFor("t");
  const CompiledAnchor& between_anchor = *between.AnchorFor("t");

  // Equality: cell 8 misses bind 7 but can never exclude the NaN bind.
  EXPECT_EQ(ProbeIds(index, 1, eq_anchor, Value::Int(8)),
            (std::vector<uint64_t>{1}));
  // For STRING cells every numeric-bind instance is an always candidate
  // (cross-class comparisons fold NULL), and the NaN bind sits on both
  // always lists — so both survive.
  EXPECT_EQ(ProbeIds(index, 1, eq_anchor, Value::String("x")),
            (std::vector<uint64_t>{1, 2}));
  // IN: cell 5 is in neither list, but the NaN-tainted member stays.
  EXPECT_EQ(ProbeIds(index, 2, in_anchor, Value::Int(5)),
            (std::vector<uint64_t>{3}));
  // BETWEEN: cell 20 is outside [1, 9]; the NaN-bounded pair stays.
  EXPECT_EQ(ProbeIds(index, 3, between_anchor, Value::Int(20)),
            (std::vector<uint64_t>{5}));
}

// Neighboring integers beyond 2^53 share one double. Keyed by their
// widening, `c < 2^53 + 1` excluded the cell 2^53 (2^53 < 2^53 in
// double) although Value::Compare orders the integers exactly: TRUE.
TEST_F(BindIndexRegressionTest, IntegersBeyondTwoToThe53AreNeverExcluded) {
  QueryType type;
  TypeMatcher matcher = CompileType(db_, 1, "SELECT * FROM T WHERE c < 10",
                                    &type);
  ASSERT_TRUE(matcher.handled());
  const CompiledAnchor& anchor = *matcher.AnchorFor("t");
  const int64_t two53 = int64_t{1} << 53;
  BindIndex index;
  index.AddInstance(matcher, MakeInstance(1, 1, {Value::Int(two53 + 1)}));
  index.AddInstance(matcher, MakeInstance(2, 1, {Value::Int(two53)}));
  // The beyond-limit bind is always a candidate; 2^53 itself is an
  // exact key and `2^53 < 2^53` is a definite FALSE.
  EXPECT_EQ(ProbeIds(index, 1, anchor, Value::Int(two53)),
            (std::vector<uint64_t>{1}));
  // A beyond-limit cell reaches every instance.
  EXPECT_EQ(ProbeCell(index, 1, anchor, Value::Int(two53 + 2)).all_rows,
            std::vector<uint32_t>{0});
}

// An inverted BETWEEN pair (high < low) is FALSE for every cell. On the
// sorted-merge path its row span used to end before it began, and the
// walk ran off the end of the key array.
TEST_F(BindIndexRegressionTest, InvertedBetweenPairsMatchNothingOnTheMergePath) {
  QueryType type;
  TypeMatcher matcher = CompileType(
      db_, 1, "SELECT * FROM T WHERE c BETWEEN 1 AND 2", &type);
  ASSERT_TRUE(matcher.handled());
  const CompiledAnchor& anchor = *matcher.AnchorFor("t");
  BindIndex index;
  // Twelve pairs cross the kernel/merge threshold; odd ids are inverted.
  for (uint64_t id = 1; id <= 12; ++id) {
    int low = static_cast<int>(id);
    std::vector<Value> bounds = {Value::Int(low), Value::Int(low + 4)};
    if (id % 2 == 1) std::swap(bounds[0], bounds[1]);
    index.AddInstance(matcher, MakeInstance(id, 1, std::move(bounds)));
  }
  std::vector<db::Row> rows;
  for (int v = 0; v <= 20; ++v) rows.push_back({Value::Int(v)});
  std::vector<const db::Row*> row_ptrs;
  for (const db::Row& row : rows) row_ptrs.push_back(&row);
  sql::ColumnBatch batch = sql::ColumnBatch::FromRows(row_ptrs);
  BindIndex::BatchProbe probe;
  MatcherStats stats;
  index.ProbeBatch(1, "t", anchor, batch.Column(0), &probe, &stats);
  EXPECT_GT(stats.batch_merge_probes, 0u);
  for (uint64_t id = 1; id <= 12; ++id) {
    if (id % 2 == 1) {
      EXPECT_FALSE(probe.per_id.contains(id)) << "inverted pair " << id;
      continue;
    }
    std::vector<uint32_t> expect;
    for (uint32_t v = id; v <= id + 4; ++v) expect.push_back(v);
    EXPECT_EQ(probe.per_id[id], expect) << "pair " << id;
  }
}

// ---------------------------------------------------------------------------
// Derived anchors: `A.x = B.y AND A.x REL operands` anchors B on
// `y REL operands` when x and y are both INT or both STRING. ProbeBatch
// on that anchor is checked against two brute-force evaluators, for INT
// and STRING join columns, on schema-valid B cells (NULL included) and
// binds from the full value zoo:
//  - the anchor conjunct alone, under sql::EvalPredicate with y = cell
//    (the check the single-table property test makes);
//  - the join itself: when some A row of an exhaustive domain satisfies
//    the instantiated WHERE with B.y = cell, the instance must be a
//    candidate for that row — the derivation's soundness.
// ---------------------------------------------------------------------------

/// Every zoo value RandomValue can draw, for exhaustive domains.
std::vector<Value> ZooValues() {
  std::vector<Value> zoo = {Value::Null(),        Value::Bool(true),
                            Value::Bool(false),   Value::Double(kInf),
                            Value::Double(-kInf), Value::Double(kNaN),
                            Value::Double(-0.0)};
  for (int i = 0; i < 5; ++i) zoo.push_back(Value::String(StrCat("s", i)));
  for (int i = 0; i < 8; ++i) {
    zoo.push_back(Value::Double(i - 3.5));
    zoo.push_back(Value::Int(i - 4));
  }
  for (int64_t i = 0; i < 4; ++i) {
    zoo.push_back(Value::Int((int64_t{1} << 53) - 1 + i));
  }
  return zoo;
}

/// Resolves `x` (the A side) and `y` (the B side) of a join template.
class JoinCellResolver : public sql::ColumnResolver {
 public:
  JoinCellResolver(const Value& x, const Value& y) : x_(x), y_(y) {}
  std::optional<Value> Resolve(const std::string&,
                               const std::string& column) const override {
    if (EqualsIgnoreCase(column, "x")) return x_;
    if (EqualsIgnoreCase(column, "y")) return y_;
    return std::nullopt;
  }

 private:
  const Value& x_;
  const Value& y_;
};

TEST(DerivedAnchorPropertyTest, ProbeBatchMatchesBruteForceJoinEvaluator) {
  const struct {
    const char* where;  // Over A.x, B.y; the anchor conjunct comes last.
    size_t operands;
    AnchorRel rel;
  } kCases[] = {
      {"A.x = B.y AND A.x = 1", 1, AnchorRel::kEq},
      {"B.y = A.x AND A.x < 1", 1, AnchorRel::kLt},
      {"A.x = B.y AND A.x <= 1", 1, AnchorRel::kLtEq},
      {"A.x = B.y AND 1 < A.x", 1, AnchorRel::kGt},
      {"B.y = A.x AND A.x >= 1", 1, AnchorRel::kGtEq},
      {"A.x = B.y AND A.x BETWEEN 1 AND 2", 2, AnchorRel::kBetween},
      {"A.x = B.y AND A.x IN (1, 2, 3)", 3, AnchorRel::kIn},
  };
  const std::vector<Value> zoo = ZooValues();
  uint64_t join_hits = 0;
  uint64_t exclusions = 0;
  MatcherStats stats;
  for (db::ColumnType type : {db::ColumnType::kInt, db::ColumnType::kString}) {
    std::vector<Value> storable;
    for (const Value& v : zoo) {
      if (db::ValueMatchesType(v, type)) storable.push_back(v);
    }
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      for (size_t count : {3u, 24u}) {
        SCOPED_TRACE(StrCat("type=", db::ColumnTypeName(type), " seed=", seed,
                            " instances=", count));
        Random rng(seed * 100 + count);
        ManualClock clock;
        db::Database db(&clock);
        ASSERT_TRUE(db.CreateTable(db::TableSchema("A", {{"x", type}})).ok());
        ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                       "B", {{"pad", db::ColumnType::kString},
                                             {"y", type}}))
                        .ok());
        std::vector<db::Row> rows;
        for (size_t i = 1 + rng.Uniform(40); i > 0; --i) {
          rows.push_back({Value::String("pad"),
                          storable[rng.Uniform(storable.size())]});
        }
        std::vector<const db::Row*> row_ptrs;
        for (const db::Row& row : rows) row_ptrs.push_back(&row);
        sql::ColumnBatch batch = sql::ColumnBatch::FromRows(row_ptrs);

        uint64_t type_id = 0;
        for (const auto& c : kCases) {
          SCOPED_TRACE(c.where);
          QueryType query_type;
          TypeMatcher matcher = CompileType(
              db, ++type_id, StrCat("SELECT * FROM A, B WHERE ", c.where),
              &query_type);
          const CompiledAnchor* source = matcher.AnchorFor("a");
          const CompiledAnchor* anchor = matcher.AnchorFor("b");
          ASSERT_NE(source, nullptr);
          ASSERT_NE(anchor, nullptr);
          EXPECT_EQ(anchor->rel, c.rel);
          EXPECT_EQ(anchor->column_index, 1u);
          ASSERT_EQ(anchor->operands.size(), c.operands);

          BindIndex index;
          std::vector<QueryInstance> instances;
          for (size_t i = 0; i < count; ++i) {
            std::vector<Value> bindings;
            for (size_t k = 0; k < c.operands; ++k) {
              bindings.push_back(RandomValue(rng));
            }
            instances.push_back(
                MakeInstance(i + 1, type_id, std::move(bindings)));
            index.AddInstance(matcher, instances.back());
          }
          BindIndex::BatchProbe probe;
          index.ProbeBatch(type_id, "b", *anchor,
                           batch.Column(anchor->column_index), &probe, &stats);
          for (uint32_t r : probe.all_rows) {
            const Value& cell = rows[r][1];
            EXPECT_TRUE(cell.is_null() || Unkeyable(cell))
                << "all_rows holds " << cell.ToSqlLiteral();
          }
          const std::set<uint32_t> all_rows(probe.all_rows.begin(),
                                            probe.all_rows.end());

          for (const QueryInstance& instance : instances) {
            auto statement =
                sql::InstantiateTemplate(query_type.tmpl, instance.bindings);
            ASSERT_TRUE(statement.ok()) << statement.status().ToString();
            const sql::Expression& where = *(*statement)->where;
            // The anchor conjunct alone: the last top-level conjunct.
            const sql::Expression& conjunct =
                *sql::SplitConjuncts(where).back();
            bool unkeyable_bind =
                std::any_of(instance.bindings.begin(),
                            instance.bindings.end(), Unkeyable);
            auto own_it = probe.per_id.find(instance.instance_id);
            for (uint32_t r = 0; r < rows.size(); ++r) {
              const Value& cell = rows[r][1];
              bool candidate =
                  all_rows.contains(r) ||
                  (own_it != probe.per_id.end() &&
                   std::binary_search(own_it->second.begin(),
                                      own_it->second.end(), r));
              std::string trace =
                  StrCat("instance ", instance.instance_id, ": ",
                         sql::StatementToSql(**statement), " with B.y = ",
                         cell.ToSqlLiteral());
              // The conjunct, with A.x standing in for B.y.
              Result<std::optional<bool>> truth =
                  sql::EvalPredicate(conjunct, JoinCellResolver(cell, cell));
              ASSERT_TRUE(truth.ok()) << truth.status().ToString();
              if (!truth->has_value() || **truth) {
                EXPECT_TRUE(candidate) << "unsound exclusion: " << trace;
              } else if (candidate) {
                EXPECT_TRUE(Unkeyable(cell) || unkeyable_bind)
                    << "undocumented false candidate: " << trace;
              } else {
                ++exclusions;
              }
              // The join: any A row that completes it.
              for (const Value& a : storable) {
                Result<std::optional<bool>> joined =
                    sql::EvalPredicate(where, JoinCellResolver(a, cell));
                ASSERT_TRUE(joined.ok()) << joined.status().ToString();
                if (joined->has_value() && **joined) {
                  ++join_hits;
                  EXPECT_TRUE(candidate)
                      << "unsound exclusion: A.x = " << a.ToSqlLiteral()
                      << " satisfies " << trace;
                  break;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(join_hits, 0u);
  EXPECT_GT(exclusions, 0u);
  EXPECT_GT(stats.batch_kernel_evals, 0u);
  EXPECT_GT(stats.batch_merge_probes, 0u);
}

// No anchor is derived across join columns of different declared types,
// DOUBLE join columns, a self-join, or from an anchor on another column.
TEST(DerivedAnchorTest, OnlySameTypeSingleOccurrenceJoinColumnsDerive) {
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "A", {{"x", db::ColumnType::kInt},
                                       {"z", db::ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "B", {{"i", db::ColumnType::kInt},
                                       {"d", db::ColumnType::kDouble},
                                       {"s", db::ColumnType::kString}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "C", {{"i", db::ColumnType::kInt},
                                       {"d", db::ColumnType::kDouble}}))
                  .ok());
  auto anchored = [&](const std::string& where, const std::string& table) {
    QueryType type;
    TypeMatcher matcher =
        CompileType(db, 1, StrCat("SELECT * FROM A, B WHERE ", where), &type);
    return matcher.AnchorFor(table) != nullptr;
  };
  EXPECT_TRUE(anchored("A.x = B.i AND A.x = 3", "b"));
  EXPECT_FALSE(anchored("A.x = B.d AND A.x = 3", "b"));  // INT vs DOUBLE.
  EXPECT_FALSE(anchored("A.x = B.s AND A.x = 3", "b"));  // INT vs STRING.
  EXPECT_FALSE(anchored("A.x = B.i AND A.z = 3", "b"));  // Other column.
  EXPECT_FALSE(anchored("A.x = B.i OR A.x = 3", "b"));   // Not top-level.

  // DOUBLE = DOUBLE: a NaN cell on the anchored side equals every number,
  // so `B.d = v AND B.d = 3` holds for any v at that row.
  QueryType double_type;
  TypeMatcher doubles = CompileType(
      db, 6, "SELECT * FROM B, C WHERE B.d = C.d AND B.d = 3", &double_type);
  ASSERT_NE(doubles.AnchorFor("b"), nullptr);
  EXPECT_EQ(doubles.AnchorFor("c"), nullptr);

  // Chains derive through every same-typed hop.
  QueryType chain_type;
  TypeMatcher chain = CompileType(
      db, 2, "SELECT * FROM A, B, C WHERE A.x = B.i AND B.i = C.i AND C.i = 3",
      &chain_type);
  ASSERT_NE(chain.AnchorFor("a"), nullptr);
  EXPECT_EQ(chain.AnchorFor("a")->rel, AnchorRel::kEq);

  // A self-joined table is never anchored, so it neither derives nor
  // receives.
  QueryType self_type;
  TypeMatcher self = CompileType(
      db, 3, "SELECT * FROM A p, A q, B WHERE p.x = B.i AND q.x = B.i AND "
             "B.i = 3",
      &self_type);
  EXPECT_EQ(self.AnchorFor("a"), nullptr);
  ASSERT_NE(self.AnchorFor("b"), nullptr);

  // An existing equality anchor is kept over a derived one.
  QueryType own_type;
  TypeMatcher own = CompileType(
      db, 4, "SELECT * FROM A, B WHERE A.x = B.i AND A.x < 3 AND B.i = 7",
      &own_type);
  ASSERT_NE(own.AnchorFor("b"), nullptr);
  EXPECT_EQ(own.AnchorFor("b")->rel, AnchorRel::kEq);
  // ... and a derived equality replaces a worse own anchor.
  QueryType better_type;
  TypeMatcher better = CompileType(
      db, 5, "SELECT * FROM A, B WHERE A.x = B.i AND A.x = 3 AND B.i < 7",
      &better_type);
  ASSERT_NE(better.AnchorFor("b"), nullptr);
  EXPECT_EQ(better.AnchorFor("b")->rel, AnchorRel::kEq);
}

// ---------------------------------------------------------------------------
// Seeded worlds checked against oracles, at every (workers x shards)
// point: per cycle, the ejects cover every page the re-execution oracle
// (BaselineInvalidator) finds stale; ejects, cycle summaries and
// StatsReport() are byte-identical across the matrix; and, in the
// variant with no poll budget and no polling cache, the ejects equal the
// test-side precision reference (impact_oracles.h) — equal on non-exact
// pages, a subset on exact ones. Every tier goes through the bind index.
// ---------------------------------------------------------------------------

void CreateCarTables(db::Database* db) {
  ASSERT_TRUE(db->CreateTable(db::TableSchema(
                                  "Car", {{"maker", db::ColumnType::kString},
                                          {"model", db::ColumnType::kString},
                                          {"price", db::ColumnType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      db->CreateTable(db::TableSchema(
                          "Mileage", {{"model", db::ColumnType::kString},
                                      {"EPA", db::ColumnType::kInt}}))
          .ok());
}

std::string ReportKey(const CycleReport& r) {
  return StrCat(r.updates, "/", r.new_instances, "/", r.checks, "/",
                r.affected_instances, "/", r.polls_issued, "/",
                r.polls_answered_by_index, "/", r.conservative_invalidations,
                "/", r.pages_invalidated, "/", DegradationModeName(r.mode));
}

struct MatrixResult {
  std::vector<std::set<std::string>> cycle_invalidated;
  std::vector<std::set<std::string>> cycle_stale;      // Re-execution oracle.
  std::vector<std::set<std::string>> cycle_reference;  // Precision reference.
  std::set<std::string> exact_pages;                   // Pages of exact types.
  std::vector<std::string> cycle_reports;
  std::string stats_report;
  MatcherStats matcher;
};

/// `rationed` adds a poll budget (condemnations) and a polling cache;
/// the precision reference does not model either.
MatrixResult RunBatchScenario(uint64_t seed, size_t shards, size_t workers,
                              bool rationed) {
  Random rng(seed);
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  const char* makers[] = {"Toyota", "Honda", "Mitsubishi", "Ford"};
  const char* models[] = {"Avalon", "Civic", "Eclipse", "Corolla"};
  for (int i = 0; i < 16; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('", makers[rng.Uniform(4)],
                         "', '", models[rng.Uniform(4)], "', ",
                         rng.Uniform(30000), ")"))
        .value();
  }
  for (int i = 0; i < 4; ++i) {
    db.ExecuteSql(StrCat("INSERT INTO Mileage VALUES ('",
                         models[rng.Uniform(4)], "', ", 20 + rng.Uniform(15),
                         ")"))
        .value();
  }

  sniffer::QiUrlMap map;
  InvalidatorOptions options;
  options.metadata_shards = shards;
  options.worker_threads = workers;
  if (rationed) {
    options.max_polls_per_cycle = 3;
    options.polling_cache_capacity = 8;
  }
  Invalidator inv(&db, &map, &clock, options);
  EXPECT_TRUE(inv.CreateJoinIndex("Mileage", "model").ok());
  RecordingSink sink;
  inv.AddSink(&sink);
  BaselineInvalidator oracle(&db, &map);

  // Twelve instances of the maker-equality type push its bucket past
  // the kernel/merge threshold; the other shapes cover interval, IN,
  // BETWEEN, join, and a type the compiler cannot anchor.
  std::vector<std::string> sqls;
  for (int i = 0; i < 12; ++i) {
    sqls.push_back(StrCat("SELECT * FROM Car WHERE maker = '",
                          makers[rng.Uniform(4)], "'"));
  }
  for (int i = 0; i < 4; ++i) {
    sqls.push_back(StrCat("SELECT * FROM Car WHERE price < ",
                          4000 + rng.Uniform(26000)));
    sqls.push_back(StrCat("SELECT * FROM Car WHERE price BETWEEN ",
                          2000 + rng.Uniform(8000), " AND ",
                          15000 + rng.Uniform(15000)));
    sqls.push_back(StrCat("SELECT * FROM Car WHERE model IN ('",
                          models[rng.Uniform(4)], "', '",
                          models[rng.Uniform(4)], "')"));
    sqls.push_back(
        StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
               "Mileage.model AND Car.price < ",
               6000 + rng.Uniform(20000)));
    sqls.push_back(
        StrCat("SELECT * FROM Mileage WHERE EPA > ", 18 + rng.Uniform(14)));
    sqls.push_back(StrCat("SELECT * FROM Car WHERE maker = 'Ford' OR price < ",
                          rng.Uniform(30000)));
  }
  // De-duplicate: identical SQL re-registers the same instance.
  std::sort(sqls.begin(), sqls.end());
  sqls.erase(std::unique(sqls.begin(), sqls.end()), sqls.end());
  auto page_of = [](size_t i) { return StrCat("shop/p", i, "?##"); };

  auto recache = [&map, &sqls, &page_of]() {
    for (size_t i = 0; i < sqls.size(); ++i) {
      map.Add(sqls[i], page_of(i), "/r", 0);
    }
  };
  recache();
  inv.RunCycle().value();  // Register the pages; the log is quiet.

  MatrixResult result;
  uint64_t seq = db.update_log().LastSeq();
  for (int round = 0; round < 6; ++round) {
    // Snapshot the (re-)cached instances before this round's updates.
    oracle.RunCycle().value();
    for (int u = 0; u < 1 + static_cast<int>(rng.Uniform(3)); ++u) {
      switch (rng.Uniform(4)) {
        case 0:
          db.ExecuteSql(StrCat("INSERT INTO Car VALUES ('",
                               makers[rng.Uniform(4)], "', '",
                               models[rng.Uniform(4)], "', ",
                               rng.Uniform(30000), ")"))
              .value();
          break;
        case 1:
          db.ExecuteSql(StrCat("DELETE FROM Car WHERE price > ",
                               15000 + rng.Uniform(15000)))
              .value();
          break;
        case 2:
          db.ExecuteSql(StrCat("INSERT INTO Mileage VALUES ('",
                               models[rng.Uniform(4)], "', ",
                               20 + rng.Uniform(15), ")"))
              .value();
          break;
        default:
          db.ExecuteSql(StrCat("DELETE FROM Mileage WHERE EPA > ",
                               25 + rng.Uniform(10)))
              .value();
          break;
      }
    }
    result.cycle_reference.push_back(ReferencePages(
        ReferenceAffected(db, db.update_log().ReadSince(seq), sqls), sqls,
        page_of));
    seq = db.update_log().LastSeq();
    result.cycle_stale.push_back(oracle.RunCycle().value().stale_pages);
    sink.invalidated.clear();
    CycleReport report = inv.RunCycle().value();
    result.cycle_invalidated.push_back(sink.invalidated);
    result.cycle_reports.push_back(ReportKey(report));
    recache();
    inv.RunCycle().value();  // Consume the re-cached pages.
  }
  result.exact_pages = ExactTierPages(inv.metadata(), sqls, page_of);
  result.stats_report = inv.StatsReport();
  result.matcher = inv.matcher_stats();
  return result;
}

class BatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDifferentialTest, EjectsMatchOraclesAcrossTheMatrix) {
  for (bool rationed : {false, true}) {
    SCOPED_TRACE(StrCat("rationed=", rationed));
    MatrixResult base = RunBatchScenario(GetParam(), 1, 1, rationed);
    size_t total = 0;
    for (size_t c = 0; c < base.cycle_invalidated.size(); ++c) {
      SCOPED_TRACE(StrCat("cycle ", c));
      total += base.cycle_invalidated[c].size();
      for (const std::string& page : base.cycle_stale[c]) {
        EXPECT_TRUE(base.cycle_invalidated[c].contains(page))
            << "STALE RETENTION of '" << page << "'";
      }
      if (!rationed) {
        ExpectReferencePrecision(base.cycle_invalidated[c],
                                 base.cycle_reference[c], base.exact_pages);
      }
    }
    EXPECT_GT(total, 0u);
    EXPECT_GT(base.matcher.batch_probes, 0u);

    for (size_t shards : {1u, 4u}) {
      for (size_t workers : {1u, 4u, 8u}) {
        if (shards == 1 && workers == 1) continue;
        SCOPED_TRACE(StrCat("shards=", shards, " workers=", workers));
        MatrixResult got = RunBatchScenario(GetParam(), shards, workers,
                                            rationed);
        EXPECT_EQ(base.cycle_invalidated, got.cycle_invalidated);
        EXPECT_EQ(base.cycle_reports, got.cycle_reports);
        EXPECT_EQ(base.stats_report, got.stats_report);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range<uint64_t>(1, 12));

// ---------------------------------------------------------------------------
// Consolidated-poll accounting, against values known by construction: a
// ten-member bucket and a single-member bucket. polls_issued counts the
// logical member polls; a failed round trip ejects every member
// conservatively and charges each one poll.
// ---------------------------------------------------------------------------

struct ChunkResult {
  InvalidatorStats stats;
  MatcherStats matcher;
  std::set<std::string> ejected;
};

ChunkResult RunChunkScenario(bool fail_polls) {
  ManualClock clock;
  db::Database db(&clock);
  CreateCarTables(&db);
  db.ExecuteSql("INSERT INTO Mileage VALUES ('Avalon', 25)").value();

  sniffer::QiUrlMap map;
  Invalidator inv(&db, &map, &clock, {});
  RecordingSink sink;
  inv.AddSink(&sink);
  FailingConnection failing;
  if (fail_polls) inv.SetPollingConnection(&failing);

  // A ten-member bucket (EPA thresholds straddling the lone row at 25:
  // hits for 30..100, misses for 10 and 20), plus a single-member bucket
  // of a second type (EPA > 99: a miss), which keeps the per-query path.
  for (int t = 10; t <= 100; t += 10) {
    map.Add(StrCat("SELECT Car.model FROM Car, Mileage WHERE Car.model = "
                   "Mileage.model AND Mileage.EPA < ",
                   t),
            StrCat("shop/epa", t, "?##"), "/r", 0);
  }
  map.Add("SELECT Car.maker FROM Car, Mileage WHERE Car.model = "
          "Mileage.model AND Mileage.EPA > 99",
          "shop/single?##", "/r", 0);
  db.ExecuteSql("INSERT INTO Car VALUES ('Toyota', 'Avalon', 15000)").value();
  inv.RunCycle().value();

  return {inv.stats(), inv.matcher_stats(), sink.invalidated};
}

TEST(PollAccountingTest, ConsolidatedPollsChargeLogicalMemberPolls) {
  ChunkResult got = RunChunkScenario(/*fail_polls=*/false);
  std::set<std::string> expect;
  for (int t = 30; t <= 100; t += 10) expect.insert(StrCat("shop/epa", t, "?##"));
  EXPECT_EQ(got.ejected, expect);
  EXPECT_EQ(got.stats.polls_issued, 11u);  // One per logical member.
  EXPECT_EQ(got.stats.poll_hits, 8u);
  EXPECT_EQ(got.stats.conservative_invalidations, 0u);
  // One merged statement for the bucket, one for the single member.
  EXPECT_EQ(got.matcher.poll_round_trips, 2u);
  EXPECT_EQ(got.matcher.consolidated_polls, 1u);
  EXPECT_EQ(got.matcher.consolidated_members, 10u);
}

TEST(PollAccountingTest, FailedPollsEjectEveryMemberConservatively) {
  ChunkResult got = RunChunkScenario(/*fail_polls=*/true);
  std::set<std::string> expect = {"shop/single?##"};
  for (int t = 10; t <= 100; t += 10) expect.insert(StrCat("shop/epa", t, "?##"));
  EXPECT_EQ(got.ejected, expect);
  EXPECT_EQ(got.stats.polls_issued, 11u);  // Each member charged one poll.
  EXPECT_EQ(got.stats.poll_hits, 0u);
  EXPECT_EQ(got.stats.conservative_invalidations, 11u);
  EXPECT_EQ(got.matcher.poll_round_trips, 2u);
}

// ---------------------------------------------------------------------------
// Large-world smoke: a single-table equality world at smoke scale (see
// CACHEPORTAL_SMOKE_INSTANCES; the benchmark suite drives the same shape
// to 10^6) must eject exactly the touched pages, with the unaffected
// instances skipped before the analysis fan-out.
// ---------------------------------------------------------------------------

TEST(BatchSmokeTest, LargeEqualityWorldEjectsExactlyTheTouchedPages) {
  size_t instances = 20000;
  if (const char* env = std::getenv("CACHEPORTAL_SMOKE_INSTANCES")) {
    instances = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  ManualClock clock;
  db::Database db(&clock);
  ASSERT_TRUE(
      db.CreateTable(db::TableSchema("Item", {{"k", db::ColumnType::kInt},
                                              {"v", db::ColumnType::kInt}}))
          .ok());
  sniffer::QiUrlMap map;
  Invalidator inv(&db, &map, &clock, {});
  RecordingSink sink;
  inv.AddSink(&sink);
  for (size_t i = 0; i < instances; ++i) {
    map.Add(StrCat("SELECT * FROM Item WHERE k = ", i),
            StrCat("item/", i, "?##"), "/r", 0);
  }
  inv.RunCycle().value();
  // Touch a sample of keys spread across the world, plus misses.
  Random rng(7);
  std::set<std::string> expect;
  for (int u = 0; u < 32; ++u) {
    size_t k = rng.Uniform(instances + 100);  // Some beyond every key.
    db.ExecuteSql(StrCat("INSERT INTO Item VALUES (", k, ", 1)")).value();
    if (k < instances) expect.insert(StrCat("item/", k, "?##"));
  }
  CycleReport report = inv.RunCycle().value();
  EXPECT_EQ(sink.invalidated, expect);
  EXPECT_EQ(report.pages_invalidated, expect.size());
  EXPECT_EQ(report.checks, instances);
  EXPECT_EQ(report.polls_issued, 0u);
  EXPECT_GT(inv.matcher_stats().batch_probes, 0u);
  EXPECT_EQ(inv.matcher_stats().fast_path_instances,
            instances - expect.size());
}

}  // namespace
}  // namespace cacheportal::invalidator
