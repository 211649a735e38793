#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "invalidator/impact.h"
#include "sql/analyzer.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace cacheportal::invalidator {
namespace {

using sql::Value;

/// Example 4.1's schema: Car(maker, model, price), Mileage(model, EPA).
class ImpactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(db::TableSchema(
                                    "Car", {{"maker", db::ColumnType::kString},
                                            {"model", db::ColumnType::kString},
                                            {"price", db::ColumnType::kInt}}))
                    .ok());
    ASSERT_TRUE(
        db_.CreateTable(db::TableSchema(
                            "Mileage", {{"model", db::ColumnType::kString},
                                        {"EPA", db::ColumnType::kInt}}))
            .ok());
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Avalon', 28)").value();
    db_.ExecuteSql("INSERT INTO Mileage VALUES ('Civic', 36)").value();
  }

  std::unique_ptr<sql::SelectStatement> Query(const std::string& sql) {
    auto result = sql::Parser::ParseSelect(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  db::Row CarRow(const std::string& maker, const std::string& model,
                 int64_t price) {
    return {Value::String(maker), Value::String(model), Value::Int(price)};
  }

  db::Database db_;
};

// The paper's Query1:
//   select Car.maker, Car.model, Car.price, Mileage.EPA
//   from Car, Mileage
//   where Car.model = Mileage.model and Car.price < 20000
constexpr char kQuery1[] =
    "select Car.maker, Car.model, Car.price, Mileage.EPA from Car, Mileage "
    "where Car.model = Mileage.model and Car.price < 20000";

TEST_F(ImpactTest, PaperExampleEclipseInsertIsUnaffected) {
  // (Mitsubishi, Eclipse, 20000): 20000 < 20000 is false -> no impact,
  // decided without touching the database.
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  auto result = analyzer.AnalyzeTuple(*query, "Car",
                                      CarRow("Mitsubishi", "Eclipse", 20000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->kind, ImpactKind::kUnaffected);
}

TEST_F(ImpactTest, PaperExampleAvalonInsertNeedsPolling) {
  // (Toyota, Avalon, 25000)... the paper uses price < 20000 with a 25000
  // tuple in its prose example for the polling query, but then the
  // condition already fails. Use a qualifying price so the join remains:
  // (Toyota, Avalon, 15000): price check passes, join with Mileage must
  // be polled.
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  auto result =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Toyota", "Avalon", 15000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  ASSERT_NE(result->polling_query, nullptr);

  std::string poll = sql::StatementToSql(*result->polling_query);
  // Shape of the paper's PollQuery: selects from Mileage only, with the
  // tuple's model substituted into the join condition.
  EXPECT_NE(poll.find("FROM Mileage"), std::string::npos) << poll;
  EXPECT_NE(poll.find("'Avalon' = Mileage.model"), std::string::npos) << poll;
  EXPECT_EQ(poll.find("Car"), std::string::npos) << poll;

  // Issuing the polling query against the database confirms the impact
  // (Avalon is in Mileage).
  auto poll_result = db_.ExecuteQuery(*result->polling_query);
  ASSERT_TRUE(poll_result.ok());
  EXPECT_FALSE(poll_result->rows.empty());
}

TEST_F(ImpactTest, PollingQueryEmptyWhenJoinPartnerMissing) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  auto result = analyzer.AnalyzeTuple(*query, "Car",
                                      CarRow("Ford", "Focus", 15000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  auto poll_result = db_.ExecuteQuery(*result->polling_query);
  ASSERT_TRUE(poll_result.ok());
  EXPECT_TRUE(poll_result->rows.empty());  // Focus has no Mileage row.
}

TEST_F(ImpactTest, UpdateToUnrelatedTableIsUnaffected) {
  ASSERT_TRUE(db_.CreateTable(db::TableSchema(
                                  "Other", {{"x", db::ColumnType::kInt}}))
                  .ok());
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  auto result =
      analyzer.AnalyzeTuple(*query, "Other", {Value::Int(1)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kind, ImpactKind::kUnaffected);
}

TEST_F(ImpactTest, SingleTableQueryDecidedWithoutPolling) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query("SELECT * FROM Car WHERE Car.price < 20000");
  auto hit =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Honda", "Civic", 18000));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->kind, ImpactKind::kAffected);

  auto miss =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Toyota", "Avalon", 25000));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->kind, ImpactKind::kUnaffected);
}

TEST_F(ImpactTest, UnqualifiedColumnsAreResolved) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query("SELECT * FROM Car WHERE price < 20000");
  auto result =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Honda", "Civic", 18000));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kind, ImpactKind::kAffected);
}

TEST_F(ImpactTest, QueryWithoutWhereAlwaysAffected) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query("SELECT * FROM Car");
  auto result =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Any", "Thing", 1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kind, ImpactKind::kAffected);
}

TEST_F(ImpactTest, DeletionUsesSameLogic) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query("SELECT * FROM Car WHERE price < 20000");
  // A deleted tuple that satisfied the condition may shrink the result.
  auto result =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Honda", "Civic", 18000));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kind, ImpactKind::kAffected);
}

TEST_F(ImpactTest, AliasedTables) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(
      "SELECT c.model FROM Car c, Mileage m WHERE c.model = m.model AND "
      "c.price < 20000");
  auto result =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Toyota", "Avalon", 15000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  std::string poll = sql::StatementToSql(*result->polling_query);
  EXPECT_NE(poll.find("Mileage m"), std::string::npos) << poll;
}

TEST_F(ImpactTest, InvalidTupleRejected) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  EXPECT_FALSE(
      analyzer.AnalyzeTuple(*query, "Car", {Value::Int(1)}).ok());
}

TEST_F(ImpactTest, UnknownTableRejected) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query("SELECT * FROM Nope WHERE x = 1");
  EXPECT_TRUE(analyzer.AnalyzeTuple(*query, "Nope", {Value::Int(1)})
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------
// Batched (group) analysis — Section 4.2.1
// ---------------------------------------------------------------------

TEST_F(ImpactTest, BatchShortCircuitsOnDefiniteImpact) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query("SELECT * FROM Car WHERE price < 20000");
  std::vector<db::Row> tuples = {CarRow("A", "X", 50000),
                                 CarRow("B", "Y", 10000)};
  auto result = analyzer.AnalyzeDelta(*query, "Car", tuples);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kind, ImpactKind::kAffected);
}

TEST_F(ImpactTest, BatchAllFalseIsUnaffected) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query("SELECT * FROM Car WHERE price < 20000");
  std::vector<db::Row> tuples = {CarRow("A", "X", 50000),
                                 CarRow("B", "Y", 60000)};
  auto result = analyzer.AnalyzeDelta(*query, "Car", tuples);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kind, ImpactKind::kUnaffected);
}

TEST_F(ImpactTest, BatchCombinesResidualsIntoOnePollingQuery) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  std::vector<db::Row> tuples = {CarRow("T", "Avalon", 15000),
                                 CarRow("H", "Civic", 16000),
                                 CarRow("F", "Focus", 17000)};
  auto result = analyzer.AnalyzeDelta(*query, "Car", tuples);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  std::string poll = sql::StatementToSql(*result->polling_query);
  // One polling query OR-ing the three residuals.
  EXPECT_NE(poll.find("'Avalon'"), std::string::npos) << poll;
  EXPECT_NE(poll.find("'Civic'"), std::string::npos) << poll;
  EXPECT_NE(poll.find("'Focus'"), std::string::npos) << poll;
  EXPECT_NE(poll.find(" OR "), std::string::npos) << poll;

  auto poll_result = db_.ExecuteQuery(*result->polling_query);
  ASSERT_TRUE(poll_result.ok());
  EXPECT_FALSE(poll_result->rows.empty());
}

TEST_F(ImpactTest, EmptyBatchIsUnaffected) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  auto result = analyzer.AnalyzeDelta(*query, "Car", std::vector<db::Row>{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kind, ImpactKind::kUnaffected);
}

TEST_F(ImpactTest, PollingQueryHasLimitOne) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  auto result =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("T", "Avalon", 15000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  EXPECT_EQ(result->polling_query->limit, 1);
}

TEST_F(ImpactTest, MileageInsertGeneratesPollAgainstCar) {
  // Symmetric case: inserting into Mileage requires polling Car.
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  auto result = analyzer.AnalyzeTuple(
      *query, "Mileage", {Value::String("Eclipse"), Value::Int(30)});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  std::string poll = sql::StatementToSql(*result->polling_query);
  EXPECT_NE(poll.find("FROM Car"), std::string::npos) << poll;
  EXPECT_NE(poll.find("'Eclipse'"), std::string::npos) << poll;
}

// ---------------------------------------------------------------------
// Pinned-column fold and residual dedupe
// ---------------------------------------------------------------------

// Query1 restricted to one model: a Car tuple pins Mileage.model twice.
constexpr char kPinnedQuery[] =
    "select Car.model, Mileage.EPA from Car, Mileage "
    "where Car.model = Mileage.model and Mileage.model = 'Civic'";

TEST_F(ImpactTest, ContradictoryStringPinsAreUnaffected) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kPinnedQuery);
  // 'Avalon' = Mileage.model AND Mileage.model = 'Civic': no row.
  auto miss =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Toyota", "Avalon", 15000));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->kind, ImpactKind::kUnaffected);
  EXPECT_EQ(miss->polling_query, nullptr);

  // Equal pins stay a residual, and the poll finds the partner.
  auto hit =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Honda", "Civic", 15000));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->kind, ImpactKind::kNeedsPolling);
  auto rows = db_.ExecuteQuery(*hit->polling_query);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows->rows.empty());
}

TEST_F(ImpactTest, ContradictoryIntPinsAreUnaffectedInEitherOperandOrder) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(
      "select Car.model from Car, Mileage where Car.price = Mileage.EPA and "
      "28 = Mileage.EPA");
  auto miss =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Toyota", "Avalon", 36));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->kind, ImpactKind::kUnaffected);
  auto hit =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Toyota", "Avalon", 28));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->kind, ImpactKind::kNeedsPolling);
}

TEST_F(ImpactTest, MixedClassPinsAreLeftToTheDbms) {
  // Mileage.EPA is INT; 28 and 28.0 are different literals of different
  // classes that the same row satisfies. The fold must not decide it.
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(
      "select Car.model from Car, Mileage where Car.price = Mileage.EPA and "
      "Mileage.EPA = 28.0");
  auto result =
      analyzer.AnalyzeTuple(*query, "Car", CarRow("Toyota", "Avalon", 28));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  auto rows = db_.ExecuteQuery(*result->polling_query);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows->rows.empty());
}

TEST_F(ImpactTest, EqualResidualsAreEmittedOnce) {
  // An in-place UPDATE's old and new images: same model, new price.
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  std::vector<db::Row> tuples = {CarRow("T", "Avalon", 15000),
                                 CarRow("T", "Avalon", 16000),
                                 CarRow("H", "Civic", 17000)};
  auto result = analyzer.AnalyzeDelta(*query, "Car", tuples);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  EXPECT_EQ(sql::ExprToSql(*result->polling_query->where),
            "'Avalon' = Mileage.model OR 'Civic' = Mileage.model");

  tuples.pop_back();
  result = analyzer.AnalyzeDelta(*query, "Car", tuples);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  EXPECT_EQ(sql::ExprToSql(*result->polling_query->where),
            "'Avalon' = Mileage.model");
}

// The pair term: Car and Mileage tuples both deleted in one batch,
// folded together.
TEST_F(ImpactTest, PairTermFoldsDeletedPartnersTogether) {
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(kQuery1);
  sql::ExpressionPtr where = analyzer.QualifiedWhere(*query);
  db::Row civic = CarRow("H", "Civic", 18000);
  db::Row pricey = CarRow("T", "Civic", 25000);  // Fails the price bound.
  db::Row civic_epa = {Value::String("Civic"), Value::Int(36)};
  db::Row avalon_epa = {Value::String("Avalon"), Value::Int(28)};

  auto pairs = [&](std::vector<const db::Row*> cars,
                   std::vector<const db::Row*> mileage) {
    auto result =
        analyzer.AnalyzePairs(*query, *where, "Car", cars, "Mileage", mileage);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->kind : ImpactKind::kAffected;
  };
  EXPECT_EQ(pairs({&civic}, {&civic_epa}), ImpactKind::kAffected);
  EXPECT_EQ(pairs({&civic}, {&avalon_epa}), ImpactKind::kUnaffected);
  EXPECT_EQ(pairs({&pricey}, {&civic_epa}), ImpactKind::kUnaffected);
  EXPECT_EQ(pairs({&pricey, &civic}, {&avalon_epa, &civic_epa}),
            ImpactKind::kAffected);
  EXPECT_EQ(pairs({}, {&civic_epa}), ImpactKind::kUnaffected);

  // Above the cap the verdict is affected without folding, even for
  // pairs that would all fold FALSE.
  std::vector<const db::Row*> cars(65, &pricey);
  std::vector<const db::Row*> mileage(64, &avalon_epa);
  EXPECT_EQ(pairs(std::vector<const db::Row*>(64, &pricey), mileage),
            ImpactKind::kUnaffected);
  EXPECT_EQ(pairs(cars, mileage), ImpactKind::kAffected);

  EXPECT_FALSE(analyzer
                   .AnalyzePairs(*query, *where, "Car", {&civic}, "car",
                                 {&civic})
                   .ok());
}

TEST_F(ImpactTest, PairTermPollsTheRemainingTable) {
  ASSERT_TRUE(db_.CreateTable(db::TableSchema(
                                  "Dealer", {{"model", db::ColumnType::kString},
                                             {"city", db::ColumnType::kString}}))
                  .ok());
  ImpactAnalyzer analyzer(&db_);
  auto query = Query(
      "SELECT Car.maker FROM Car, Mileage, Dealer WHERE Car.model = "
      "Mileage.model AND Mileage.model = Dealer.model AND city = 'Kyoto'");
  sql::ExpressionPtr where = analyzer.QualifiedWhere(*query);
  db::Row civic = CarRow("H", "Civic", 18000);
  db::Row civic_epa = {Value::String("Civic"), Value::Int(36)};
  db::Row avalon_epa = {Value::String("Avalon"), Value::Int(28)};
  auto result = analyzer.AnalyzePairs(*query, *where, "Car", {&civic},
                                      "Mileage", {&civic_epa, &avalon_epa});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->kind, ImpactKind::kNeedsPolling);
  EXPECT_EQ(sql::StatementToSql(*result->polling_query),
            "SELECT 1 AS hit FROM Dealer WHERE 'Civic' = Dealer.model AND "
            "Dealer.city = 'Kyoto' LIMIT 1");
}

// ---------------------------------------------------------------------
// Soundness oracle for the pinned-column fold. Random conjunctions over
// A(x INT, d DOUBLE, s STRING) and an updated B(y INT, e DOUBLE,
// t STRING) pin A's columns to int, double, string and NULL literals —
// directly and through join terms the B tuple substitutes — including
// the integers around ±2^53 where int/double comparison stops being
// transitive. Whenever the analyzer answers kUnaffected, no A row of an
// exhaustive domain (every column value any pin names, plus NULL) may
// satisfy the WHERE under sql::EvalPredicate with that B tuple. NaN
// rides along as a DOUBLE value: Value::Compare finds it equal to every
// number.
// ---------------------------------------------------------------------

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// The literal zoo: every pin takes one of these.
std::vector<Value> PinLiterals() {
  return {Value::Null(),
          Value::Int(5),
          Value::Int(6),
          Value::Double(5.0),
          Value::Double(5.5),
          Value::Int(kTwo53),
          Value::Int(kTwo53 + 1),
          Value::Int(-kTwo53),
          Value::Int(-kTwo53 - 1),
          Value::Double(static_cast<double>(kTwo53)),
          Value::Double(-static_cast<double>(kTwo53)),
          Value::Double(std::numeric_limits<double>::quiet_NaN()),
          Value::String("p"),
          Value::String("q")};
}

/// The zoo's values storable in a column of `type`.
std::vector<Value> DomainOf(db::ColumnType type) {
  std::vector<Value> out;
  for (const Value& v : PinLiterals()) {
    if (db::ValueMatchesType(v, type)) out.push_back(v);
  }
  return out;
}

/// Resolves A's columns to one domain row and B's to the updated tuple.
class JoinRowResolver : public sql::ColumnResolver {
 public:
  JoinRowResolver(const db::Row& a, const db::Row& b) : a_(a), b_(b) {}
  std::optional<Value> Resolve(const std::string& table,
                               const std::string& column) const override {
    static const char* kA[] = {"x", "d", "s"};
    static const char* kB[] = {"y", "e", "t"};
    const bool is_a = EqualsIgnoreCase(table, "A");
    const db::Row& row = is_a ? a_ : b_;
    const char** names = is_a ? kA : kB;
    for (size_t i = 0; i < 3; ++i) {
      if (EqualsIgnoreCase(column, names[i])) return row[i];
    }
    return std::nullopt;
  }

 private:
  const db::Row& a_;
  const db::Row& b_;
};

TEST(PinnedFoldOracleTest, UnaffectedVerdictsLeaveNoSatisfyingRow) {
  db::Database db;
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "A", {{"x", db::ColumnType::kInt},
                                       {"d", db::ColumnType::kDouble},
                                       {"s", db::ColumnType::kString}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(db::TableSchema(
                                 "B", {{"y", db::ColumnType::kInt},
                                       {"e", db::ColumnType::kDouble},
                                       {"t", db::ColumnType::kString}}))
                  .ok());
  const std::vector<Value> literals = PinLiterals();
  const char* kACols[] = {"x", "d", "s"};
  const char* kBCols[] = {"y", "e", "t"};
  const db::ColumnType kTypes[] = {db::ColumnType::kInt,
                                   db::ColumnType::kDouble,
                                   db::ColumnType::kString};

  // Exhaustive A domain: the product of each column's storable zoo.
  std::vector<db::Row> domain;
  for (const Value& x : DomainOf(kTypes[0])) {
    for (const Value& d : DomainOf(kTypes[1])) {
      for (const Value& s : DomainOf(kTypes[2])) domain.push_back({x, d, s});
    }
  }

  const ImpactAnalyzer analyzer(&db);
  Random rng(20260415);
  uint64_t unaffected = 0;
  uint64_t folded_by_pins = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    // 2-4 conjuncts: mostly pins of an A column to a literal or (through
    // a join term) to a B column, either operand order; B is the updated
    // table.
    sql::SelectStatement query;
    sql::SelectItem star;
    star.star = true;
    query.items.push_back(std::move(star));
    query.from = {{"A", ""}, {"B", ""}};
    const size_t pinned = rng.Uniform(3);  // Most conjuncts share a column.
    const size_t conjuncts = 2 + rng.Uniform(3);
    for (size_t c = 0; c < conjuncts; ++c) {
      size_t col = rng.OneIn(0.75) ? pinned : rng.Uniform(3);
      // Now and then a B-only conjunct, which substitution decides alone.
      sql::ExpressionPtr column =
          rng.OneIn(0.1)
              ? std::make_unique<sql::ColumnRefExpr>("B", kBCols[col])
              : std::make_unique<sql::ColumnRefExpr>("A", kACols[col]);
      sql::ExpressionPtr other =
          rng.OneIn(0.4)
              ? sql::ExpressionPtr(std::make_unique<sql::ColumnRefExpr>(
                    "B", kBCols[rng.Uniform(3)]))
              : std::make_unique<sql::LiteralExpr>(
                    literals[rng.Uniform(literals.size())]);
      if (rng.OneIn(0.5)) std::swap(column, other);
      sql::ExpressionPtr eq = std::make_unique<sql::BinaryExpr>(
          sql::BinaryOp::kEq, std::move(column), std::move(other));
      query.where = query.where == nullptr
                        ? std::move(eq)
                        : std::make_unique<sql::BinaryExpr>(
                              sql::BinaryOp::kAnd, std::move(query.where),
                              std::move(eq));
    }
    db::Row tuple;
    for (db::ColumnType type : kTypes) {
      std::vector<Value> storable = DomainOf(type);
      tuple.push_back(storable[rng.Uniform(storable.size())]);
    }

    Result<ImpactResult> impact = analyzer.AnalyzeTuple(query, "B", tuple);
    ASSERT_TRUE(impact.ok()) << impact.status().ToString();
    if (impact->kind != ImpactKind::kUnaffected) continue;
    ++unaffected;
    // Did plain constant folding leave a residual the pins then decided?
    auto substituted = sql::SubstituteColumns(
        *query.where,
        [&](const std::string& table,
            const std::string& column) -> std::optional<Value> {
          if (!EqualsIgnoreCase(table, "B")) return std::nullopt;
          for (size_t i = 0; i < 3; ++i) {
            if (EqualsIgnoreCase(column, kBCols[i])) return tuple[i];
          }
          return std::nullopt;
        });
    if (sql::FoldConstants(*substituted).outcome ==
        sql::FoldOutcome::kResidual) {
      ++folded_by_pins;
    }
    for (const db::Row& row : domain) {
      Result<std::optional<bool>> truth =
          sql::EvalPredicate(*query.where, JoinRowResolver(row, tuple));
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      ASSERT_FALSE(truth->has_value() && **truth)
          << "unsound kUnaffected: " << sql::ExprToSql(*query.where)
          << " with B = (" << tuple[0].ToSqlLiteral() << ", "
          << tuple[1].ToSqlLiteral() << ", " << tuple[2].ToSqlLiteral()
          << ") is satisfied by A = (" << row[0].ToSqlLiteral() << ", "
          << row[1].ToSqlLiteral() << ", " << row[2].ToSqlLiteral() << ")";
    }
  }
  // The fold decided a real share of the trials on its own.
  EXPECT_GT(folded_by_pins, 300u);
  EXPECT_GT(unaffected, folded_by_pins);
}

}  // namespace
}  // namespace cacheportal::invalidator
