#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "sql/ast.h"

namespace cacheportal::db {
namespace {

using sql::Value;

/// Builds the paper's two-table example database (Example 4.1).
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(TableSchema("Car",
                                            {{"maker", ColumnType::kString},
                                             {"model", ColumnType::kString},
                                             {"price", ColumnType::kInt}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(TableSchema("Mileage",
                                            {{"model", ColumnType::kString},
                                             {"EPA", ColumnType::kInt}}))
                    .ok());
    Exec("INSERT INTO Car VALUES ('Toyota', 'Avalon', 25000)");
    Exec("INSERT INTO Car VALUES ('Mitsubishi', 'Eclipse', 20000)");
    Exec("INSERT INTO Car VALUES ('Honda', 'Civic', 18000)");
    Exec("INSERT INTO Car VALUES ('Toyota', 'Corolla', 16000)");
    Exec("INSERT INTO Mileage VALUES ('Avalon', 28)");
    Exec("INSERT INTO Mileage VALUES ('Civic', 36)");
    Exec("INSERT INTO Mileage VALUES ('Corolla', 34)");
  }

  QueryResult Exec(const std::string& sql) {
    auto result = db_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  Database db_;
};

TEST_F(ExecutorTest, SelectStarReturnsAllColumnsAndRows) {
  QueryResult r = Exec("SELECT * FROM Car");
  EXPECT_EQ(r.columns,
            (std::vector<std::string>{"maker", "model", "price"}));
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(ExecutorTest, ProjectionAndAlias) {
  QueryResult r = Exec("SELECT maker AS brand, price FROM Car LIMIT 1");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"brand", "price"}));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].size(), 2u);
}

TEST_F(ExecutorTest, WhereFilters) {
  QueryResult r = Exec("SELECT model FROM Car WHERE price < 20000");
  EXPECT_EQ(r.rows.size(), 2u);  // Civic, Corolla.
}

TEST_F(ExecutorTest, WhereWithAndOrNot) {
  EXPECT_EQ(Exec("SELECT * FROM Car WHERE maker = 'Toyota' AND price > "
                 "20000")
                .rows.size(),
            1u);
  EXPECT_EQ(Exec("SELECT * FROM Car WHERE maker = 'Honda' OR maker = "
                 "'Toyota'")
                .rows.size(),
            3u);
  EXPECT_EQ(Exec("SELECT * FROM Car WHERE NOT (price < 20000)").rows.size(),
            2u);
}

TEST_F(ExecutorTest, JoinWithCommaSyntax) {
  QueryResult r = Exec(
      "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, "
      "Mileage WHERE Car.model = Mileage.model AND Car.price < 20000");
  // Civic (18000, EPA 36) and Corolla (16000, EPA 34).
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns.size(), 4u);
}

TEST_F(ExecutorTest, JoinWithJoinOnSyntax) {
  QueryResult r = Exec(
      "SELECT Car.model FROM Car JOIN Mileage ON Car.model = Mileage.model");
  EXPECT_EQ(r.rows.size(), 3u);  // Eclipse has no mileage row.
}

TEST_F(ExecutorTest, TableAliases) {
  QueryResult r = Exec(
      "SELECT c.model, m.EPA FROM Car c, Mileage m WHERE c.model = m.model "
      "AND m.EPA > 30");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, CrossProductWithoutCondition) {
  QueryResult r = Exec("SELECT * FROM Car, Mileage");
  EXPECT_EQ(r.rows.size(), 12u);  // 4 x 3.
  EXPECT_EQ(r.columns.size(), 5u);
}

TEST_F(ExecutorTest, UnqualifiedColumnsResolvedUniquely) {
  QueryResult r = Exec("SELECT maker FROM Car WHERE price = 25000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::String("Toyota"));
}

TEST_F(ExecutorTest, AmbiguousColumnIsError) {
  // `model` exists in both tables.
  EXPECT_FALSE(db_.ExecuteSql("SELECT * FROM Car, Mileage WHERE model = 'x'")
                   .ok());
}

TEST_F(ExecutorTest, OrderByAscDesc) {
  QueryResult r = Exec("SELECT model, price FROM Car ORDER BY price");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0], Value::String("Corolla"));
  EXPECT_EQ(r.rows[3][0], Value::String("Avalon"));

  r = Exec("SELECT model, price FROM Car ORDER BY price DESC");
  EXPECT_EQ(r.rows[0][0], Value::String("Avalon"));
}

TEST_F(ExecutorTest, Limit) {
  EXPECT_EQ(Exec("SELECT * FROM Car LIMIT 2").rows.size(), 2u);
  EXPECT_EQ(Exec("SELECT * FROM Car LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT * FROM Car LIMIT 99").rows.size(), 4u);
}

TEST_F(ExecutorTest, Distinct) {
  QueryResult r = Exec("SELECT DISTINCT maker FROM Car");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(ExecutorTest, Aggregates) {
  QueryResult r = Exec(
      "SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM "
      "Car");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(4));
  EXPECT_EQ(r.rows[0][1], Value::Int(25000 + 20000 + 18000 + 16000));
  EXPECT_EQ(r.rows[0][2], Value::Int(16000));
  EXPECT_EQ(r.rows[0][3], Value::Int(25000));
  EXPECT_EQ(r.rows[0][4], Value::Double(79000.0 / 4));
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  QueryResult r =
      Exec("SELECT COUNT(*), SUM(price) FROM Car WHERE price > 999999");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(0));
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, GroupBy) {
  QueryResult r = Exec(
      "SELECT maker, COUNT(*) AS n FROM Car GROUP BY maker ORDER BY n DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0], Value::String("Toyota"));
  EXPECT_EQ(r.rows[0][1], Value::Int(2));
}

TEST_F(ExecutorTest, IndexedEqualityLookupUsed) {
  ASSERT_TRUE(db_.CreateIndex("Car", "model").ok());
  const Table* car = db_.FindTable("Car");
  uint64_t before = car->rows_scanned();
  QueryResult r = Exec("SELECT * FROM Car WHERE model = 'Civic'");
  EXPECT_EQ(r.rows.size(), 1u);
  // Index lookup touches far fewer rows than a full scan would.
  EXPECT_LE(car->rows_scanned() - before, 2u);
}

// The index answers `col = literal` pins, alone or OR-ed on one column,
// only when the literal's class is the column's declared class (an int in
// INT, a string in STRING): the index hashes by representation, while SQL
// equality widens Int(3) to equal Double(3.0). Every other pin scans, so
// an indexed and an unindexed copy of a table return identical rows.
class IndexedPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"Ix", "Plain"}) {
      ASSERT_TRUE(db_.CreateTable(TableSchema(name,
                                              {{"id", ColumnType::kInt},
                                               {"grp", ColumnType::kInt},
                                               {"tag", ColumnType::kString},
                                               {"score", ColumnType::kDouble}}))
                      .ok());
    }
    for (const char* column : {"grp", "tag", "score"}) {
      ASSERT_TRUE(db_.CreateIndex("Ix", column).ok());
    }
    const std::vector<Value> grps = {Value::Int(3), Value::Int(4),
                                     Value::Null(), Value::Int(-3)};
    const std::vector<Value> tags = {Value::String("a"), Value::String("3"),
                                     Value::Null()};
    const std::vector<Value> scores = {Value::Double(3.0),
                                       Value::Double(std::nan("")),
                                       Value::Null(), Value::Int(4)};
    for (int i = 0; i < 24; ++i) {
      Row row = {Value::Int(i), grps[i % grps.size()], tags[i % tags.size()],
                 scores[(i / 2) % scores.size()]};
      for (const char* name : {"Ix", "Plain"}) {
        ASSERT_TRUE(db_.FindTable(name)->Insert(row).ok());
      }
    }
  }

  /// `SELECT * FROM table WHERE col = k1 OR col = k2 ...`, the first pin
  /// written `literal = col`; with `conjoined`, each disjunct is
  /// `col = k AND id < 12`.
  QueryResult Pins(const std::string& table, const std::string& column,
                   const std::vector<Value>& keys, bool conjoined = false) {
    sql::SelectStatement stmt;
    sql::SelectItem star;
    star.star = true;
    stmt.items.push_back(std::move(star));
    sql::TableRef ref;
    ref.table = table;
    stmt.from.push_back(ref);
    for (size_t i = 0; i < keys.size(); ++i) {
      sql::ExpressionPtr col = std::make_unique<sql::ColumnRefExpr>("", column);
      sql::ExpressionPtr lit = std::make_unique<sql::LiteralExpr>(keys[i]);
      if (i == 0) std::swap(col, lit);
      sql::ExpressionPtr pin = std::make_unique<sql::BinaryExpr>(
          sql::BinaryOp::kEq, std::move(col), std::move(lit));
      if (conjoined) {
        pin = std::make_unique<sql::BinaryExpr>(
            sql::BinaryOp::kAnd, std::move(pin),
            std::make_unique<sql::BinaryExpr>(
                sql::BinaryOp::kLt,
                std::make_unique<sql::ColumnRefExpr>("", "id"),
                std::make_unique<sql::LiteralExpr>(Value::Int(12))));
      }
      stmt.where = stmt.where == nullptr
                       ? std::move(pin)
                       : std::make_unique<sql::BinaryExpr>(
                             sql::BinaryOp::kOr, std::move(stmt.where),
                             std::move(pin));
    }
    auto result = db_.ExecuteQuery(stmt);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  /// The result's rows as text, one line each (a NaN cell equals itself).
  static std::vector<std::string> Lines(const QueryResult& result) {
    std::vector<std::string> lines;
    for (const Row& row : result.rows) {
      std::string line;
      for (const Value& v : row) {
        line += std::to_string(static_cast<int>(v.type())) + ":" +
                v.ToSqlLiteral() + " ";
      }
      lines.push_back(line);
    }
    return lines;
  }

  Database db_;
};

TEST_F(IndexedPinTest, IndexedAndUnindexedTablesReturnIdenticalRows) {
  const std::vector<Value> literals = {
      Value::Int(3),         Value::Int(4),        Value::Double(3.0),
      Value::Double(-3.0),   Value::Double(std::nan("")),
      Value::String("a"),    Value::String("3"),   Value::Null(),
      Value::Double(4.0)};
  for (const char* column : {"grp", "tag", "score"}) {
    for (size_t i = 0; i < literals.size(); ++i) {
      SCOPED_TRACE(testing::Message() << column << " = "
                                      << literals[i].ToSqlLiteral());
      EXPECT_EQ(Lines(Pins("Ix", column, {literals[i]})),
                Lines(Pins("Plain", column, {literals[i]})));
      for (size_t j = 0; j < literals.size(); ++j) {
        SCOPED_TRACE(testing::Message() << " OR " << column << " = "
                                        << literals[j].ToSqlLiteral());
        for (bool conjoined : {false, true}) {
          EXPECT_EQ(
              Lines(Pins("Ix", column, {literals[i], literals[j]}, conjoined)),
              Lines(
                  Pins("Plain", column, {literals[i], literals[j]}, conjoined)));
        }
      }
    }
  }
}

TEST_F(IndexedPinTest, MixedClassLiteralFindsTheRow) {
  // Int(3) and Double(3.0) hash apart in the index.
  EXPECT_EQ(Pins("Ix", "grp", {Value::Double(3.0)}).rows.size(), 6u);
  EXPECT_EQ(Pins("Plain", "grp", {Value::Double(3.0)}).rows.size(), 6u);
}

TEST_F(IndexedPinTest, SameClassOrUnionIsServedFromTheIndex) {
  const Table* ix = db_.FindTable("Ix");
  uint64_t before = ix->rows_scanned();
  QueryResult r = Pins("Ix", "grp", {Value::Int(3), Value::Int(4),
                                     Value::Int(3)});
  EXPECT_EQ(r.rows.size(), 12u);
  // The union touches the matching rows (a duplicated key twice), not
  // the whole table.
  EXPECT_LE(ix->rows_scanned() - before, 18u);
  // Rows come back in RowId order, as a scan returns them.
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LT(r.rows[i - 1][0].AsInt(), r.rows[i][0].AsInt());
  }
  // Pins AND-ed with other terms narrow through the same union; the
  // other terms are evaluated on the rows it returns.
  before = ix->rows_scanned();
  EXPECT_EQ(
      Pins("Ix", "grp", {Value::Int(3), Value::Int(4)}, true).rows.size(), 6u);
  EXPECT_EQ(ix->rows_scanned() - before, 12u);
  // One key of another class sends the whole union to a scan.
  before = ix->rows_scanned();
  EXPECT_EQ(Pins("Ix", "grp", {Value::Int(3), Value::Double(4.0)}).rows.size(),
            12u);
  EXPECT_EQ(ix->rows_scanned() - before, 24u);
}

TEST_F(ExecutorTest, InsertReportsAffectedAndDeleteRemoves) {
  QueryResult r = Exec("DELETE FROM Car WHERE maker = 'Toyota'");
  EXPECT_EQ(r.rows[0][0], Value::Int(2));
  EXPECT_EQ(Exec("SELECT * FROM Car").rows.size(), 2u);
}

TEST_F(ExecutorTest, UpdateChangesMatchingRows) {
  QueryResult r =
      Exec("UPDATE Car SET price = price - 1000 WHERE maker = 'Toyota'");
  EXPECT_EQ(r.rows[0][0], Value::Int(2));
  QueryResult check =
      Exec("SELECT price FROM Car WHERE model = 'Avalon'");
  EXPECT_EQ(check.rows[0][0], Value::Int(24000));
}

TEST_F(ExecutorTest, SelectUnknownTableFails) {
  EXPECT_TRUE(db_.ExecuteSql("SELECT * FROM Nope").status().IsNotFound());
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  EXPECT_FALSE(db_.ExecuteSql("SELECT * FROM Car WHERE nope = 1").ok());
}

TEST_F(ExecutorTest, TableNamesCaseInsensitive) {
  EXPECT_EQ(Exec("SELECT * FROM car").rows.size(), 4u);
  EXPECT_EQ(Exec("SELECT * FROM CAR").rows.size(), 4u);
}

TEST_F(ExecutorTest, ConstantFalseWhereShortCircuits) {
  EXPECT_EQ(Exec("SELECT * FROM Car WHERE 1 = 2").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT * FROM Car WHERE 1 = 1").rows.size(), 4u);
}

TEST_F(ExecutorTest, ResultToStringRendersTable) {
  QueryResult r = Exec("SELECT maker FROM Car WHERE price = 25000");
  std::string s = r.ToString();
  EXPECT_NE(s.find("maker"), std::string::npos);
  EXPECT_NE(s.find("Toyota"), std::string::npos);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  ASSERT_TRUE(
      db_.CreateTable(TableSchema("Dealer", {{"model", ColumnType::kString},
                                             {"city", ColumnType::kString}}))
          .ok());
  Exec("INSERT INTO Dealer VALUES ('Civic', 'San Jose')");
  Exec("INSERT INTO Dealer VALUES ('Avalon', 'Palo Alto')");
  QueryResult r = Exec(
      "SELECT Car.model, Mileage.EPA, Dealer.city FROM Car, Mileage, Dealer "
      "WHERE Car.model = Mileage.model AND Car.model = Dealer.model");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, UpdateLogRecordsDml) {
  size_t before = db_.update_log().size();
  Exec("INSERT INTO Car VALUES ('Ford', 'Focus', 15000)");
  Exec("UPDATE Car SET price = 14000 WHERE model = 'Focus'");
  Exec("DELETE FROM Car WHERE model = 'Focus'");
  // insert=1, update=2 (delete+insert), delete=1.
  EXPECT_EQ(db_.update_log().size(), before + 4);
}

}  // namespace
}  // namespace cacheportal::db
