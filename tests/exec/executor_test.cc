#include "exec/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sql/parser.h"

namespace youtopia {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    executor_ = std::make_unique<Executor>(&storage_);
    Run("CREATE TABLE Flights (fno INT NOT NULL, dest TEXT NOT NULL, "
        "price INT NOT NULL)");
    Run("INSERT INTO Flights VALUES (122, 'Paris', 400), "
        "(123, 'Paris', 900), (134, 'Paris', 350), (136, 'Rome', 500)");
  }

  QueryResult Run(const std::string& sql) {
    auto stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << sql << " -> " << stmt.status();
    auto result = executor_->Execute(*stmt.value());
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? result.TakeValue() : QueryResult{};
  }

  Result<QueryResult> TryRun(const std::string& sql) {
    auto stmt = Parser::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    return executor_->Execute(*stmt.value());
  }

  StorageEngine storage_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, SelectWithFilter) {
  auto result = Run("SELECT fno FROM Flights WHERE dest = 'Paris'");
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST_F(ExecutorTest, SelectProjectionExpressions) {
  auto result = Run("SELECT fno, price / 2 FROM Flights WHERE fno = 122");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(1).int64_value(), 200);
  EXPECT_EQ(result.column_names[1], "price / 2");
}

TEST_F(ExecutorTest, SelectStar) {
  auto result = Run("SELECT * FROM Flights");
  EXPECT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.column_names.size(), 3u);
}

TEST_F(ExecutorTest, ConstantSelect) {
  auto result = Run("SELECT 2 + 3, 'hi'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(0).int64_value(), 5);
  EXPECT_EQ(result.rows[0].at(1).string_value(), "hi");
}

TEST_F(ExecutorTest, JoinTwoTables) {
  Run("CREATE TABLE Airlines (fno INT NOT NULL, airline TEXT NOT NULL)");
  Run("INSERT INTO Airlines VALUES (122, 'United'), (136, 'Alitalia')");
  auto result = Run(
      "SELECT f.fno, a.airline FROM Flights f, Airlines a "
      "WHERE f.fno = a.fno AND f.dest = 'Paris'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(0).int64_value(), 122);
  EXPECT_EQ(result.rows[0].at(1).string_value(), "United");
}

TEST_F(ExecutorTest, InsertReportsAffectedRows) {
  auto result = Run("INSERT INTO Flights VALUES (200, 'Berlin', 100), "
                    "(201, 'Berlin', 120)");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_EQ(Run("SELECT * FROM Flights").rows.size(), 6u);
}

TEST_F(ExecutorTest, InsertTypeMismatchFails) {
  EXPECT_FALSE(TryRun("INSERT INTO Flights VALUES ('x', 'Paris', 1)").ok());
  EXPECT_FALSE(TryRun("INSERT INTO Flights VALUES (1, 'Paris')").ok());
}

TEST_F(ExecutorTest, DeleteWithPredicate) {
  auto result = Run("DELETE FROM Flights WHERE dest = 'Paris'");
  EXPECT_EQ(result.affected_rows, 3u);
  EXPECT_EQ(Run("SELECT * FROM Flights").rows.size(), 1u);
}

TEST_F(ExecutorTest, DeleteAll) {
  EXPECT_EQ(Run("DELETE FROM Flights").affected_rows, 4u);
  EXPECT_TRUE(Run("SELECT * FROM Flights").rows.empty());
}

TEST_F(ExecutorTest, UpdateComputedAssignment) {
  auto result = Run("UPDATE Flights SET price = price + 50 "
                    "WHERE dest = 'Paris'");
  EXPECT_EQ(result.affected_rows, 3u);
  auto check = Run("SELECT price FROM Flights WHERE fno = 122");
  EXPECT_EQ(check.rows[0].at(0).int64_value(), 450);
  // Non-matching rows untouched.
  auto rome = Run("SELECT price FROM Flights WHERE fno = 136");
  EXPECT_EQ(rome.rows[0].at(0).int64_value(), 500);
}

TEST_F(ExecutorTest, UpdateUnknownColumnFails) {
  EXPECT_FALSE(TryRun("UPDATE Flights SET nope = 1").ok());
}

TEST_F(ExecutorTest, CreateIndexAndUseIt) {
  Run("CREATE INDEX ON Flights (dest)");
  auto result = Run("SELECT fno FROM Flights WHERE dest = 'Rome'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(0).int64_value(), 136);
}

TEST_F(ExecutorTest, DropTable) {
  Run("DROP TABLE Flights");
  EXPECT_FALSE(TryRun("SELECT * FROM Flights").ok());
}

TEST_F(ExecutorTest, InSubquery) {
  Run("CREATE TABLE Cheap (fno INT NOT NULL)");
  Run("INSERT INTO Cheap VALUES (122), (134)");
  auto result = Run(
      "SELECT fno FROM Flights WHERE fno IN (SELECT fno FROM Cheap)");
  EXPECT_EQ(result.rows.size(), 2u);
  auto negated = Run(
      "SELECT fno FROM Flights WHERE fno NOT IN (SELECT fno FROM Cheap)");
  EXPECT_EQ(negated.rows.size(), 2u);
}

TEST_F(ExecutorTest, SubqueryMustBeSingleColumn) {
  EXPECT_FALSE(
      TryRun("SELECT fno FROM Flights WHERE fno IN (SELECT * FROM Flights)")
          .ok());
}

TEST_F(ExecutorTest, InAnswerAgainstStoredRelation) {
  Run("CREATE TABLE Reservation (traveler TEXT NOT NULL, fno INT NOT NULL)");
  Run("INSERT INTO Reservation VALUES ('Kramer', 122)");
  // Browse-then-book: regular query probing the answer relation.
  auto result = Run(
      "SELECT fno FROM Flights WHERE ('Kramer', fno) IN ANSWER Reservation");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(0).int64_value(), 122);
}

TEST_F(ExecutorTest, InAnswerArityMismatchFails) {
  Run("CREATE TABLE Reservation (traveler TEXT NOT NULL, fno INT NOT NULL)");
  EXPECT_FALSE(
      TryRun("SELECT fno FROM Flights WHERE (fno) IN ANSWER Reservation")
          .ok());
}

TEST_F(ExecutorTest, InAnswerMissingRelationFails) {
  EXPECT_FALSE(
      TryRun("SELECT fno FROM Flights WHERE ('K', fno) IN ANSWER Nope").ok());
}

TEST_F(ExecutorTest, QueryResultToStringRendersTable) {
  auto result = Run("SELECT fno FROM Flights WHERE fno = 122");
  const std::string rendered = result.ToString();
  EXPECT_NE(rendered.find("fno"), std::string::npos);
  EXPECT_NE(rendered.find("122"), std::string::npos);
  EXPECT_NE(rendered.find("1 row(s)"), std::string::npos);
}

TEST_F(ExecutorTest, DmlResultToString) {
  auto result = Run("DELETE FROM Flights WHERE fno = 122");
  EXPECT_NE(result.ToString().find("1 row(s) affected"), std::string::npos);
}

// `k = <literal>` must mean the same with and without an index on k.
// The index holds stored values, hashes by exact type and keeps NULL
// keys, so only a literal it answers exactly may probe it: an INT
// column probed with 1.0 would miss the row, probed with NULL would
// find the NULL row, and probed with 'x' would hide the type error.
// Each case runs on two copies of t(k INT, v INT) = (1,10), (2,20),
// (NULL,30); only the second indexes k.
class IndexLiteralTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (size_t i = 0; i < 2; ++i) {
      executors_[i] = std::make_unique<Executor>(&storage_[i]);
      ASSERT_TRUE(Exec(i, "CREATE TABLE t (k INT, v INT)").ok());
      ASSERT_TRUE(Exec(i, "INSERT INTO t VALUES (1, 10), (2, 20), (NULL, 30)")
                      .ok());
    }
    ASSERT_TRUE(Exec(1, "CREATE INDEX ON t (k)").ok());
  }

  Result<QueryResult> Exec(size_t i, const std::string& sql) {
    auto stmt = Parser::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    return executors_[i]->Execute(*stmt.value());
  }

  /// Sorted `v` column of t on copy `i`.
  std::vector<int64_t> Vs(size_t i) {
    auto rows = Exec(i, "SELECT v FROM t");
    EXPECT_TRUE(rows.ok());
    std::vector<int64_t> out;
    if (rows.ok()) {
      for (const Tuple& row : rows->rows) out.push_back(row.at(0).int64_value());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  StorageEngine storage_[2];
  std::unique_ptr<Executor> executors_[2];
};

TEST_F(IndexLiteralTest, SelectDoubleLiteralMatchesIntKeyNumerically) {
  for (size_t i = 0; i < 2; ++i) {
    auto rows = Exec(i, "SELECT v FROM t WHERE k = 1.0");
    ASSERT_TRUE(rows.ok()) << "copy " << i;
    ASSERT_EQ(rows->rows.size(), 1u) << "copy " << i;
    EXPECT_EQ(rows->rows[0].at(0).int64_value(), 10);
  }
}

TEST_F(IndexLiteralTest, SelectNullLiteralMatchesNoRow) {
  for (size_t i = 0; i < 2; ++i) {
    auto rows = Exec(i, "SELECT v FROM t WHERE k = NULL");
    ASSERT_TRUE(rows.ok()) << "copy " << i;
    EXPECT_TRUE(rows->rows.empty()) << "copy " << i;
  }
}

TEST_F(IndexLiteralTest, SelectTextLiteralOnIntKeyIsATypeError) {
  for (size_t i = 0; i < 2; ++i) {
    auto rows = Exec(i, "SELECT v FROM t WHERE k = 'x'");
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument)
        << "copy " << i;
  }
}

TEST_F(IndexLiteralTest, UpdateFollowsTheSameLiteralRule) {
  for (size_t i = 0; i < 2; ++i) {
    auto one = Exec(i, "UPDATE t SET v = v + 1 WHERE k = 1.0");
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->affected_rows, 1u) << "copy " << i;
    auto none = Exec(i, "UPDATE t SET v = v + 1 WHERE k = NULL");
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none->affected_rows, 0u) << "copy " << i;
    EXPECT_EQ(Exec(i, "UPDATE t SET v = 0 WHERE k = 'x'").status().code(),
              StatusCode::kInvalidArgument)
        << "copy " << i;
    EXPECT_EQ(Vs(i), (std::vector<int64_t>{11, 20, 30})) << "copy " << i;
  }
}

TEST_F(IndexLiteralTest, DeleteFollowsTheSameLiteralRule) {
  for (size_t i = 0; i < 2; ++i) {
    auto none = Exec(i, "DELETE FROM t WHERE k = NULL");
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none->affected_rows, 0u) << "copy " << i;
    EXPECT_EQ(Exec(i, "DELETE FROM t WHERE k = 'x'").status().code(),
              StatusCode::kInvalidArgument)
        << "copy " << i;
    auto one = Exec(i, "DELETE FROM t WHERE k = 1.0");
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->affected_rows, 1u) << "copy " << i;
    EXPECT_EQ(Vs(i), (std::vector<int64_t>{20, 30})) << "copy " << i;
  }
}

TEST_F(IndexLiteralTest, IntLiteralProbesADoubleKey) {
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(Exec(i, "CREATE TABLE p (x DOUBLE, v INT)").ok());
    ASSERT_TRUE(Exec(i, "INSERT INTO p VALUES (2, 1), (2.5, 2)").ok());
  }
  ASSERT_TRUE(Exec(1, "CREATE INDEX ON p (x)").ok());
  for (size_t i = 0; i < 2; ++i) {
    auto rows = Exec(i, "SELECT v FROM p WHERE x = 2");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 1u) << "copy " << i;
    EXPECT_EQ(rows->rows[0].at(0).int64_value(), 1);
    auto updated = Exec(i, "UPDATE p SET v = 7 WHERE x = 2");
    ASSERT_TRUE(updated.ok());
    EXPECT_EQ(updated->affected_rows, 1u) << "copy " << i;
  }
}

// The probe picks the candidates; the full WHERE is still evaluated on
// each. Updating the probed column reads every candidate before the
// first write, so a row moved to the next key is not visited again.
TEST_F(IndexLiteralTest, UpdateOfProbedColumnIsHalloweenSafe) {
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(Exec(i, "INSERT INTO t VALUES (1, 11)").ok());
    auto moved = Exec(i, "UPDATE t SET k = k + 1 WHERE k = 1");
    ASSERT_TRUE(moved.ok());
    EXPECT_EQ(moved->affected_rows, 2u) << "copy " << i;
    auto residual = Exec(i, "DELETE FROM t WHERE k = 2 AND v > 10");
    ASSERT_TRUE(residual.ok());
    EXPECT_EQ(residual->affected_rows, 2u) << "copy " << i;
    EXPECT_EQ(Vs(i), (std::vector<int64_t>{10, 30})) << "copy " << i;
  }
}

// The WHERE runs only on the probed rows: a conjunct that fails on a
// row outside the key's candidates (division by zero at v = 10) errors
// on a scan but not through the index.
TEST_F(IndexLiteralTest, DmlEvaluatesWhereOnlyOnProbedRows) {
  const char* kSql = "UPDATE t SET v = 0 WHERE k = 2 AND 10 / (v - 10) > 0";
  EXPECT_EQ(Exec(0, kSql).status().code(), StatusCode::kInvalidArgument);
  auto indexed = Exec(1, kSql);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_EQ(indexed->affected_rows, 1u);
}

}  // namespace
}  // namespace youtopia
