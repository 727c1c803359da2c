#include "server/youtopia.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "travel/travel_schema.h"

namespace youtopia {
namespace {

using std::chrono::milliseconds;

TEST(YoutopiaTest, ExecuteRegularStatements) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  auto rows = db.Execute("SELECT x FROM t WHERE x > 1");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST(YoutopiaTest, ExecuteRejectsEntangled) {
  Youtopia db;
  auto result = db.Execute("SELECT 'u', x INTO ANSWER R WHERE x IN "
                           "(SELECT x FROM t)");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(YoutopiaTest, ExecuteRejectsBadSql) {
  Youtopia db;
  EXPECT_FALSE(db.Execute("GARBAGE").ok());
  EXPECT_FALSE(db.ExecuteScript("CREATE TABLE t (x INT); GARBAGE;").ok());
}

TEST(YoutopiaTest, ExecuteScriptRunsBatch) {
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE a (x INT);"
                               "CREATE TABLE b (y INT);"
                               "INSERT INTO a VALUES (1);")
                  .ok());
  EXPECT_TRUE(db.storage().catalog().HasTable("a"));
  EXPECT_TRUE(db.storage().catalog().HasTable("b"));
}

TEST(YoutopiaTest, ExecuteScriptMidErrorKeepsPartialExecution) {
  Youtopia db;
  Status status = db.ExecuteScript(
      "CREATE TABLE a (x INT);"
      "INSERT INTO a VALUES (1);"
      "INSERT INTO nosuch VALUES (2);"
      "INSERT INTO a VALUES (3);");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // Partial-execution semantics: statements before the failure stay
  // applied, statements after it never run.
  auto rows = db.Execute("SELECT x FROM a");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].at(0).int64_value(), 1);
}

TEST(YoutopiaTest, ExecuteScriptParseErrorRunsNothing) {
  Youtopia db;
  // A parse error anywhere rejects the whole script before any
  // statement executes (ParseScript is all-or-nothing), unlike a
  // mid-script *execution* error.
  Status status = db.ExecuteScript(
      "CREATE TABLE a (x INT);"
      "THIS IS NOT SQL;");
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(db.storage().catalog().HasTable("a"));
}

std::vector<int64_t> SortedColumn(Youtopia& db, const std::string& sql) {
  auto rows = db.Execute(sql);
  EXPECT_TRUE(rows.ok()) << sql << " -> " << rows.status();
  std::vector<int64_t> out;
  if (!rows.ok()) return out;
  for (const Tuple& t : rows->rows) out.push_back(t.at(0).int64_value());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(YoutopiaTest, FailedMultiRowInsertLeavesNoRows) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT NOT NULL, b TEXT)").ok());
  // The first row is valid and gets written; the second violates NOT
  // NULL. The statement fails as a whole, so the first row must go too.
  auto result = db.Execute("INSERT INTO t VALUES (1, 'x'), (NULL, 'y')");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(SortedColumn(db, "SELECT a FROM t").empty());
  EXPECT_EQ(db.storage().TableSize("t").value(), 0u);
}

TEST(YoutopiaTest, FailedMultiRowUpdateLeavesEveryRowUnchanged) {
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INT NOT NULL);"
                               "INSERT INTO t VALUES (1), (2);")
                  .ok());
  // Row a=1 is rewritten to 10 / -1 = -10 before row a=2 divides by
  // zero; the failed statement must not keep that first write.
  auto result = db.Execute("UPDATE t SET a = 10 / (a - 2)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("division by zero"),
            std::string::npos);
  EXPECT_EQ(SortedColumn(db, "SELECT a FROM t"),
            (std::vector<int64_t>{1, 2}));
  // The table's locks were released: the next statement commits.
  ASSERT_TRUE(db.Execute("UPDATE t SET a = a + 10").ok());
  EXPECT_EQ(SortedColumn(db, "SELECT a FROM t"),
            (std::vector<int64_t>{11, 12}));
}

TEST(YoutopiaTest, PrepareRoutesAndExecutesStaged) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto prepared = db.Prepare("INSERT INTO t VALUES (7)");
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE((*prepared)->entangled);
  EXPECT_EQ((*prepared)->refs.writes.count("t"), 1u);
  auto result = db.ExecutePrepared(**prepared);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected_rows, 1u);

  auto entangled = db.Prepare(
      "SELECT 'u', x INTO ANSWER R WHERE x IN (SELECT x FROM t)");
  ASSERT_TRUE(entangled.ok());
  EXPECT_TRUE((*entangled)->entangled);
  EXPECT_EQ(db.ExecutePrepared(**entangled).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(YoutopiaTest, ExecutePreparedTryFlagsLockConflictOnly) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto prepared = db.Prepare("INSERT INTO t VALUES (1)");
  ASSERT_TRUE(prepared.ok());

  auto blocker = db.txn_manager().Begin();
  ASSERT_TRUE(db.txn_manager()
                  .lock_manager()
                  .TryAcquire(blocker->id(), "t", LockMode::kExclusive)
                  .ok());
  bool conflict = false;
  auto result = db.ExecutePrepared(**prepared, LockWait::kTry, &conflict);
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut);
  EXPECT_TRUE(conflict);
  ASSERT_TRUE(db.txn_manager().Commit(blocker.get()).ok());

  // No conflict: the flag stays false and execution proceeds.
  conflict = false;
  result = db.ExecutePrepared(**prepared, LockWait::kTry, &conflict);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(conflict);
  // A non-lock failure (missing table) must not raise the flag.
  auto missing = db.Prepare("INSERT INTO nosuch VALUES (1)");
  ASSERT_TRUE(missing.ok());
  conflict = false;
  result = db.ExecutePrepared(**missing, LockWait::kTry, &conflict);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(conflict);
}

TEST(YoutopiaTest, SubmitRejectsNonSelect) {
  Youtopia db;
  EXPECT_FALSE(db.Submit("CREATE TABLE t (x INT)").ok());
}

TEST(YoutopiaTest, SubmitRejectsRegularSelect) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  EXPECT_FALSE(db.Submit("SELECT x FROM t").ok());
}

TEST(YoutopiaTest, EndToEndFigure1ThroughSubmit) {
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  auto kramer = db.Submit(
      "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Paris') AND "
      "('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
      "Kramer");
  ASSERT_TRUE(kramer.ok()) << kramer.status();
  auto jerry = db.Submit(
      "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Paris') AND "
      "('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
      "Jerry");
  ASSERT_TRUE(jerry.ok());
  EXPECT_TRUE(kramer->Wait(milliseconds(100)).ok());
  EXPECT_TRUE(jerry->Wait(milliseconds(100)).ok());
  EXPECT_EQ(kramer->Answers()[0].at(1), jerry->Answers()[0].at(1));
}

TEST(YoutopiaTest, RunAutoDetectsKind) {
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());

  auto regular = db.Run("SELECT fno FROM Flights WHERE dest='Rome'");
  ASSERT_TRUE(regular.ok());
  EXPECT_FALSE(regular->entangled);
  EXPECT_EQ(regular->result.rows.size(), 1u);

  auto entangled = db.Run(
      "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1",
      "Solo");
  ASSERT_TRUE(entangled.ok()) << entangled.status();
  EXPECT_TRUE(entangled->entangled);
  ASSERT_TRUE(entangled->handle.has_value());
  EXPECT_TRUE(entangled->handle->Done());
}

TEST(YoutopiaTest, DmlAutoRetriggersDependentQueries) {
  // A pair waits for a Berlin flight; a regular INSERT creating one
  // completes them without any manual retrigger call.
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  auto k = db.Submit(
      "SELECT 'K', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Berlin') AND "
      "('J', fno) IN ANSWER Reservation CHOOSE 1", "K");
  auto j = db.Submit(
      "SELECT 'J', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Berlin') AND "
      "('K', fno) IN ANSWER Reservation CHOOSE 1", "J");
  ASSERT_TRUE(k.ok());
  ASSERT_TRUE(j.ok());
  EXPECT_FALSE(j->Done());

  ASSERT_TRUE(db.Execute("INSERT INTO Flights VALUES (777, 'Berlin')").ok());
  EXPECT_TRUE(k->Done());
  EXPECT_TRUE(j->Done());
  EXPECT_EQ(k->Answers()[0].at(1).int64_value(), 777);
}

TEST(YoutopiaTest, DmlRetriggerCanBeDisabled) {
  YoutopiaConfig config;
  config.retrigger_on_dml = false;
  Youtopia db(config);
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  auto solo = db.Submit(
      "SELECT 'S', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Berlin') CHOOSE 1", "S");
  ASSERT_TRUE(solo.ok());
  EXPECT_FALSE(solo->Done());
  ASSERT_TRUE(db.Execute("INSERT INTO Flights VALUES (777, 'Berlin')").ok());
  EXPECT_FALSE(solo->Done());  // stays pending until explicit retrigger
  auto satisfied = db.coordinator().RetriggerAll();
  ASSERT_TRUE(satisfied.ok());
  EXPECT_EQ(satisfied.value(), 1u);
  EXPECT_TRUE(solo->Done());
}

TEST(YoutopiaTest, BrowseThenBookPath) {
  // The demo's alternate path (Figure 4): browse friends' bookings with
  // a regular query, then book directly.
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  auto direct = db.Submit(
      "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE fno = 122) CHOOSE 1",
      "Kramer");
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->Done());

  // Jerry browses: who is on flight 122?
  auto who = db.Execute("SELECT traveler FROM Reservation WHERE fno = 122");
  ASSERT_TRUE(who.ok());
  ASSERT_EQ(who->rows.size(), 1u);
  EXPECT_EQ(who->rows[0].at(0).string_value(), "Kramer");

  // Jerry books with the partner constraint satisfied from storage.
  auto jerry = db.Submit(
      "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Paris') AND "
      "('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
      "Jerry");
  ASSERT_TRUE(jerry.ok());
  EXPECT_TRUE(jerry->Done());
  EXPECT_EQ(jerry->Answers()[0].at(1).int64_value(), 122);
  EXPECT_GE(db.coordinator().stats().constraints_from_stored, 1u);
}

}  // namespace
}  // namespace youtopia
