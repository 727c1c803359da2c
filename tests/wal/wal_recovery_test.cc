// End-to-end durability: a Youtopia instance is destroyed (or "crashes"
// via WalManager::SimulateCrash) and a second instance over the same
// data directory must come back with the committed tables, the pending
// coordinations, and nothing that was never acknowledged.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "server/youtopia.h"
#include "travel/data_generator.h"
#include "travel/travel_schema.h"

namespace youtopia {
namespace {

using std::chrono::milliseconds;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("wal_rec_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

YoutopiaConfig WalConfigFor(const std::string& dir,
                            bool checkpoint_on_shutdown = false) {
  YoutopiaConfig config;
  config.wal.enabled = true;
  config.wal.dir = dir;
  config.wal.fsync = false;  // in-process restarts keep the page cache
  config.wal.checkpoint_on_shutdown = checkpoint_on_shutdown;
  return config;
}

std::vector<int64_t> ColumnInts(Youtopia* db, const std::string& sql) {
  auto rows = db->Execute(sql);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<int64_t> out;
  if (rows.ok()) {
    for (const auto& row : rows->rows) out.push_back(row.at(0).int64_value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(WalRecoveryTest, WalOffIsSeedBehavior) {
  Youtopia db;  // default config: durability off
  EXPECT_EQ(db.wal(), nullptr);
  EXPECT_TRUE(db.recovery_status().ok());
  EXPECT_EQ(db.Checkpoint().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
}

TEST(WalRecoveryTest, DmlAndDdlSurviveRestart) {
  const std::string dir = FreshDir("dml_ddl");
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(db.recovery_status().ok());
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (x INT NOT NULL);"
                                 "INSERT INTO t VALUES (1), (2);"
                                 "CREATE INDEX ON t (x);"
                                 "INSERT INTO t VALUES (3);"
                                 "DELETE FROM t WHERE x = 2;"
                                 "UPDATE t SET x = 30 WHERE x = 3;")
                    .ok());
  }
  Youtopia db(WalConfigFor(dir));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  EXPECT_TRUE(db.storage().catalog().HasTable("t"));
  EXPECT_EQ(ColumnInts(&db, "SELECT x FROM t"),
            (std::vector<int64_t>{1, 30}));
  // The index came back too: an indexed-equality probe finds the row.
  EXPECT_EQ(ColumnInts(&db, "SELECT x FROM t WHERE x = 30"),
            (std::vector<int64_t>{30}));
  EXPECT_GT(db.wal()->stats().recovered_records, 0u);
}

TEST(WalRecoveryTest, PendingSubmissionSurvivesRestartAndMatchesLater) {
  const std::string dir = FreshDir("pending");
  QueryId pending_id = 0;
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(travel::SetupFigure1(&db).ok());
    auto k = db.Submit(
        "SELECT 'K', fno INTO ANSWER Reservation WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest='Paris') AND "
        "('J', fno) IN ANSWER Reservation CHOOSE 1",
        "K");
    ASSERT_TRUE(k.ok());
    EXPECT_FALSE(k->Done());
    pending_id = k->id();
  }
  Youtopia db(WalConfigFor(dir));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  // The submission is back in the pool, original id and owner intact.
  auto pending = db.coordinator().Pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, pending_id);
  EXPECT_EQ(pending[0].owner, "K");
  // The partner arrives after the restart; the recovered query matches
  // it exactly as if the process had never died.
  auto j = db.Submit(
      "SELECT 'J', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Paris') AND "
      "('K', fno) IN ANSWER Reservation CHOOSE 1",
      "J");
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(j->Wait(milliseconds(200)).ok());
  auto rows = db.Execute("SELECT fno FROM Reservation");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_TRUE(db.coordinator().Pending().empty());
  // Recovery seeded the id counter past the recovered query.
  EXPECT_GT(j->id(), pending_id);
}

TEST(WalRecoveryTest, MatchedGroupIsDurableAcrossRestart) {
  const std::string dir = FreshDir("matched");
  std::vector<int64_t> fnos_before;
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(travel::SetupFigure1(&db).ok());
    auto kramer = db.Submit(
        "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest='Paris') AND "
        "('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        "Kramer");
    ASSERT_TRUE(kramer.ok());
    auto jerry = db.Submit(
        "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest='Paris') AND "
        "('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
        "Jerry");
    ASSERT_TRUE(jerry.ok());
    ASSERT_TRUE(kramer->Wait(milliseconds(200)).ok());
    ASSERT_TRUE(jerry->Wait(milliseconds(200)).ok());
    fnos_before = ColumnInts(&db, "SELECT fno FROM Reservation");
    ASSERT_EQ(fnos_before.size(), 2u);
  }
  Youtopia db(WalConfigFor(dir));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  // Both answers of the matched group came back — and the group is
  // resolved, not pending (the install record carries both facts).
  EXPECT_EQ(ColumnInts(&db, "SELECT fno FROM Reservation"), fnos_before);
  EXPECT_TRUE(db.coordinator().Pending().empty());
}

TEST(WalRecoveryTest, CancelledSubmissionDoesNotComeBack) {
  const std::string dir = FreshDir("cancel");
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(travel::SetupFigure1(&db).ok());
    auto k = db.Submit(
        "SELECT 'K', fno INTO ANSWER Reservation WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest='Paris') AND "
        "('J', fno) IN ANSWER Reservation CHOOSE 1",
        "K");
    ASSERT_TRUE(k.ok());
    ASSERT_TRUE(db.coordinator().Cancel(k->id()).ok());
  }
  Youtopia db(WalConfigFor(dir));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  EXPECT_TRUE(db.coordinator().Pending().empty());
}

TEST(WalRecoveryTest, CheckpointThenMoreWritesRestoresBoth) {
  const std::string dir = FreshDir("checkpoint");
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(travel::SetupFigure1(&db).ok());
    auto k = db.Submit(
        "SELECT 'K', fno INTO ANSWER Reservation WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest='Berlin') AND "
        "('J', fno) IN ANSWER Reservation CHOOSE 1",
        "K");
    ASSERT_TRUE(k.ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    // Post-checkpoint tail: replayed on top of the snapshot.
    ASSERT_TRUE(db.Execute("INSERT INTO Flights VALUES (200, 'Oslo')").ok());
  }
  Youtopia db(WalConfigFor(dir));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  auto fnos = ColumnInts(&db, "SELECT fno FROM Flights");
  EXPECT_EQ(fnos, (std::vector<int64_t>{122, 123, 134, 136, 200}));
  // The pending coordination was inside the checkpoint snapshot.
  auto pending = db.coordinator().Pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].owner, "K");
  // ...and it still works: a Berlin flight appearing plus the partner
  // closes the group.
  ASSERT_TRUE(db.Execute("INSERT INTO Flights VALUES (777, 'Berlin')").ok());
  auto j = db.Submit(
      "SELECT 'J', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Berlin') AND "
      "('K', fno) IN ANSWER Reservation CHOOSE 1",
      "J");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->Wait(milliseconds(200)).ok());
}

TEST(WalRecoveryTest, ShutdownCheckpointMakesRestartReplayNothing) {
  const std::string dir = FreshDir("shutdown_cp");
  {
    Youtopia db(WalConfigFor(dir, /*checkpoint_on_shutdown=*/true));
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (x INT NOT NULL);"
                                 "INSERT INTO t VALUES (7);")
                    .ok());
  }
  Youtopia db(WalConfigFor(dir, /*checkpoint_on_shutdown=*/true));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  EXPECT_EQ(ColumnInts(&db, "SELECT x FROM t"), (std::vector<int64_t>{7}));
  // Everything came from the snapshot; the record log was empty.
  EXPECT_EQ(db.wal()->stats().recovered_records, 0u);
}

TEST(WalRecoveryTest, SimulatedCrashKeepsOnlyAcknowledgedWork) {
  const std::string dir = FreshDir("crash");
  {
    // checkpoint_on_shutdown=true exercises the dtor guard: after a
    // crash the final checkpoint must NOT run (it would snapshot state
    // whose log records were lost).
    Youtopia db(WalConfigFor(dir, /*checkpoint_on_shutdown=*/true));
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (x INT NOT NULL);"
                                 "INSERT INTO t VALUES (1);")
                    .ok());
    db.wal()->SimulateCrash();
    // Work after the crash fails and must not survive.
    EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (2)").ok());
  }
  Youtopia db(WalConfigFor(dir));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  EXPECT_EQ(ColumnInts(&db, "SELECT x FROM t"), (std::vector<int64_t>{1}));
}

TEST(WalRecoveryTest, RecoveredStateMatchesLiveStateExactly) {
  // Differential: run the same script against a durable and an
  // in-memory instance, restart the durable one, and diff every table.
  const std::string dir = FreshDir("differential");
  const char* kScript =
      "CREATE TABLE a (x INT NOT NULL);"
      "CREATE TABLE b (y INT NOT NULL, note TEXT NOT NULL);"
      "INSERT INTO a VALUES (1), (2), (3);"
      "INSERT INTO b VALUES (10, 'ten'), (20, 'twenty');"
      "DELETE FROM a WHERE x = 2;"
      "UPDATE b SET note = 'TEN' WHERE y = 10;";
  // Multi-row statements that fail after writing some rows (a NOT NULL
  // violation on a later VALUES row, a division by zero on a later
  // UPDATE row). They are not journaled, so they must leave no trace in
  // the live state either — or live and recovered state diverge.
  const char* kFailing[] = {
      "INSERT INTO a VALUES (4), (NULL)",
      "UPDATE a SET x = 10 / (x - 3)",
      "INSERT INTO b VALUES (30, 'thirty'), (40, NULL)",
  };
  const char* kQueries[] = {"SELECT x FROM a",
                            "SELECT y FROM b WHERE note = 'TEN'",
                            "SELECT y FROM b"};
  Youtopia reference;  // wal off
  ASSERT_TRUE(reference.ExecuteScript(kScript).ok());
  for (const char* sql : kFailing) {
    EXPECT_FALSE(reference.Execute(sql).ok()) << sql;
  }
  std::vector<std::vector<int64_t>> live;
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(db.ExecuteScript(kScript).ok());
    for (const char* sql : kFailing) {
      EXPECT_FALSE(db.Execute(sql).ok()) << sql;
    }
    for (const char* sql : kQueries) live.push_back(ColumnInts(&db, sql));
  }
  Youtopia recovered(WalConfigFor(dir));
  ASSERT_TRUE(recovered.recovery_status().ok());
  for (size_t i = 0; i < std::size(kQueries); ++i) {
    const std::string sql = kQueries[i];
    EXPECT_EQ(ColumnInts(&recovered, sql), live[i]) << sql;
    EXPECT_EQ(ColumnInts(&recovered, sql), ColumnInts(&reference, sql))
        << sql;
  }
}

// Replay writes with auto-commit (txn 0); those writes prune the chain
// they touch, so N replayed updates to one row leave a short chain
// rather than an N-long one (which made replay quadratic).
TEST(WalRecoveryTest, ReplayedUpdatesToOneRowKeepAShortChain) {
  const std::string dir = FreshDir("one_row_chain");
  constexpr int kUpdates = 4096;
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (k INT NOT NULL, n INT);"
                                 "CREATE INDEX ON t (k);"
                                 "INSERT INTO t VALUES (1, 0);")
                    .ok());
    for (int i = 0; i < kUpdates; ++i) {
      ASSERT_TRUE(db.Execute("UPDATE t SET n = n + 1 WHERE k = 1").ok());
    }
  }
  Youtopia recovered(WalConfigFor(dir));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  EXPECT_EQ(ColumnInts(&recovered, "SELECT n FROM t"),
            (std::vector<int64_t>{kUpdates}));
  auto versions = recovered.storage().VersionCount("t", 0);
  ASSERT_TRUE(versions.ok());
  EXPECT_LE(versions.value(), 2u);
}

// Regression: the travel dataset must be seeded through the logged
// statement path. An earlier generator wrote rows straight into the
// StorageEngine — invisible to the WAL — so a kill before the first
// checkpoint replayed the log into *empty* Flights/Seats/Hotels tables,
// every booking domain evaluated empty, and no post-recovery pair could
// ever match (each one timed out in the pending pool).
TEST(WalRecoveryTest, SeededDatasetSurvivesCrashReplayAndNewPairsMatch) {
  const std::string dir = FreshDir("travel_crash");
  {
    Youtopia db(WalConfigFor(dir));
    ASSERT_TRUE(db.recovery_status().ok());
    ASSERT_TRUE(travel::CreateTravelSchema(&db).ok());
    travel::DataGeneratorConfig data;
    data.cities = {"NewYork", "Paris"};
    data.flights_per_route_per_day = 2;
    data.days = 1;
    data.seats_per_flight = 2;
    auto generated = travel::GenerateTravelData(&db, data);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    ASSERT_GT(generated->flights, 0u);
    // Hard crash: no shutdown checkpoint, recovery is pure log replay.
    db.wal()->SimulateCrash();
  }
  Youtopia db(WalConfigFor(dir));
  ASSERT_TRUE(db.recovery_status().ok()) << db.recovery_status().ToString();
  // The domain tables replayed with their rows...
  EXPECT_EQ(ColumnInts(&db, "SELECT fno FROM Flights WHERE dest = 'Paris'")
                .size(),
            2u);
  EXPECT_FALSE(ColumnInts(&db, "SELECT fno FROM Seats").empty());
  EXPECT_FALSE(ColumnInts(&db, "SELECT hid FROM Hotels").empty());
  // ...so a brand-new pair booked against the recovered state matches.
  auto kramer = db.Submit(
      "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Paris') AND "
      "('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
      "Kramer");
  ASSERT_TRUE(kramer.ok()) << kramer.status().ToString();
  auto jerry = db.Submit(
      "SELECT 'Jerry', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Paris') AND "
      "('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
      "Jerry");
  ASSERT_TRUE(jerry.ok()) << jerry.status().ToString();
  ASSERT_TRUE(jerry->Wait(milliseconds(200)).ok());
  EXPECT_TRUE(kramer->Done());
  auto rows = db.Execute("SELECT fno FROM Reservation");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
}

}  // namespace
}  // namespace youtopia
