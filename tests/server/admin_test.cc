#include "server/admin.h"

#include <gtest/gtest.h>

#include "travel/travel_schema.h"

namespace youtopia {
namespace {

TEST(AdminTest, SnapshotListsTablesWithRowCounts) {
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  auto snapshot = TakeAdminSnapshot(db);
  ASSERT_EQ(snapshot.tables.size(), 3u);  // Airlines, Flights, Reservation
  bool saw_flights = false;
  for (const auto& t : snapshot.tables) {
    if (t.name == "Flights") {
      saw_flights = true;
      EXPECT_EQ(t.rows, 4u);
      EXPECT_EQ(t.indexed_columns, std::vector<std::string>{"dest"});
    }
  }
  EXPECT_TRUE(saw_flights);
}

TEST(AdminTest, SnapshotShowsPendingQueriesAndGraph) {
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  ASSERT_TRUE(db.Submit(
                    "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno "
                    "IN (SELECT fno FROM Flights WHERE dest='Paris') AND "
                    "('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
                    "Kramer")
                  .ok());
  auto snapshot = TakeAdminSnapshot(db);
  ASSERT_EQ(snapshot.pending.size(), 1u);
  EXPECT_EQ(snapshot.pending[0].owner, "Kramer");
  EXPECT_EQ(snapshot.stats.submitted, 1u);
  EXPECT_NE(snapshot.match_graph.find("1 pending queries"),
            std::string::npos);

  const std::string rendered = snapshot.ToString();
  EXPECT_NE(rendered.find("Youtopia system state"), std::string::npos);
  EXPECT_NE(rendered.find("Pending entangled queries"), std::string::npos);
  EXPECT_NE(rendered.find("Kramer"), std::string::npos);
  EXPECT_NE(rendered.find("head:"), std::string::npos);
}

TEST(AdminTest, SnapshotReportsPerShardStats) {
  YoutopiaConfig config;
  config.coordinator.num_shards = 4;
  Youtopia db(config);
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  ASSERT_TRUE(db.Submit(
                    "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno "
                    "IN (SELECT fno FROM Flights WHERE dest='Paris') AND "
                    "('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
                    "Kramer")
                  .ok());
  auto snapshot = TakeAdminSnapshot(db);
  ASSERT_EQ(snapshot.shards.size(), 4u);
  size_t submitted = 0;
  size_t pending = 0;
  for (const auto& shard : snapshot.shards) {
    submitted += shard.stats.submitted;
    pending += shard.pending;
  }
  EXPECT_EQ(submitted, snapshot.stats.submitted);
  EXPECT_EQ(pending, 1u);
  EXPECT_EQ(snapshot.stats.shard_rounds, 1u);

  const std::string rendered = snapshot.ToString();
  EXPECT_NE(rendered.find("Coordinator shards"), std::string::npos);
  EXPECT_NE(rendered.find("shard 0:"), std::string::npos);
  EXPECT_NE(rendered.find("shard 3:"), std::string::npos);
  EXPECT_NE(rendered.find("shard_rounds=1"), std::string::npos);
}

TEST(AdminTest, EmptySystemSnapshot) {
  Youtopia db;
  auto snapshot = TakeAdminSnapshot(db);
  EXPECT_TRUE(snapshot.tables.empty());
  EXPECT_TRUE(snapshot.pending.empty());
  EXPECT_NE(snapshot.ToString().find("(none)"), std::string::npos);
}

TEST(AdminTest, SnapshotReportsMvccClockAndSnapshots) {
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (x INT);"
                               "INSERT INTO t VALUES (1);"
                               "UPDATE t SET x = 2;")
                  .ok());
  SnapshotHandle open_snapshot = db.txn_manager().OpenSnapshot();
  auto snapshot = TakeAdminSnapshot(db);
  // Each committed statement drew a timestamp; the watermark caught up.
  EXPECT_GE(snapshot.mvcc.clock, kBaseTs + 2);
  EXPECT_EQ(snapshot.mvcc.watermark, snapshot.mvcc.clock);
  EXPECT_EQ(snapshot.mvcc.active_snapshots, 1u);
  const std::string rendered = snapshot.ToString();
  const std::string expected =
      "-- MVCC --\n  clock=" + std::to_string(snapshot.mvcc.clock) +
      " watermark=" + std::to_string(snapshot.mvcc.watermark) +
      " active_snapshots=1\n";
  EXPECT_NE(rendered.find(expected), std::string::npos) << rendered;
}

}  // namespace
}  // namespace youtopia
