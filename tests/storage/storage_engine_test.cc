#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace youtopia {
namespace {

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .CreateTable("Flights",
                                 Schema({{"fno", DataType::kInt64, false},
                                         {"dest", DataType::kString, false}}))
                    .ok());
  }

  Tuple Flight(int64_t fno, const std::string& dest) {
    return Tuple({Value::Int64(fno), Value::String(dest)});
  }

  StorageEngine engine_;
};

TEST_F(StorageEngineTest, CreateDuplicateFails) {
  EXPECT_EQ(engine_.CreateTable("flights", Schema(std::vector<Column>{})).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StorageEngineTest, InsertGetScan) {
  auto rid = engine_.Insert("Flights", Flight(122, "Paris"));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(engine_.Get("Flights", rid.value())->at(0).int64_value(), 122);
  ASSERT_TRUE(engine_.Insert("Flights", Flight(136, "Rome")).ok());
  EXPECT_EQ(engine_.Scan("Flights")->size(), 2u);
  EXPECT_EQ(engine_.TableSize("Flights").value(), 2u);
}

TEST_F(StorageEngineTest, OperationsOnMissingTableFail) {
  EXPECT_FALSE(engine_.Insert("Nope", Flight(1, "x")).ok());
  EXPECT_FALSE(engine_.Scan("Nope").ok());
  EXPECT_FALSE(engine_.Get("Nope", 0).ok());
  EXPECT_FALSE(engine_.Delete("Nope", 0).ok());
  EXPECT_FALSE(engine_.TableSize("Nope").ok());
}

TEST_F(StorageEngineTest, DropRemovesTableAndData) {
  ASSERT_TRUE(engine_.Insert("Flights", Flight(1, "Paris")).ok());
  ASSERT_TRUE(engine_.DropTable("Flights").ok());
  EXPECT_FALSE(engine_.Scan("Flights").ok());
  EXPECT_FALSE(engine_.catalog().HasTable("Flights"));
  // Re-creating after drop works.
  EXPECT_TRUE(engine_
                  .CreateTable("Flights",
                               Schema({{"fno", DataType::kInt64, false}}))
                  .ok());
}

TEST_F(StorageEngineTest, IndexMaintainedOnInsert) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(122, "Paris")).ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(123, "Paris")).ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(136, "Rome")).ok());
  auto rids = engine_.IndexLookup("Flights", "dest", Value::String("Paris"));
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 2u);
  EXPECT_TRUE(engine_.HasIndex("Flights", "dest"));
  EXPECT_FALSE(engine_.HasIndex("Flights", "fno"));
}

TEST_F(StorageEngineTest, IndexBackfillsExistingRows) {
  ASSERT_TRUE(engine_.Insert("Flights", Flight(122, "Paris")).ok());
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  auto rids = engine_.IndexLookup("Flights", "dest", Value::String("Paris"));
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 1u);
}

TEST_F(StorageEngineTest, IndexMaintainedOnDeleteAndUpdate) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  auto rid = engine_.Insert("Flights", Flight(122, "Paris"));
  ASSERT_TRUE(rid.ok());

  ASSERT_TRUE(engine_.Update("Flights", rid.value(), Flight(122, "Rome")).ok());
  EXPECT_TRUE(
      engine_.IndexLookup("Flights", "dest", Value::String("Paris"))->empty());
  EXPECT_EQ(
      engine_.IndexLookup("Flights", "dest", Value::String("Rome"))->size(),
      1u);

  ASSERT_TRUE(engine_.Delete("Flights", rid.value()).ok());
  EXPECT_TRUE(
      engine_.IndexLookup("Flights", "dest", Value::String("Rome"))->empty());
}

TEST_F(StorageEngineTest, AbortTxnRestoresRowsAndIndexUnderTheirRowIds) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  auto kept = engine_.Insert("Flights", Flight(122, "Paris"));
  auto moved = engine_.Insert("Flights", Flight(136, "Rome"));
  ASSERT_TRUE(kept.ok() && moved.ok());

  constexpr TxnId kTxn = 42;
  ASSERT_TRUE(engine_.Delete("Flights", kept.value(), kTxn).ok());
  ASSERT_TRUE(
      engine_.Update("Flights", moved.value(), Flight(136, "Oslo"), kTxn)
          .ok());
  auto added = engine_.Insert("Flights", Flight(200, "Oslo"), kTxn);
  ASSERT_TRUE(added.ok());
  // The writer's own current reads see its pending versions.
  EXPECT_EQ(engine_.TableSize("Flights").value(), 2u);
  EXPECT_EQ(
      engine_.IndexLookup("Flights", "dest", Value::String("Oslo"))->size(),
      2u);

  ASSERT_TRUE(engine_.AbortTxn(kTxn).ok());
  EXPECT_EQ(engine_.TableSize("Flights").value(), 2u);
  EXPECT_EQ(engine_.Get("Flights", kept.value())->at(1).string_value(),
            "Paris");
  EXPECT_EQ(engine_.Get("Flights", moved.value())->at(1).string_value(),
            "Rome");
  EXPECT_FALSE(engine_.Get("Flights", added.value()).ok());
  EXPECT_TRUE(
      engine_.IndexLookup("Flights", "dest", Value::String("Oslo"))->empty());
  EXPECT_EQ(
      engine_.IndexLookup("Flights", "dest", Value::String("Paris"))->size(),
      1u);
}

TEST_F(StorageEngineTest, DuplicateIndexFails) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  EXPECT_EQ(engine_.CreateIndex("Flights", "dest").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StorageEngineTest, IndexOnMissingColumnOrTableFails) {
  EXPECT_FALSE(engine_.CreateIndex("Flights", "nope").ok());
  EXPECT_FALSE(engine_.CreateIndex("Nope", "dest").ok());
  EXPECT_FALSE(
      engine_.IndexLookup("Flights", "dest", Value::String("Paris")).ok());
}

TEST_F(StorageEngineTest, CatalogRecordsIndexedColumns) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  auto info = engine_.catalog().GetTable("Flights");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->indexed_columns, std::vector<size_t>{1});
}

// Auto-commit writes (txn 0, also the WAL replay path) prune the chain
// they touch against the low-water mark, as CommitTxn does, so repeated
// updates to one row keep a bounded chain — yet never reclaim a version
// an open snapshot still reads.
TEST_F(StorageEngineTest, AutoCommitWritesPruneAgainstTheLowWaterMark) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  auto rid = engine_.Insert("Flights", Flight(122, "Paris"));
  ASSERT_TRUE(rid.ok());
  {
    SnapshotHandle snapshot(&engine_.mvcc());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine_
                      .Update("Flights", rid.value(),
                              Flight(122, "Rome" + std::to_string(i)))
                      .ok());
    }
    EXPECT_EQ(engine_.VersionCount("Flights", rid.value()).value(), 9u);
    auto old = engine_.IndexLookupSnapshot("Flights", "dest",
                                           Value::String("Paris"),
                                           snapshot.ts());
    ASSERT_TRUE(old.ok());
    EXPECT_EQ(old->size(), 1u);
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine_
                    .Update("Flights", rid.value(),
                            Flight(122, "Oslo" + std::to_string(i)))
                    .ok());
    EXPECT_LE(engine_.VersionCount("Flights", rid.value()).value(), 2u);
  }
  ASSERT_TRUE(engine_.Delete("Flights", rid.value()).ok());
  EXPECT_LE(engine_.VersionCount("Flights", rid.value()).value(), 2u);
  EXPECT_TRUE(
      engine_.IndexLookup("Flights", "dest", Value::String("Oslo63"))->empty());
}

}  // namespace
}  // namespace youtopia
