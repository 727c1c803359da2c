#include "storage/heap_table.h"

#include <gtest/gtest.h>

#include <thread>

namespace youtopia {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"name", DataType::kString, true}});
}

Tuple Row(int64_t id, const std::string& name) {
  return Tuple({Value::Int64(id), Value::String(name)});
}

TEST(HeapTableTest, InsertAndGet) {
  HeapTable table("t", TestSchema());
  auto rid = table.Insert(Row(1, "a"));
  ASSERT_TRUE(rid.ok());
  auto got = table.Get(rid.value());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->at(0).int64_value(), 1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Contains(rid.value()));
}

TEST(HeapTableTest, InsertValidatesSchema) {
  HeapTable table("t", TestSchema());
  EXPECT_FALSE(table.Insert(Tuple({Value::Int64(1)})).ok());  // arity
  EXPECT_FALSE(
      table.Insert(Tuple({Value::Null(), Value::String("x")})).ok());
  EXPECT_FALSE(
      table.Insert(Tuple({Value::String("x"), Value::String("y")})).ok());
}

TEST(HeapTableTest, RowIdsAreSequentialAndNeverReused) {
  HeapTable table("t", TestSchema());
  RowId first = table.Insert(Row(1, "a")).value();
  RowId second = table.Insert(Row(2, "b")).value();
  EXPECT_EQ(second, first + 1);
  ASSERT_TRUE(table.Delete(first).ok());
  RowId third = table.Insert(Row(3, "c")).value();
  EXPECT_GT(third, second);  // tombstoned slot not reused
  EXPECT_FALSE(table.Get(first).ok());
}

TEST(HeapTableTest, DeleteTombstones) {
  HeapTable table("t", TestSchema());
  RowId rid = table.Insert(Row(1, "a")).value();
  EXPECT_TRUE(table.Delete(rid).ok());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Contains(rid));
  // The delete pushed a tombstone over the row; the deleted version
  // stays in the chain until pruning reclaims it.
  EXPECT_EQ(table.VersionCount(rid), 2u);
  EXPECT_EQ(table.VersionTuples(rid).size(), 1u);
  EXPECT_EQ(table.Delete(rid).code(), StatusCode::kNotFound);
  EXPECT_EQ(table.Delete(999).code(), StatusCode::kNotFound);
}

TEST(HeapTableTest, UpdatePushesNewVersion) {
  HeapTable table("t", TestSchema());
  RowId rid = table.Insert(Row(1, "a")).value();
  ASSERT_TRUE(table.Update(rid, Row(1, "z")).ok());
  EXPECT_EQ(table.Get(rid)->at(1).string_value(), "z");
  // The old image is kept behind the new head, same RowId.
  ASSERT_EQ(table.VersionCount(rid), 2u);
  EXPECT_EQ(table.VersionTuples(rid)[1].at(1).string_value(), "a");
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.Update(rid, Tuple({Value::Int64(1)})).ok());
  EXPECT_EQ(table.Update(999, Row(1, "x")).code(), StatusCode::kNotFound);
}

TEST(HeapTableTest, AbortVersionsRestoresTheCommittedChain) {
  HeapTable table("t", TestSchema());
  RowId rid = table.Insert(Row(1, "a")).value();
  constexpr TxnId kWriter = 7;
  ASSERT_TRUE(table.Delete(rid, VersionStamp::Pending(kWriter)).ok());
  EXPECT_FALSE(table.Contains(rid));
  bool cleared = true;
  ASSERT_TRUE(table.AbortVersions(rid, kWriter, nullptr, &cleared).ok());
  // An aborted delete drops its tombstone: the row is back under its
  // original RowId with its original content.
  EXPECT_FALSE(cleared);
  EXPECT_EQ(table.Get(rid)->at(1).string_value(), "a");
  EXPECT_EQ(table.VersionCount(rid), 1u);
  EXPECT_EQ(table.size(), 1u);

  // An aborted insert empties its slot; the RowId is not reused.
  auto pending = table.Insert(Row(2, "b"), VersionStamp::Pending(kWriter));
  ASSERT_TRUE(pending.ok());
  ASSERT_TRUE(
      table.AbortVersions(pending.value(), kWriter, nullptr, &cleared).ok());
  EXPECT_TRUE(cleared);
  EXPECT_FALSE(table.Contains(pending.value()));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_GT(table.Insert(Row(3, "c")).value(), pending.value());
}

TEST(HeapTableTest, ScanReturnsLiveRowsInRidOrder) {
  HeapTable table("t", TestSchema());
  RowId r0 = table.Insert(Row(10, "a")).value();
  RowId r1 = table.Insert(Row(11, "b")).value();
  RowId r2 = table.Insert(Row(12, "c")).value();
  ASSERT_TRUE(table.Delete(r1).ok());
  auto rows = table.Scan();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, r0);
  EXPECT_EQ(rows[1].first, r2);
  EXPECT_EQ(rows[1].second.at(0).int64_value(), 12);
}

TEST(HeapTableTest, ClearRemovesAll) {
  HeapTable table("t", TestSchema());
  table.Insert(Row(1, "a")).value();
  table.Insert(Row(2, "b")).value();
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Scan().empty());
}

TEST(HeapTableTest, ConcurrentInsertsAreLinearized) {
  HeapTable table("t", TestSchema());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(table.Insert(Row(t * 1000 + i, "x")).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(HeapTableTest, CoercionHappensAtInsert) {
  Schema schema({{"price", DataType::kDouble, false}});
  HeapTable table("t", schema);
  RowId rid = table.Insert(Tuple({Value::Int64(10)})).value();
  EXPECT_EQ(table.Get(rid)->at(0).type(), DataType::kDouble);
}

}  // namespace
}  // namespace youtopia
