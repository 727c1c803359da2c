// Snapshot-visibility edge cases for the MVCC subsystem (design
// decision #10): the watermark protocol that keeps multi-row commits
// atomic to lock-free readers, and version-chain retention by the GC
// low-water mark: every version a live snapshot can still see is kept,
// every version none can see is reclaimed. The threaded cases run under
// ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "storage/heap_table.h"
#include "storage/storage_engine.h"
#include "txn/mvcc.h"

namespace youtopia {
namespace {

Schema TestSchema() {
  return Schema({{"k", DataType::kInt64, false},
                 {"v", DataType::kInt64, false}});
}

Tuple Row(int64_t k, int64_t v) {
  return Tuple({Value::Int64(k), Value::Int64(v)});
}

// ---------------------------------------------------------------- clock

TEST(MvccControllerTest, WatermarkHoldsBelowOldestInflightCommit) {
  MvccController mvcc;
  const Ts t1 = mvcc.BeginCommit();
  const Ts t2 = mvcc.BeginCommit();
  ASSERT_GT(t2, t1);
  // T2 finishes first; T1 is still stamping rows, so no snapshot may
  // open at or above t1 — it could catch T1's commit half-applied.
  mvcc.EndCommit(t2);
  {
    SnapshotHandle snap(&mvcc);
    EXPECT_LT(snap.ts(), t1);
  }
  mvcc.EndCommit(t1);
  SnapshotHandle snap(&mvcc);
  EXPECT_GE(snap.ts(), t2);
}

TEST(MvccControllerTest, LowWaterTracksOldestActiveSnapshot) {
  MvccController mvcc;
  SnapshotHandle old_snap(&mvcc);
  const Ts pinned = old_snap.ts();
  // Commits advance the watermark, but the low-water mark stays pinned
  // at the open snapshot.
  for (int i = 0; i < 3; ++i) mvcc.EndCommit(mvcc.BeginCommit());
  EXPECT_GT(mvcc.watermark(), pinned);
  EXPECT_EQ(mvcc.LowWater(), pinned);
  old_snap.Release();
  EXPECT_EQ(mvcc.LowWater(), mvcc.watermark());
}

// ----------------------------------------------------------- visibility

class MvccVisibilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage_.CreateTable("T", TestSchema()).ok());
  }

  StorageEngine storage_;
};

TEST_F(MvccVisibilityTest, SnapshotIgnoresPendingAndLaterCommits) {
  auto rid = storage_.Insert("T", Row(1, 10));
  ASSERT_TRUE(rid.ok());

  SnapshotHandle snap(&storage_.mvcc());
  // A concurrent writer's pending version is invisible regardless of
  // timestamps.
  constexpr TxnId kWriter = 77;
  ASSERT_TRUE(storage_.Update("T", rid.value(), Row(1, 20), kWriter).ok());
  auto seen = storage_.GetSnapshot("T", rid.value(), snap.ts());
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->at(1).int64_value(), 10);
  // ...and stays invisible to this snapshot even after the writer
  // commits (the commit timestamp is newer than the snapshot).
  ASSERT_TRUE(storage_.CommitTxn(kWriter).ok());
  seen = storage_.GetSnapshot("T", rid.value(), snap.ts());
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->at(1).int64_value(), 10);
  // A snapshot opened after the commit sees the new value.
  SnapshotHandle fresh(&storage_.mvcc());
  seen = storage_.GetSnapshot("T", rid.value(), fresh.ts());
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->at(1).int64_value(), 20);
}

TEST_F(MvccVisibilityTest, SnapshotSeesDeleteOnlyAfterCommit) {
  auto rid = storage_.Insert("T", Row(1, 10));
  ASSERT_TRUE(rid.ok());
  SnapshotHandle snap(&storage_.mvcc());
  constexpr TxnId kWriter = 5;
  ASSERT_TRUE(storage_.Delete("T", rid.value(), kWriter).ok());
  ASSERT_TRUE(storage_.CommitTxn(kWriter).ok());
  // The old snapshot still browses the deleted row; a fresh one does
  // not.
  EXPECT_TRUE(storage_.GetSnapshot("T", rid.value(), snap.ts()).ok());
  EXPECT_EQ(storage_.ScanSnapshot("T", snap.ts()).value().size(), 1u);
  SnapshotHandle fresh(&storage_.mvcc());
  EXPECT_FALSE(storage_.GetSnapshot("T", rid.value(), fresh.ts()).ok());
  EXPECT_EQ(storage_.ScanSnapshot("T", fresh.ts()).value().size(), 0u);
}

TEST_F(MvccVisibilityTest, GcNeverReclaimsWhatALiveSnapshotSees) {
  auto rid = storage_.Insert("T", Row(1, 0));
  ASSERT_TRUE(rid.ok());
  SnapshotHandle old_snap(&storage_.mvcc());

  // Eight commits while the old snapshot is open: the version it reads
  // must survive every one of them.
  for (int64_t i = 1; i <= 8; ++i) {
    const TxnId txn = 100 + static_cast<TxnId>(i);
    ASSERT_TRUE(storage_.Update("T", rid.value(), Row(1, i), txn).ok());
    ASSERT_TRUE(storage_.CommitTxn(txn).ok());
  }
  auto seen = storage_.GetSnapshot("T", rid.value(), old_snap.ts());
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->at(1).int64_value(), 0);

  // After the snapshot closes, vacuum trims the chain to the newest
  // version — the original version is reclaimable now.
  const Ts released_ts = old_snap.ts();
  old_snap.Release();
  storage_.Vacuum();
  EXPECT_FALSE(storage_.GetSnapshot("T", rid.value(), released_ts).ok());
  SnapshotHandle fresh(&storage_.mvcc());
  seen = storage_.GetSnapshot("T", rid.value(), fresh.ts());
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->at(1).int64_value(), 8);
}

TEST_F(MvccVisibilityTest, AbortDiscardsPendingVersions) {
  auto rid = storage_.Insert("T", Row(1, 10));
  ASSERT_TRUE(rid.ok());
  constexpr TxnId kWriter = 9;
  ASSERT_TRUE(storage_.Update("T", rid.value(), Row(1, 20), kWriter).ok());
  ASSERT_TRUE(storage_.AbortTxn(kWriter).ok());
  SnapshotHandle snap(&storage_.mvcc());
  auto seen = storage_.GetSnapshot("T", rid.value(), snap.ts());
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->at(1).int64_value(), 10);
  // Current reads agree.
  EXPECT_EQ(storage_.Get("T", rid.value())->at(1).int64_value(), 10);
}

TEST_F(MvccVisibilityTest, IndexLookupSnapshotResolvesAtTheSnapshot) {
  ASSERT_TRUE(storage_.CreateIndex("T", "v").ok());
  auto rid = storage_.Insert("T", Row(1, 10));
  ASSERT_TRUE(rid.ok());
  SnapshotHandle snap(&storage_.mvcc());
  constexpr TxnId kWriter = 3;
  ASSERT_TRUE(storage_.Update("T", rid.value(), Row(1, 20), kWriter).ok());
  ASSERT_TRUE(storage_.CommitTxn(kWriter).ok());

  // The old snapshot finds the row under its old key, not the new one.
  auto old_key = storage_.IndexLookupSnapshot("T", "v", Value::Int64(10),
                                              snap.ts());
  ASSERT_TRUE(old_key.ok());
  ASSERT_EQ(old_key->size(), 1u);
  EXPECT_EQ(old_key->at(0).second.at(1).int64_value(), 10);
  auto new_key = storage_.IndexLookupSnapshot("T", "v", Value::Int64(20),
                                              snap.ts());
  ASSERT_TRUE(new_key.ok());
  EXPECT_TRUE(new_key->empty());

  // A fresh snapshot sees the flip, and the *current* lookup contract
  // (head version only) holds for existing consumers.
  SnapshotHandle fresh(&storage_.mvcc());
  new_key = storage_.IndexLookupSnapshot("T", "v", Value::Int64(20),
                                         fresh.ts());
  ASSERT_TRUE(new_key.ok());
  EXPECT_EQ(new_key->size(), 1u);
  EXPECT_EQ(storage_.IndexLookup("T", "v", Value::Int64(10))->size(), 0u);
  EXPECT_EQ(storage_.IndexLookup("T", "v", Value::Int64(20))->size(), 1u);
}

// ----------------------------------------------------------- truncation

TEST(MvccTruncationTest, RetentionFollowsTheLowWaterMark) {
  StorageEngine storage;
  ASSERT_TRUE(storage.CreateTable("T", TestSchema()).ok());
  auto rid = storage.Insert("T", Row(1, 0));
  ASSERT_TRUE(rid.ok());
  TxnId next_txn = 40;
  auto commit_update = [&](int64_t v) {
    const TxnId txn = ++next_txn;
    ASSERT_TRUE(storage.Update("T", rid.value(), Row(1, v), txn).ok());
    ASSERT_TRUE(storage.CommitTxn(txn).ok());
  };
  // Versions still in the chain, counted from the outside: every update
  // writes a distinct value and commits at its own timestamp, so each
  // retained version is what exactly one band of timestamps resolves
  // to, and a reclaimed one is what no timestamp resolves to anymore.
  auto retained = [&] {
    std::set<int64_t> seen;
    for (Ts ts = kBaseTs; ts <= storage.mvcc().clock(); ++ts) {
      auto row = storage.GetSnapshot("T", rid.value(), ts);
      if (row.ok()) seen.insert(row->at(1).int64_value());
    }
    return seen.size();
  };

  // No snapshot open. While a commit stamps, the low-water mark sits at
  // the previous commit, so pruning keeps the new head plus the version
  // below it: at most 2 versions per chain.
  for (int64_t v = 1; v <= 8; ++v) {
    commit_update(v);
    EXPECT_LE(retained(), 2u) << "after update " << v;
  }
  // Once nothing is in flight, the head alone is reachable.
  storage.Vacuum();
  EXPECT_EQ(retained(), 1u);

  // An open snapshot pins its version: it stays readable across every
  // later commit, and so does everything newer than it.
  SnapshotHandle snap(&storage.mvcc());
  const Ts pinned = snap.ts();
  for (int64_t v = 9; v <= 12; ++v) {
    commit_update(v);
    auto row = storage.GetSnapshot("T", rid.value(), pinned);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->at(1).int64_value(), 8);
  }
  EXPECT_EQ(retained(), 5u);  // 8 (pinned) and 9..12
  // Closing the snapshot frees the pinned version; the next commit
  // reclaims it.
  snap.Release();
  commit_update(13);
  EXPECT_FALSE(storage.GetSnapshot("T", rid.value(), pinned).ok());
  EXPECT_EQ(retained(), 2u);

  // Vacuum reclaims a released snapshot's version too, without waiting
  // for another commit.
  SnapshotHandle second(&storage.mvcc());
  const Ts second_ts = second.ts();
  commit_update(14);
  commit_update(15);
  ASSERT_EQ(storage.GetSnapshot("T", rid.value(), second_ts)
                ->at(1)
                .int64_value(),
            13);
  second.Release();
  storage.Vacuum();
  EXPECT_FALSE(storage.GetSnapshot("T", rid.value(), second_ts).ok());
  EXPECT_EQ(retained(), 1u);
  EXPECT_EQ(storage.Get("T", rid.value())->at(1).int64_value(), 15);
}

TEST(MvccTruncationTest, IntraTxnRewritesCollapseToOnePendingVersion) {
  HeapTable table("t", TestSchema());
  auto rid = table.Insert(Row(1, 0));
  ASSERT_TRUE(rid.ok());
  constexpr TxnId kWriter = 6;
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(table
                    .Update(rid.value(), Row(1, i),
                            VersionStamp::Pending(kWriter))
                    .ok());
  }
  // One pending version (the last rewrite) atop the committed base.
  EXPECT_EQ(table.VersionCount(rid.value()), 2u);
  ASSERT_TRUE(table
                  .CommitVersions(rid.value(), kWriter, kBaseTs + 1, kBaseTs,
                                  nullptr, nullptr)
                  .ok());
  EXPECT_EQ(table.Get(rid.value())->at(1).int64_value(), 5);
}

// ----------------------------------------------------------- concurrency

TEST(MvccConcurrencyTest, ReadersNeverObserveATornMultiRowCommit) {
  // A writer updates two rows inside each transaction; concurrent
  // lock-free readers must see both rows move together — the watermark
  // protocol in action, mid-commit snapshots included. Run under TSan.
  StorageEngine storage;
  ASSERT_TRUE(storage.CreateTable("T", TestSchema()).ok());
  auto rid_a = storage.Insert("T", Row(1, 0));
  auto rid_b = storage.Insert("T", Row(2, 0));
  ASSERT_TRUE(rid_a.ok() && rid_b.ok());

  std::atomic<bool> done{false};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        SnapshotHandle snap(&storage.mvcc());
        auto a = storage.GetSnapshot("T", rid_a.value(), snap.ts());
        auto b = storage.GetSnapshot("T", rid_b.value(), snap.ts());
        if (!a.ok() || !b.ok()) {
          ++torn;
          continue;
        }
        if (a->at(1).int64_value() != b->at(1).int64_value()) ++torn;
      }
    });
  }
  for (int64_t i = 1; i <= 300; ++i) {
    const TxnId txn = static_cast<TxnId>(i);
    ASSERT_TRUE(storage.Update("T", rid_a.value(), Row(1, i), txn).ok());
    ASSERT_TRUE(storage.Update("T", rid_b.value(), Row(2, i), txn).ok());
    ASSERT_TRUE(storage.CommitTxn(txn).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST(MvccConcurrencyTest, VacuumRacesReadersWithoutReclaimingLiveVersions) {
  StorageEngine storage;
  ASSERT_TRUE(storage.CreateTable("T", TestSchema()).ok());
  auto rid = storage.Insert("T", Row(1, 0));
  ASSERT_TRUE(rid.ok());

  std::atomic<bool> done{false};
  std::atomic<size_t> missing{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      SnapshotHandle snap(&storage.mvcc());
      // Whatever the snapshot pinned must stay readable for the
      // snapshot's whole lifetime, vacuum or not.
      for (int spin = 0; spin < 8; ++spin) {
        if (!storage.GetSnapshot("T", rid.value(), snap.ts()).ok()) ++missing;
      }
    }
  });
  for (int64_t i = 1; i <= 300; ++i) {
    const TxnId txn = static_cast<TxnId>(i);
    ASSERT_TRUE(storage.Update("T", rid.value(), Row(1, i), txn).ok());
    ASSERT_TRUE(storage.CommitTxn(txn).ok());
    if (i % 7 == 0) storage.Vacuum();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(missing.load(), 0u);
}

}  // namespace
}  // namespace youtopia
