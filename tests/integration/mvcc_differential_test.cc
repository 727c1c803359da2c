// Statement semantics of the versioned engine (design decision #10)
// against a serial reference oracle: a randomized mixed workload runs
// through a Youtopia instance and, one statement at a time, through a
// small in-test model of the same tables (a vector of rows). Every
// statement must agree — status code, affected rows and result set —
// and so must the final table contents. The history includes
// multi-row statements that fail halfway (a NOT NULL violation on a
// later VALUES row, a division by zero on a later UPDATE row), which
// the oracle applies as no-ops: a failed statement leaves no partial
// writes. A concurrent leg then pins the invariant snapshot reads add
// on top: lock-free readers observe every multi-row statement
// atomically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "server/youtopia.h"

namespace youtopia {
namespace {

std::vector<std::string> SortedRows(const std::vector<Tuple>& tuples) {
  std::vector<std::string> rows;
  rows.reserve(tuples.size());
  for (const Tuple& t : tuples) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The serial reference: `items (id INT, qty INT NOT NULL, tag TEXT)`
/// and `audit (id INT, note TEXT)` as plain vectors. Each method applies
/// one statement's effect and returns what the engine must answer.
class SerialOracle {
 public:
  struct Outcome {
    /// Expected failure code; nullopt when the statement succeeds.
    std::optional<StatusCode> error;
    size_t affected_rows = 0;
    std::vector<Tuple> rows;
  };

  Outcome InsertItem(int64_t id, int64_t qty, const std::string& tag) {
    items_.push_back({id, qty, tag});
    return {std::nullopt, 1, {}};
  }

  Outcome SetQtyWhereId(int64_t qty, int64_t id) {
    Outcome out;
    for (Item& item : items_) {
      if (item.id != id) continue;
      item.qty = qty;
      ++out.affected_rows;
    }
    return out;
  }

  Outcome BumpQtyWhereTag(const std::string& tag) {
    Outcome out;
    for (Item& item : items_) {
      if (item.tag != tag) continue;
      ++item.qty;
      ++out.affected_rows;
    }
    return out;
  }

  Outcome DeleteWhereId(int64_t id) {
    Outcome out;
    const size_t before = items_.size();
    items_.erase(std::remove_if(items_.begin(), items_.end(),
                                [&](const Item& i) { return i.id == id; }),
                 items_.end());
    out.affected_rows = before - items_.size();
    return out;
  }

  /// A statement the engine rejects partway through: nothing changes.
  Outcome Failing() { return {StatusCode::kInvalidArgument, 0, {}}; }

  Outcome SelectIdQtyWhereId(int64_t id) const {
    Outcome out;
    for (const Item& i : items_) {
      if (i.id == id) {
        out.rows.push_back(Tuple({Value::Int64(i.id), Value::Int64(i.qty)}));
      }
    }
    return out;
  }

  Outcome SelectTagQtyWhereQtyAbove(int64_t qty) const {
    Outcome out;
    for (const Item& i : items_) {
      if (i.qty > qty) {
        out.rows.push_back(Tuple({Value::String(i.tag), Value::Int64(i.qty)}));
      }
    }
    return out;
  }

  Outcome SelectAllItems() const {
    Outcome out;
    for (const Item& i : items_) {
      out.rows.push_back(Tuple(
          {Value::Int64(i.id), Value::Int64(i.qty), Value::String(i.tag)}));
    }
    return out;
  }

  Outcome InsertAudit(int64_t id, const std::string& note) {
    audit_.push_back(Tuple({Value::Int64(id), Value::String(note)}));
    return {std::nullopt, 1, {}};
  }

  Outcome SelectAllAudit() const { return {std::nullopt, 0, audit_}; }

  /// An id some item currently has (nullopt when the table is empty).
  std::optional<int64_t> SomeId(Random* rng) const {
    if (items_.empty()) return std::nullopt;
    return items_[rng->NextBelow(items_.size())].id;
  }

 private:
  struct Item {
    int64_t id;
    int64_t qty;
    std::string tag;
  };
  std::vector<Item> items_;
  std::vector<Tuple> audit_;
};

TEST(MvccDifferentialTest, MatchesSerialOracleStatementByStatement) {
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE items (id INT, qty INT NOT NULL, "
                               "tag TEXT);"
                               "CREATE TABLE audit (id INT, note TEXT);")
                  .ok());
  SerialOracle oracle;

  size_t failing_statements = 0;
  auto check = [&](const std::string& sql,
                   const SerialOracle::Outcome& expected) {
    auto got = db.Execute(sql);
    if (expected.error.has_value()) {
      ASSERT_FALSE(got.ok()) << sql;
      EXPECT_EQ(got.status().code(), *expected.error) << sql;
      ++failing_statements;
      return;
    }
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status();
    EXPECT_EQ(got->affected_rows, expected.affected_rows) << sql;
    EXPECT_EQ(SortedRows(got->rows), SortedRows(expected.rows)) << sql;
  };

  Random rng(0xBEEFu);
  for (int step = 0; step < 400; ++step) {
    const int64_t id = static_cast<int64_t>(rng.NextBelow(24));
    const int64_t qty = static_cast<int64_t>(rng.NextBelow(100));
    const std::string tag = "tag" + std::to_string(qty % 5);
    switch (rng.NextBelow(9)) {
      case 0:
      case 1:
        check("INSERT INTO items VALUES (" + std::to_string(id) + ", " +
                  std::to_string(qty) + ", '" + tag + "')",
              oracle.InsertItem(id, qty, tag));
        break;
      case 2:
        check("UPDATE items SET qty = " + std::to_string(qty) +
                  " WHERE id = " + std::to_string(id),
              oracle.SetQtyWhereId(qty, id));
        break;
      case 3:
        // Multi-row update: everything with one tag moves together.
        check("UPDATE items SET qty = qty + 1 WHERE tag = '" + tag + "'",
              oracle.BumpQtyWhereTag(tag));
        break;
      case 4:
        check("DELETE FROM items WHERE id = " + std::to_string(id),
              oracle.DeleteWhereId(id));
        break;
      case 5:
        check("SELECT id, qty FROM items WHERE id = " + std::to_string(id),
              oracle.SelectIdQtyWhereId(id));
        break;
      case 6:
        check("SELECT tag, qty FROM items WHERE qty > " + std::to_string(qty),
              oracle.SelectTagQtyWhereQtyAbove(qty));
        break;
      case 7:
        check("SELECT * FROM items", oracle.SelectAllItems());
        break;
      default: {
        // A multi-row statement that fails after writing some rows.
        const std::optional<int64_t> victim = oracle.SomeId(&rng);
        if (victim.has_value() && rng.NextBelow(2) == 0) {
          // Every row is updated in scan order until the one whose id
          // makes the divisor zero.
          check("UPDATE items SET qty = qty + 1 / (id - " +
                    std::to_string(*victim) + ")",
                oracle.Failing());
        } else {
          // The first VALUES row is valid; the second violates NOT NULL.
          check("INSERT INTO items VALUES (" + std::to_string(id) + ", " +
                    std::to_string(qty) + ", '" + tag + "'), (" +
                    std::to_string(id + 1) + ", NULL, '" + tag + "')",
                oracle.Failing());
        }
        check("SELECT * FROM items", oracle.SelectAllItems());
        break;
      }
    }
    if (step == 120) {
      // Mid-workload DDL: index choices change, outcomes must not.
      check("CREATE INDEX ON items (id)", {});
    }
    if (step % 60 == 30) {
      check("INSERT INTO audit VALUES (" + std::to_string(step) +
                ", 'checkpointed')",
            oracle.InsertAudit(step, "checkpointed"));
      check("SELECT * FROM audit", oracle.SelectAllAudit());
    }
  }
  // Final state agrees table for table.
  check("SELECT * FROM items", oracle.SelectAllItems());
  check("SELECT * FROM audit", oracle.SelectAllAudit());

  // The history really exercised failing statements and version
  // chains.
  EXPECT_GT(failing_statements, 10u);
  EXPECT_GT(db.storage().mvcc().clock(), kBaseTs);
}

TEST(MvccDifferentialTest, ConcurrentBrowsersSeeStatementsAtomically) {
  // The invariant the browse path adds: a multi-row UPDATE is stamped
  // with one commit timestamp, so a lock-free SELECT sees all of its
  // rows move or none — even while writers churn. The differential
  // anchor: every observed snapshot is a state the serial history could
  // have produced (all rows share one qty value).
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE acct (id INT, qty INT);"
                               "INSERT INTO acct VALUES (1, 0);"
                               "INSERT INTO acct VALUES (2, 0);"
                               "INSERT INTO acct VALUES (3, 0);"
                               "INSERT INTO acct VALUES (4, 0);")
                  .ok());

  std::atomic<bool> done{false};
  std::atomic<size_t> torn{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto rows = db.Execute("SELECT qty FROM acct");
        if (!rows.ok()) continue;
        ++reads;
        if (rows->rows.size() != 4) {
          ++torn;
          continue;
        }
        const int64_t first = rows->rows[0].at(0).int64_value();
        for (const Tuple& row : rows->rows) {
          if (row.at(0).int64_value() != first) ++torn;
        }
      }
    });
  }
  // Keep the write churn alive until the readers have actually taken
  // snapshots: on a 1-core host a fixed-count loop can retire before a
  // reader thread is scheduled even once, leaving nothing observed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int i = 0;
  while ((i < 200 || reads.load(std::memory_order_acquire) < 10) &&
         std::chrono::steady_clock::now() < deadline) {
    ++i;
    ASSERT_TRUE(
        db.Execute("UPDATE acct SET qty = " + std::to_string(i)).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace youtopia
