// UPDATE and DELETE read their candidate rows through the access path
// SELECT uses (ChooseIndexProbe): an index probe for `col = literal` on
// an indexed column, a scan otherwise. The probe must never change an
// answer. One seeded random history runs through an indexed engine
// (indexes on k and d, WAL on) and an unindexed twin; after every
// statement the status code, affected rows and sorted table contents
// must agree. The history mixes NULL, int, double and text literals on
// the keyed column, residual conjuncts, and updates of the probed
// column itself (`SET k = k + 1 WHERE k = ...`, the Halloween case).
// At the end the indexed engine reopens from its WAL, whose replay runs
// the same UPDATE/DELETE texts through the index path again, and the
// recovered table must equal the live one.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "server/youtopia.h"

namespace youtopia {
namespace {

constexpr char kCreate[] = "CREATE TABLE t (k INT, v INT, d DOUBLE)";

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("dml_path_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

YoutopiaConfig WalConfigFor(const std::string& dir) {
  YoutopiaConfig config;
  config.wal.enabled = true;
  config.wal.dir = dir;
  config.wal.fsync = false;  // in-process restarts keep the page cache
  return config;
}

std::vector<std::string> TableContents(Youtopia* db) {
  auto rows = db->Execute("SELECT k, v, d FROM t");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> out;
  if (rows.ok()) {
    for (const Tuple& t : rows->rows) out.push_back(t.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Random SQL over `t`. Keys stay in a small domain so that probes hit
/// several rows and `k + 1` collides with other rows' keys.
class HistoryGenerator {
 public:
  explicit HistoryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    const uint64_t kind = rng_.NextBelow(10);
    if (kind < 3) return Insert();
    if (kind < 6) return "UPDATE t SET " + Assignment() + Where();
    if (kind < 8) return "DELETE FROM t" + Where();
    return "SELECT v FROM t" + Where();
  }

 private:
  std::string IntOrNull() {
    if (rng_.NextBool(0.1)) return "NULL";
    return std::to_string(rng_.NextInRange(0, 5));
  }

  std::string Insert() {
    const std::string k = std::to_string(rng_.NextInRange(0, 5));
    const std::string v = std::to_string(rng_.NextInRange(0, 40));
    const std::string d = rng_.NextBool(0.5) ? k : k + ".5";
    return "INSERT INTO t VALUES (" + (rng_.NextBool(0.1) ? "NULL" : k) +
           ", " + v + ", " + d + ")";
  }

  std::string Assignment() {
    switch (rng_.NextBelow(6)) {
      case 0:
        return "k = k + 1";
      case 1:
        return "k = " + IntOrNull();
      case 2:
        return "v = v + 1";
      case 3:
        return "d = d + 1";
      case 4:
        return "d = " + IntOrNull();
      default:
        return "k = k + 1, v = v - 1";
    }
  }

  /// A literal for `col = <lit>`: NULL, int, double (integral or not)
  /// or text — every class the access-path rule distinguishes.
  std::string KeyLiteral() {
    const int64_t n = rng_.NextInRange(0, 5);
    switch (rng_.NextBelow(8)) {
      case 0:
        return "NULL";
      case 1:
        return std::to_string(n) + ".0";
      case 2:
        return std::to_string(n) + ".5";
      case 3:
        return "'x'";
      default:
        return std::to_string(n);
    }
  }

  std::string Where() {
    if (rng_.NextBool(0.05)) return "";
    const char* col = rng_.NextBool(0.7) ? "k" : "d";
    std::string where = StringPrintf(" WHERE %s = %s", col,
                                     KeyLiteral().c_str());
    if (rng_.NextBool(0.2)) {
      // Literal first: the chooser accepts either side.
      where = StringPrintf(" WHERE %s = %s", KeyLiteral().c_str(), col);
    }
    if (rng_.NextBool(0.5)) {
      static const char* kOps[] = {"<", ">", "=", "<>", "<=", ">="};
      where += StringPrintf(" AND v %s %lld", kOps[rng_.NextBelow(6)],
                            static_cast<long long>(rng_.NextInRange(0, 40)));
    }
    return where;
  }

  Random rng_;
};

class DmlAccessPathTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DmlAccessPathTest, IndexedEngineAgreesWithUnindexedTwin) {
  const std::string dir = FreshDir(std::to_string(GetParam()));
  Youtopia plain;
  std::vector<std::string> live;
  {
    Youtopia indexed(WalConfigFor(dir));
    ASSERT_TRUE(indexed.recovery_status().ok());
    ASSERT_TRUE(plain.Execute(kCreate).ok());
    ASSERT_TRUE(indexed.ExecuteScript(std::string(kCreate) +
                                      "; CREATE INDEX ON t (k);"
                                      "CREATE INDEX ON t (d);")
                    .ok());
    HistoryGenerator gen(GetParam());
    int writes = 0;  // UPDATE/DELETE statements that changed rows
    int errors = 0;
    for (int i = 0; i < 400; ++i) {
      const std::string sql = gen.Next();
      SCOPED_TRACE(sql);
      auto want = plain.Execute(sql);
      auto got = indexed.Execute(sql);
      ASSERT_EQ(got.status().code(), want.status().code())
          << got.status().ToString() << " vs " << want.status().ToString();
      if (!want.ok()) ++errors;
      if (want.ok()) {
        if (sql.rfind("INSERT", 0) != 0 && want->affected_rows > 0) ++writes;
        EXPECT_EQ(got->affected_rows, want->affected_rows);
        std::vector<std::string> got_rows, want_rows;
        for (const Tuple& t : got->rows) got_rows.push_back(t.ToString());
        for (const Tuple& t : want->rows) want_rows.push_back(t.ToString());
        std::sort(got_rows.begin(), got_rows.end());
        std::sort(want_rows.begin(), want_rows.end());
        EXPECT_EQ(got_rows, want_rows);
      }
      ASSERT_EQ(TableContents(&indexed), TableContents(&plain));
    }
    // The history is not degenerate: keyed writes land and the type
    // errors of non-probing literals show up on both sides.
    EXPECT_GT(writes, 50);
    EXPECT_GT(errors, 5);
    live = TableContents(&indexed);
  }
  {
    Youtopia recovered(WalConfigFor(dir));
    ASSERT_TRUE(recovered.recovery_status().ok())
        << recovered.recovery_status().ToString();
    EXPECT_EQ(TableContents(&recovered), live);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmlAccessPathTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace youtopia
