// Tests of the benchmark itself: percentile math, seeded input
// generation, and the correctness checker's verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "checker.h"
#include "latency.h"
#include "workload.h"

namespace ytbench {
namespace {

Samples OneToN(int n) {
  Samples s;
  for (int i = n; i >= 1; --i) s.Add(i);  // unsorted on purpose
  return s;
}

TEST(SamplesTest, NearestRankPercentiles) {
  const Samples s = OneToN(100);
  EXPECT_EQ(s.Percentile(50), 50);
  EXPECT_EQ(s.Percentile(90), 90);
  EXPECT_EQ(s.Percentile(99), 99);
  EXPECT_EQ(s.Percentile(100), 100);
  EXPECT_EQ(s.Percentile(0.5), 1);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);

  const Samples ten = OneToN(10);
  EXPECT_EQ(ten.Percentile(50), 5);
  EXPECT_EQ(ten.Percentile(51), 6);
  EXPECT_EQ(ten.Percentile(99), 10);
}

TEST(SamplesTest, EmptyAndSingle) {
  Samples empty;
  EXPECT_EQ(empty.Percentile(50), 0);
  EXPECT_EQ(empty.HighestSupportedPercentile(), 0);
  Samples one;
  one.Add(7.5);
  EXPECT_EQ(one.Percentile(1), 7.5);
  EXPECT_EQ(one.Percentile(99), 7.5);
}

TEST(SamplesTest, HighestSupportedPercentileNeedsTenBeyond) {
  EXPECT_EQ(OneToN(19).HighestSupportedPercentile(), 0);   // 9 beyond p50
  EXPECT_EQ(OneToN(20).HighestSupportedPercentile(), 50);  // 10 beyond p50
  EXPECT_EQ(OneToN(100).HighestSupportedPercentile(), 90);
  EXPECT_EQ(OneToN(999).HighestSupportedPercentile(), 90);
  EXPECT_EQ(OneToN(1000).HighestSupportedPercentile(), 99);
  EXPECT_EQ(OneToN(10000).HighestSupportedPercentile(), 99.9);
  EXPECT_EQ(OneToN(1000).CountBeyond(99), 10u);
}

TEST(SamplesTest, MergeAndMedianOf) {
  Samples a = OneToN(50);
  Samples b;
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.Percentile(90), 90);
  EXPECT_EQ(MedianOf({3, 1, 2}), 2);
  EXPECT_EQ(MedianOf({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(MedianOf({}), 0);
}

const WorkloadSpec& Spec(const char* name) {
  const WorkloadSpec* spec = FindWorkload(name);
  EXPECT_NE(spec, nullptr);
  return *spec;
}

TEST(WorkloadTest, SameSeedSameInputs) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const Dataset a = MakeDataset(spec.data, 42);
    const Dataset b = MakeDataset(spec.data, 42);
    EXPECT_EQ(a.load_script, b.load_script) << spec.name;
    EXPECT_EQ(a.browse_rows, b.browse_rows) << spec.name;
    EXPECT_EQ(a.hot_fnos, b.hot_fnos) << spec.name;

    const Leg x = MakeLeg(spec, a, 42, 2, "T", spec.ref_rate, 1.0);
    const Leg y = MakeLeg(spec, b, 42, 2, "T", spec.ref_rate, 1.0);
    ASSERT_EQ(x.ops.size(), y.ops.size()) << spec.name;
    ASSERT_GT(x.ops.size(), 10u) << spec.name;
    for (size_t i = 0; i < x.ops.size(); ++i) {
      EXPECT_EQ(x.ops[i].at_s, y.ops[i].at_s);
      EXPECT_EQ(x.ops[i].sql, y.ops[i].sql);
      EXPECT_EQ(x.ops[i].conn, y.ops[i].conn);
    }
  }
}

TEST(WorkloadTest, SeedAndStreamChangeTheInputs) {
  const WorkloadSpec& spec = Spec("book_durable");
  const Dataset data = MakeDataset(spec.data, 1);
  EXPECT_NE(data.load_script, MakeDataset(spec.data, 2).load_script);
  const Leg a = MakeLeg(spec, data, 1, 2, "T", spec.ref_rate, 1.0);
  const Leg b = MakeLeg(spec, data, 3, 2, "T", spec.ref_rate, 1.0);
  const Leg c = MakeLeg(spec, data, 1, 3, "T", spec.ref_rate, 1.0);
  EXPECT_NE(a.ops.front().at_s, b.ops.front().at_s);
  EXPECT_NE(a.ops.front().at_s, c.ops.front().at_s);
}

TEST(WorkloadTest, TagOnlyRenamesAndShorterLegIsAPrefix) {
  const WorkloadSpec& spec = Spec("coordinate");
  const Dataset data = MakeDataset(spec.data, 5);
  const Leg a = MakeLeg(spec, data, 5, 2, "A", spec.ref_rate, 2.0);
  const Leg b = MakeLeg(spec, data, 5, 2, "B", spec.ref_rate, 2.0);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].at_s, b.ops[i].at_s);
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
  }
  const Leg shorter = MakeLeg(spec, data, 5, 2, "A", spec.ref_rate, 1.0);
  ASSERT_LT(shorter.groups.size(), a.groups.size());
  for (size_t g = 0; g < shorter.groups.size(); ++g) {
    EXPECT_EQ(shorter.groups[g].size, a.groups[g].size);
    EXPECT_EQ(shorter.groups[g].last_at_s, a.groups[g].last_at_s);
  }
}

TEST(WorkloadTest, MixAndGroupsMatchTheSpec) {
  const WorkloadSpec& spec = Spec("coordinate");
  const Dataset data = MakeDataset(spec.data, 9);
  EXPECT_EQ(data.browse_sql.size(), 64u);
  for (uint32_t rows : data.browse_rows) {
    EXPECT_GE(rows, 10u);
    EXPECT_LE(rows, 300u);
  }
  const Leg leg = MakeLeg(spec, data, 9, 2, "T", spec.ref_rate, 10.0);
  size_t pairs = 0;
  for (const Group& g : leg.groups) {
    ASSERT_EQ(g.ops.size(), g.size);
    EXPECT_GE(g.size, 2);
    EXPECT_LE(g.size, 5);
    EXPECT_EQ(g.hotel, g.size > 2);
    pairs += g.size == 2 ? 1 : 0;
    for (size_t m = 0; m < g.ops.size(); ++m) {
      const Op& op = leg.ops[g.ops[m]];
      EXPECT_EQ(op.kind, OpKind::kSubmit);
      EXPECT_EQ(op.member, m);
      EXPECT_LE(op.at_s, g.last_at_s);
    }
  }
  const double share =
      static_cast<double>(pairs) / static_cast<double>(leg.groups.size());
  EXPECT_NEAR(share, spec.pair_share, 0.1);
  for (size_t i = 1; i < leg.ops.size(); ++i) {
    EXPECT_LE(leg.ops[i - 1].at_s, leg.ops[i].at_s);
  }
}

/// A leg with one flight pair, one hotel group, a book and a decrement,
/// and results in which everything went right.
class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = Spec("coordinate");
    spec_.browse = 0.2;
    spec_.book = 0.2;
    spec_.decrement = 0.2;
    spec_.group = 0.4;
    spec_.pair_share = 0.5;
    DataSpec ds{2, 16, 4, 8, 0.9};
    data_ = MakeDataset(ds, 3);
    leg_ = MakeLeg(spec_, data_, 3, 2, "C", 50, 2.0);
    results_.assign(leg_.ops.size(), OpResult{});
    for (size_t i = 0; i < leg_.ops.size(); ++i) {
      const Op& op = leg_.ops[i];
      OpResult& r = results_[i];
      r.ack = r.final = Outcome::kOk;
      if (op.kind == OpKind::kBrowse) {
        r.rows = data_.browse_rows[static_cast<size_t>(op.key)];
      } else if (op.kind == OpKind::kBook) {
        state_.reservations.emplace_back(op.name, op.key);
      } else if (op.kind == OpKind::kDecrement) {
        ++decrements_;
      }
    }
    for (const Group& g : leg_.groups) {
      const int64_t fno = FlightTo(g.dest);
      const int64_t hid = HotelIn(g.dest);
      for (uint32_t idx : g.ops) {
        results_[idx].fno = fno;
        state_.reservations.emplace_back(leg_.ops[idx].name, fno);
        if (g.hotel) {
          results_[idx].hid = hid;
          state_.hotel_reservations.emplace_back(leg_.ops[idx].name, hid);
        }
      }
    }
    state_.seats_sum = data_.seats_per_flight *
                           static_cast<int64_t>(data_.flights.size()) -
                       decrements_;
    ASSERT_GT(decrements_, 0);
    ASSERT_GE(FirstGroup(true), 0);
    ASSERT_GE(FirstGroup(false), 0);
  }

  int64_t FlightTo(int dest) const {
    for (const Flight& f : data_.flights) {
      if (f.dest == dest) return f.fno;
    }
    return -1;
  }
  int64_t HotelIn(int city) const {
    for (const Hotel& h : data_.hotels) {
      if (h.city == city) return h.hid;
    }
    return -1;
  }
  int FirstGroup(bool hotel) const {
    for (size_t g = 0; g < leg_.groups.size(); ++g) {
      if (leg_.groups[g].hotel == hotel) return static_cast<int>(g);
    }
    return -1;
  }

  WorkloadSpec spec_;
  Dataset data_;
  Leg leg_;
  std::vector<OpResult> results_;
  TableState state_;
  int64_t decrements_ = 0;
};

TEST_F(CheckerTest, AcceptsACorrectRun) {
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  checker.CheckState(state_, "end");
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST_F(CheckerTest, RejectsAHalfMatchedGroup) {
  const Group& g = leg_.groups[static_cast<size_t>(FirstGroup(false))];
  results_[g.ops.back()].final = Outcome::kNone;
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("half-matched"),
            std::string::npos);
}

TEST_F(CheckerTest, RejectsRowsOfAGroupThatNeverClosed) {
  const Group& g = leg_.groups[static_cast<size_t>(FirstGroup(false))];
  for (uint32_t idx : g.ops) results_[idx].final = Outcome::kTimeout;
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  EXPECT_TRUE(checker.ok());
  checker.CheckState(state_, "end");  // the group's rows are still there
  EXPECT_FALSE(checker.ok());
}

// A group can close on the server after the leg's drain gave up on it:
// its completions never reached the latency figures (done_s stays -1),
// but the handles' final outcomes say it closed, so its rows must exist.
TEST_F(CheckerTest, AGroupClosedAfterTheDrainIsClosed) {
  const Group& g = leg_.groups[static_cast<size_t>(FirstGroup(true))];
  for (uint32_t idx : g.ops) results_[idx].done_s = -1;
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  checker.CheckState(state_, "end");
  EXPECT_TRUE(checker.ok()) << checker.violations().front();

  const std::string& member = leg_.ops[g.ops.back()].name;
  auto& rows = state_.hotel_reservations;
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&](const auto& r) { return r.first == member; }),
             rows.end());
  Checker missing(&data_);
  missing.CheckLeg(leg_, results_);
  missing.CheckState(state_, "end");
  EXPECT_FALSE(missing.ok());
}

TEST_F(CheckerTest, RejectsMismatchedFlightOrHotel) {
  const Group& pair = leg_.groups[static_cast<size_t>(FirstGroup(false))];
  results_[pair.ops[1]].fno += 1;
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("different flights"),
            std::string::npos);

  SetUp();
  const Group& group = leg_.groups[static_cast<size_t>(FirstGroup(true))];
  results_[group.ops[0]].hid += 1;
  Checker hotel_checker(&data_);
  hotel_checker.CheckLeg(leg_, results_);
  EXPECT_FALSE(hotel_checker.ok());
}

TEST_F(CheckerTest, RejectsAFlightToTheWrongDestination) {
  const Group& pair = leg_.groups[static_cast<size_t>(FirstGroup(false))];
  const int64_t wrong = FlightTo(1 - pair.dest);
  for (uint32_t idx : pair.ops) results_[idx].fno = wrong;
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  EXPECT_FALSE(checker.ok());
}

TEST_F(CheckerTest, RejectsAMissingAcknowledgedWrite) {
  for (size_t i = 0; i < state_.reservations.size(); ++i) {
    if (state_.reservations[i].first.find('b') != std::string::npos) {
      state_.reservations.erase(state_.reservations.begin() +
                                static_cast<long>(i));
      break;
    }
  }
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  checker.CheckState(state_, "after reopen");
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("missing"), std::string::npos);
}

TEST_F(CheckerTest, RejectsAWrongBrowseCountAndLostDecrements) {
  for (size_t i = 0; i < leg_.ops.size(); ++i) {
    if (leg_.ops[i].kind == OpKind::kBrowse) {
      results_[i].rows += 1;
      break;
    }
  }
  Checker checker(&data_);
  checker.CheckLeg(leg_, results_);
  EXPECT_FALSE(checker.ok());

  Checker counters(&data_);
  std::vector<OpResult> ok = results_;
  for (size_t i = 0; i < leg_.ops.size(); ++i) {
    if (leg_.ops[i].kind == OpKind::kBrowse) {
      ok[i].rows = data_.browse_rows[static_cast<size_t>(leg_.ops[i].key)];
    }
  }
  counters.CheckLeg(leg_, ok);
  state_.seats_sum += 1;  // one acknowledged decrement is gone
  counters.CheckState(state_, "after reopen");
  EXPECT_FALSE(counters.ok());
}

}  // namespace
}  // namespace ytbench
