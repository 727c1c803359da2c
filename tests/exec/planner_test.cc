#include "exec/planner.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace youtopia {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage_
                    .CreateTable("Flights",
                                 Schema({{"fno", DataType::kInt64, false},
                                         {"dest", DataType::kString, false},
                                         {"price", DataType::kInt64, false}}))
                    .ok());
    ASSERT_TRUE(storage_
                    .CreateTable("Airlines",
                                 Schema({{"fno", DataType::kInt64, false},
                                         {"airline", DataType::kString, false}}))
                    .ok());
    ASSERT_TRUE(storage_.CreateIndex("Flights", "dest").ok());
    planner_ = std::make_unique<Planner>(&storage_);
  }

  std::unique_ptr<SelectStatement> ParseSelect(const std::string& sql) {
    auto stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    return std::unique_ptr<SelectStatement>(
        static_cast<SelectStatement*>(stmt.TakeValue().release()));
  }

  StorageEngine storage_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(PlannerTest, SingleTableSeqScan) {
  auto stmt = ParseSelect("SELECT fno FROM Flights");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  // Project over SeqScan.
  EXPECT_NE(planned->root->ToString().find("Project"), std::string::npos);
  ASSERT_EQ(planned->root->children().size(), 1u);
  EXPECT_EQ(planned->root->children()[0]->ToString(), "SeqScan(Flights)");
  EXPECT_EQ(planned->column_names, std::vector<std::string>{"fno"});
}

TEST_F(PlannerTest, IndexScanChosenForIndexedEquality) {
  auto stmt = ParseSelect("SELECT fno FROM Flights WHERE dest = 'Paris'");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("IndexScan(Flights.dest = 'Paris')"),
            std::string::npos)
      << tree;
  // Sole conjunct absorbed: no Filter node.
  EXPECT_EQ(tree.find("Filter"), std::string::npos) << tree;
}

TEST_F(PlannerTest, IndexScanWithResidualFilter) {
  auto stmt = ParseSelect(
      "SELECT fno FROM Flights WHERE dest = 'Paris' AND price < 500");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("IndexScan"), std::string::npos) << tree;
  EXPECT_NE(tree.find("Filter"), std::string::npos) << tree;
}

TEST_F(PlannerTest, NonIndexedPredicateUsesSeqScanAndFilter) {
  auto stmt = ParseSelect("SELECT fno FROM Flights WHERE price < 500");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("SeqScan"), std::string::npos);
  EXPECT_NE(tree.find("Filter"), std::string::npos);
  EXPECT_EQ(tree.find("IndexScan"), std::string::npos);
}

TEST_F(PlannerTest, EquiJoinPlansHashJoin) {
  auto stmt = ParseSelect(
      "SELECT f.fno, a.airline FROM Flights f, Airlines a "
      "WHERE f.fno = a.fno");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("HashJoin"), std::string::npos) << tree;
  EXPECT_EQ(planned->column_names,
            (std::vector<std::string>{"fno", "airline"}));
}

TEST_F(PlannerTest, NonEquiJoinFallsBackToCrossJoin) {
  auto stmt = ParseSelect(
      "SELECT f.fno FROM Flights f, Airlines a WHERE f.fno < a.fno");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("CrossJoin"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("HashJoin"), std::string::npos) << tree;
}

TEST_F(PlannerTest, ThreeWayJoinChainsHashJoins) {
  ASSERT_TRUE(storage_
                  .CreateTable("Seats", Schema({{"fno", DataType::kInt64,
                                                 false},
                                                {"seat", DataType::kInt64,
                                                 false}}))
                  .ok());
  auto stmt = ParseSelect(
      "SELECT f.fno FROM Flights f, Airlines a, Seats s "
      "WHERE f.fno = a.fno AND s.fno = a.fno");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  // Both joins hashed, none crossed.
  EXPECT_EQ(tree.find("CrossJoin"), std::string::npos) << tree;
  size_t first = tree.find("HashJoin");
  ASSERT_NE(first, std::string::npos) << tree;
  EXPECT_NE(tree.find("HashJoin", first + 1), std::string::npos) << tree;
}

TEST_F(PlannerTest, StarExpandsAllColumns) {
  auto stmt = ParseSelect("SELECT * FROM Flights");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->column_names,
            (std::vector<std::string>{"fno", "dest", "price"}));
}

TEST_F(PlannerTest, StarMixedWithExprsRejected) {
  auto stmt = ParseSelect("SELECT *, fno FROM Flights");
  EXPECT_FALSE(planner_->PlanSelect(*stmt).ok());
}

TEST_F(PlannerTest, ConstantSelectHasNullRoot) {
  auto stmt = ParseSelect("SELECT 1 + 1");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->root, nullptr);
}

TEST_F(PlannerTest, UnknownTableFails) {
  auto stmt = ParseSelect("SELECT x FROM Nope");
  EXPECT_EQ(planner_->PlanSelect(*stmt).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PlannerTest, EntangledQueryRejected) {
  auto stmt = ParseSelect("SELECT 'u', fno INTO ANSWER R WHERE fno IN "
                          "(SELECT fno FROM Flights)");
  EXPECT_EQ(planner_->PlanSelect(*stmt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlannerTest, ChooserProbesOnlyWithExactLiterals) {
  ASSERT_TRUE(storage_
                  .CreateTable("Fares", Schema({{"fno", DataType::kInt64, true},
                                                {"fare", DataType::kDouble,
                                                 true}}))
                  .ok());
  ASSERT_TRUE(storage_.CreateIndex("Fares", "fno").ok());
  ASSERT_TRUE(storage_.CreateIndex("Fares", "fare").ok());
  const Schema schema = storage_.catalog().GetTable("Fares")->schema;
  auto choose = [&](const std::string& where) {
    auto stmt = ParseSelect("SELECT * FROM Fares WHERE " + where);
    return ChooseIndexProbe(storage_, "Fares", "Fares", schema,
                            stmt->where.get());
  };
  // Same type, literal on either side, qualified or not.
  auto probe = choose("fno = 7");
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->column, "fno");
  EXPECT_EQ(probe->key, Value::Int64(7));
  EXPECT_TRUE(choose("7 = Fares.fno").has_value());
  // INT on DOUBLE is the one lossless coercion; the key is coerced.
  probe = choose("fare = 2");
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->key, Value::Double(2.0));
  // Everything else stays in the filter.
  EXPECT_FALSE(choose("fno = 7.0").has_value());
  EXPECT_FALSE(choose("fno = NULL").has_value());
  EXPECT_FALSE(choose("fno = 'x'").has_value());
  EXPECT_FALSE(choose("fno < 7").has_value());
  EXPECT_FALSE(choose("Other.fno = 7").has_value());
  // The first exact conjunct wins; the others are residual.
  probe = choose("fno = NULL AND fare = 2.5 AND fno = 3");
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->column, "fare");
  EXPECT_FALSE(
      ChooseIndexProbe(storage_, "Fares", "Fares", schema, nullptr).has_value());
}

TEST(SplitConjunctsTest, SplitsNestedAnds) {
  auto stmt = Parser::ParseStatement(
      "SELECT * FROM t WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)");
  ASSERT_TRUE(stmt.ok());
  const auto& select = static_cast<const SelectStatement&>(*stmt.value());
  auto conjuncts = SplitConjuncts(select.where.get());
  EXPECT_EQ(conjuncts.size(), 3u);
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
}

}  // namespace
}  // namespace youtopia
