// Experiment SUB (DESIGN.md): substrate microbenchmarks — the storage
// and execution engine operations every coordination round bottoms out
// in (scans, index probes, inserts, plan execution).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"

namespace youtopia::bench {
namespace {

std::unique_ptr<StorageEngine> MakeEngine(int rows, bool with_index) {
  auto engine = std::make_unique<StorageEngine>();
  Status s = engine->CreateTable(
      "Flights", Schema({{"fno", DataType::kInt64, false},
                         {"dest", DataType::kString, false},
                         {"price", DataType::kInt64, false}}));
  if (!s.ok()) std::abort();
  if (with_index) {
    if (!engine->CreateIndex("Flights", "dest").ok()) std::abort();
  }
  for (int f = 0; f < rows; ++f) {
    auto rid = engine->Insert(
        "Flights", Tuple({Value::Int64(f),
                          Value::String("City" + std::to_string(f % 16)),
                          Value::Int64(100 + f % 900)}));
    if (!rid.ok()) std::abort();
  }
  return engine;
}

void BM_HeapInsert(benchmark::State& state) {
  auto engine = MakeEngine(0, /*with_index=*/false);
  int64_t f = 0;
  for (auto _ : state) {
    auto rid = engine->Insert(
        "Flights", Tuple({Value::Int64(f++), Value::String("City0"),
                          Value::Int64(100)}));
    benchmark::DoNotOptimize(rid);
  }
}
BENCHMARK(BM_HeapInsert);

void BM_IndexedInsert(benchmark::State& state) {
  auto engine = MakeEngine(0, /*with_index=*/true);
  int64_t f = 0;
  for (auto _ : state) {
    auto rid = engine->Insert(
        "Flights", Tuple({Value::Int64(f++), Value::String("City0"),
                          Value::Int64(100)}));
    benchmark::DoNotOptimize(rid);
  }
}
BENCHMARK(BM_IndexedInsert);

void BM_FullScan(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<int>(state.range(0)),
                           /*with_index=*/false);
  for (auto _ : state) {
    auto rows = engine->Scan("Flights");
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_FullScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_IndexProbe(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<int>(state.range(0)),
                           /*with_index=*/true);
  for (auto _ : state) {
    auto rids = engine->IndexLookup("Flights", "dest",
                                    Value::String("City3"));
    benchmark::DoNotOptimize(rids);
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_IndexProbe)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SelectViaSeqScan(benchmark::State& state) {
  auto engine = MakeEngine(10000, /*with_index=*/false);
  Executor executor(engine.get());
  auto stmt = Parser::ParseStatement(
      "SELECT fno FROM Flights WHERE price < 200");
  if (!stmt.ok()) std::abort();
  for (auto _ : state) {
    auto result = executor.Execute(*stmt.value());
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectViaSeqScan)->Unit(benchmark::kMicrosecond);

void BM_SelectViaIndexScan(benchmark::State& state) {
  auto engine = MakeEngine(10000, /*with_index=*/true);
  Executor executor(engine.get());
  auto stmt = Parser::ParseStatement(
      "SELECT fno FROM Flights WHERE dest = 'City3'");
  if (!stmt.ok()) std::abort();
  for (auto _ : state) {
    auto result = executor.Execute(*stmt.value());
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectViaIndexScan)->Unit(benchmark::kMicrosecond);

void BM_TwoTableJoin(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<int>(state.range(0)),
                           /*with_index=*/false);
  Status s = engine->CreateTable(
      "Airlines", Schema({{"fno", DataType::kInt64, false},
                          {"airline", DataType::kString, false}}));
  if (!s.ok()) std::abort();
  for (int f = 0; f < state.range(0); ++f) {
    auto rid = engine->Insert("Airlines",
                              Tuple({Value::Int64(f),
                                     Value::String("United")}));
    if (!rid.ok()) std::abort();
  }
  Executor executor(engine.get());
  auto stmt = Parser::ParseStatement(
      "SELECT f.fno, a.airline FROM Flights f, Airlines a "
      "WHERE f.fno = a.fno AND f.price < 150");
  if (!stmt.ok()) std::abort();
  for (auto _ : state) {
    auto result = executor.Execute(*stmt.value());
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_TwoTableJoin)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

// Keyed UPDATE, `... WHERE fno = <key>`: with an index on fno the
// statement probes its one row, so its cost stays flat as the table
// grows; without the index it scans every row (linear). Auto-commit
// writes prune the row's chain, so repeated updates stay comparable.
void UpdateByKey(benchmark::State& state, bool with_index) {
  const int rows = static_cast<int>(state.range(0));
  auto engine = MakeEngine(rows, /*with_index=*/false);
  if (with_index && !engine->CreateIndex("Flights", "fno").ok()) {
    std::abort();
  }
  Executor executor(engine.get());
  std::vector<std::unique_ptr<Statement>> stmts;
  for (int k = 0; k < 64; ++k) {
    auto stmt = Parser::ParseStatement(
        "UPDATE Flights SET price = price + 1 WHERE fno = " +
        std::to_string(static_cast<int64_t>(k) * rows / 64));
    if (!stmt.ok()) std::abort();
    stmts.push_back(stmt.TakeValue());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto result = executor.Execute(*stmts[i++ % stmts.size()]);
    if (!result.ok() || result->affected_rows != 1) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = benchmark::Counter(static_cast<double>(rows));
}

void BM_UpdateByIndexedKey(benchmark::State& state) {
  UpdateByKey(state, /*with_index=*/true);
}
BENCHMARK(BM_UpdateByIndexedKey)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_UpdateByUnindexedKey(benchmark::State& state) {
  UpdateByKey(state, /*with_index=*/false);
}
BENCHMARK(BM_UpdateByUnindexedKey)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace youtopia::bench
