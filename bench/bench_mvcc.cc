// Experiment MVCC (DESIGN.md decision #10): browse throughput of the
// lock-free snapshot SELECT path versus a 2PL locked-read reference,
// under a sweep of concurrent writers shaped like the travel mix's
// bookings: multi-row transactions that hold their exclusive table locks
// across a coordination window (an entangled booking parked mid-round)
// before committing. That idle-held X lock is exactly what the paper's
// browse traffic stalls behind. The 2PL leg takes an S table lock
// around each browse — the same statement cost plus the lock wait a
// locked read path pays — so every browse queues until the writer
// commits; the MVCC leg issues the same SELECTs, which read a snapshot
// and never block.
//
// Standalone driver (no google-benchmark) so it can emit its own
// machine-readable summary: BENCH_mvcc.json (path overridable via
// argv[1]), including the headline mvcc_vs_2pl_browse_speedup the
// acceptance criterion gates at >= 2x on the most contended leg
// (writers = 4).
//
// Usage: bench_mvcc [output.json] [leg_ms] [rows]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/youtopia.h"

namespace {

using namespace youtopia;  // NOLINT(build/namespaces) — bench driver

constexpr int kReaders = 4;
// Each write transaction touches a handful of rows and then holds its
// locks across a simulated coordination round before committing — the
// entangled-booking shape (install happens only once the whole group
// matches, with the 2PL locks held throughout the wait).
constexpr int kRowsPerWriteTxn = 8;
constexpr int kHoldUs = 10000;

struct LegResult {
  bool locked_reads = false;
  size_t writers = 0;
  size_t reads = 0;
  size_t read_errors = 0;
  size_t updates = 0;
  double wall_ms = 0.0;
  double reads_per_sec = 0.0;
  double updates_per_sec = 0.0;
};

const char* Mode(const LegResult& leg) {
  return leg.locked_reads ? "2pl" : "mvcc";
}

std::unique_ptr<Youtopia> MakeDb(int rows) {
  auto db = std::make_unique<Youtopia>();
  if (!db->Execute("CREATE TABLE Inv (id INT, qty INT, price INT)").ok()) {
    std::abort();
  }
  for (int i = 0; i < rows; ++i) {
    const std::string sql = "INSERT INTO Inv VALUES (" + std::to_string(i) +
                            ", 0, " + std::to_string((i * 37) % 1000) + ")";
    if (!db->Execute(sql).ok()) std::abort();
  }
  // Point browses go through the hash index: the interesting cost in
  // this experiment is lock waiting, not scan CPU, so the read itself
  // is kept cheap.
  if (!db->Execute("CREATE INDEX ON Inv (id)").ok()) std::abort();
  return db;
}

/// One fixed-duration leg: kReaders browse threads and `writers`
/// booking-shaped write transactions (kRowsPerWriteTxn updates, then
/// kHoldUs of lock-held coordination wait, then commit) against a fresh
/// instance. With `locked_reads` each browse holds an S lock on Inv
/// under its own transaction id for the statement's duration (the 2PL
/// reference); without, it is a plain snapshot SELECT. Reads that fail
/// (lock timeouts under 2PL) count as errors, not throughput — the
/// metric is *successful* browses per second, which is what a middle
/// tier actually serves.
LegResult RunLeg(bool locked_reads, size_t writers,
                 std::chrono::milliseconds leg, int rows) {
  auto db = MakeDb(rows);
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> read_errors{0};
  std::atomic<size_t> updates{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Indexed point browses across the table: each statement's
      // in-engine time is tiny, so what the sweep measures is how long
      // a browse waits behind the writers' held X locks (2PL) versus
      // not at all (MVCC snapshots).
      size_t n = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t id =
            static_cast<int64_t>((n++ * 13) % static_cast<size_t>(rows));
        const std::string sql =
            "SELECT id, qty FROM Inv WHERE id = " + std::to_string(id);
        bool ok = true;
        TxnId reader = 0;
        if (locked_reads) {
          reader = db->txn_manager().Begin()->id();
          ok = db->txn_manager()
                   .lock_manager()
                   .Acquire(reader, "Inv", LockMode::kShared)
                   .ok();
        }
        ok = ok && db->Execute(sql).ok();
        if (locked_reads) {
          db->txn_manager().lock_manager().ReleaseAll(reader);
        }
        if (ok) {
          reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          read_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      TxnManager& txns = db->txn_manager();
      size_t base = w * 131;
      int64_t seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto txn = txns.Begin();
        bool ok = true;
        for (int k = 0; k < kRowsPerWriteTxn && ok; ++k) {
          const RowId rid =
              static_cast<RowId>((base + static_cast<size_t>(k) * 7) %
                                 static_cast<size_t>(rows));
          const Tuple t({Value::Int64(static_cast<int64_t>(rid)),
                         Value::Int64(++seq),
                         Value::Int64(static_cast<int64_t>((rid * 37) % 1000))});
          ok = txns.Update(txn.get(), "Inv", rid, t).ok();
        }
        if (!ok) {
          (void)txns.Abort(txn.get());
          continue;
        }
        // The coordination window: locks stay held, CPU stays idle.
        std::this_thread::sleep_for(std::chrono::microseconds(kHoldUs));
        if (txns.Commit(txn.get()).ok()) {
          updates.fetch_add(1, std::memory_order_relaxed);
        }
        base += 31;
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(leg);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double wall_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  LegResult result;
  result.locked_reads = locked_reads;
  result.writers = writers;
  result.reads = reads.load();
  result.read_errors = read_errors.load();
  result.updates = updates.load();
  result.wall_ms = wall_us / 1000.0;
  result.reads_per_sec =
      wall_us > 0 ? static_cast<double>(result.reads) * 1e6 / wall_us : 0.0;
  result.updates_per_sec =
      wall_us > 0 ? static_cast<double>(result.updates) * 1e6 / wall_us : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_mvcc.json";
  const int leg_ms = argc > 2 ? std::atoi(argv[2]) : 400;
  const int rows = argc > 3 ? std::atoi(argv[3]) : 800;

  const size_t writer_sweep[] = {0, 1, 2, 4};
  std::vector<LegResult> legs;
  std::printf("%-6s %-8s %-9s %-12s %-9s %s\n", "mode", "writers", "reads",
              "reads/s", "rd_errs", "write_txns/s");
  for (size_t writers : writer_sweep) {
    for (bool locked_reads : {true, false}) {
      LegResult leg = RunLeg(locked_reads, writers,
                             std::chrono::milliseconds(leg_ms), rows);
      std::printf("%-6s %-8zu %-9zu %-12.1f %-9zu %.1f\n", Mode(leg),
                  leg.writers, leg.reads, leg.reads_per_sec, leg.read_errors,
                  leg.updates_per_sec);
      legs.push_back(leg);
    }
  }

  // Headline: MVCC vs 2PL successful-browse throughput on the same,
  // most contended leg (writers = 4). The acceptance floor is 2x; if
  // the 2PL side is fully starved the ratio is reported as a large
  // sentinel rather than a divide-by-zero.
  const size_t headline_writers = writer_sweep[3];
  double two_pl = 0.0, mvcc = 0.0, mvcc_uncontended = 0.0;
  for (const LegResult& leg : legs) {
    if (leg.writers == headline_writers && leg.locked_reads) {
      two_pl = leg.reads_per_sec;
    }
    if (leg.writers == headline_writers && !leg.locked_reads) {
      mvcc = leg.reads_per_sec;
    }
    if (leg.writers == 0 && !leg.locked_reads) {
      mvcc_uncontended = leg.reads_per_sec;
    }
  }
  const double speedup =
      two_pl > 0.0 ? mvcc / two_pl : (mvcc > 0.0 ? 999.0 : 0.0);
  std::printf("browse speedup (mvcc vs 2pl, %zu writers, %d readers): %.2fx\n",
              headline_writers, kReaders, speedup);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"mvcc\",\n"
               "  \"workload\": \"indexed browses vs booking txns holding "
               "locks across a coordination window\",\n"
               "  \"rows\": %d,\n  \"readers\": %d,\n  \"leg_ms\": %d,\n"
               "  \"rows_per_write_txn\": %d,\n  \"lock_hold_us\": %d,\n"
               "  \"legs\": [\n",
               rows, kReaders, leg_ms, kRowsPerWriteTxn, kHoldUs);
  for (size_t i = 0; i < legs.size(); ++i) {
    const LegResult& leg = legs[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", "
                 "\"writers\": %zu, \"reads\": %zu, \"read_errors\": %zu, "
                 "\"reads_per_sec\": %.1f, \"write_txns\": %zu, "
                 "\"write_txns_per_sec\": %.1f, \"wall_ms\": %.1f}%s\n",
                 Mode(leg), leg.writers, leg.reads,
                 leg.read_errors, leg.reads_per_sec, leg.updates,
                 leg.updates_per_sec, leg.wall_ms,
                 i + 1 < legs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"headline_writers\": %zu,\n"
               "  \"mvcc_browse_reads_per_sec\": %.1f,\n"
               "  \"mvcc_uncontended_reads_per_sec\": %.1f,\n"
               "  \"mvcc_vs_2pl_browse_speedup\": %.3f\n}\n",
               std::thread::hardware_concurrency(), headline_writers, mvcc,
               mvcc_uncontended, speedup);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return speedup >= 2.0 ? 0 : 1;
}
