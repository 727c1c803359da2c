// ytbench: the Youtopia benchmark. Starts an in-process engine behind a
// real YoutopiaServer, drives one workload over loopback TCP at fixed
// open-loop rates, checks every answer, and prints the metrics; the
// last line of standard output is one JSON object.
//
//   ytbench --workload <browse_book|coordinate|book_durable> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics (counter deltas, client spans, in-process replay)
// and writes the replay's spans under <out-dir>/traces. See README.md.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "checker.h"
#include "common/mutex.h"
#include "latency.h"
#include "replay.h"
#include "service/executor_service.h"
#include "trace.h"
#include "wire.h"
#include "workload.h"

namespace ytbench {
namespace {

using namespace youtopia;  // NOLINT(build/namespaces) — benchmark driver
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string out_dir = ".bench_build";
};

/// Leg lengths as shares of --seconds.
struct Plan {
  Plan(const WorkloadSpec& spec, double s)
      : warm_s(0.05 * s), ref_s(spec.ref_share * s),
        step_s(spec.step_share * s) {}
  double warm_s, ref_s, step_s;
  double drain_s = 1.0;
};

/// Most ladder steps above the start, which bounds the run time.
constexpr int kMaxClimb = 16;

/// Set-ups of the live system at the start of a run, and of spare
/// systems after the reference leg and each ladder step, and at the
/// end. Host speed drifts from second to second, so setup_s is the
/// median of set-ups spread over the whole run. The first set-up, which
/// also pays for first-touch page faults, is not counted.
constexpr int kStartSetups = 4;
constexpr int kSpareSetupsPerLeg = 2;
constexpr int kEndSetups = 4;

/// Exit code of a run the host spoiled: CPU steal above kQuietSteal,
/// or no ladder step passed. It prints no result.
constexpr int kInvalidRun = 3;

/// Stream ids: each leg purpose draws from its own stream.
constexpr uint64_t kWarmStream = 1;
constexpr uint64_t kRefStream = 2;
uint64_t LadderStream(int k) { return 100 + static_cast<uint64_t>(k + 64); }

double Elapsed(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Every layer's public counters at one instant.
struct Counters {
  net::YoutopiaServer::Stats server;
  ExecutorService::Stats exec;
  PlanCache::Stats plan;
  CoordinatorStats coord;
  wal::WalStats wal;
};

Counters Snap(System* sys) {
  Counters c;
  c.server = sys->server->stats();
  c.exec = sys->db->executor_service().stats();
  c.plan = sys->db->plan_cache().stats();
  c.coord = sys->db->coordinator().stats();
  if (sys->db->wal() != nullptr) c.wal = sys->db->wal()->stats();
  return c;
}

double D(size_t after, size_t before) {
  return static_cast<double>(after) - static_cast<double>(before);
}

/// A latency that more than (100 - p)% of failed ops pushed to
/// infinity is printed as this, since JSON has no infinity.
constexpr double kFailedValue = 1e12;

/// Ordered name -> (value, unit) for the JSON line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < items_.size(); ++i) {
      const double value = std::isfinite(items_[i].value) ? items_[i].value
                                                           : kFailedValue;
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), value,
                    items_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Item& m : items_) {
      std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// One run of the benchmark: the system under test and everything the
/// checks have learned about it.
class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), plan_(spec, args.seconds),
        data_(MakeDataset(spec.data, args.seed)), checker_(&data_) {}

  ~Bench() {
    sys_.StopWire();
    sys_.db.reset();
    for (const std::string& dir : wal_dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  int RunUntraced();
  int RunTraced();

 private:
  std::string NewWalDir() {
    if (!spec_.wal) return "";
    wal_dirs_.push_back(args_.out_dir + "/wal-" + std::to_string(getpid()) +
                        "-" + std::to_string(wal_dirs_.size()));
    std::error_code ec;
    std::filesystem::remove_all(wal_dirs_.back(), ec);
    return wal_dirs_.back();
  }

  /// Schema, data generation, server start and connects, into `sys`
  /// (stopped and emptied first). Records the seconds it took in
  /// setups_; false on failure.
  bool SetUp(System* sys, std::string* wal_dir) {
    sys->StopWire();
    sys->db.reset();
    const Clock::time_point t0 = Clock::now();
    const Dataset data = MakeDataset(spec_.data, args_.seed);
    *wal_dir = NewWalDir();
    const Status started = StartSystem(spec_, data, *wal_dir, sys);
    if (!started.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", started.ToString().c_str());
      setup_failed_ = true;
      return false;
    }
    setups_.push_back(Elapsed(t0));
    return true;
  }

  /// Sets up a spare system and tears it down again.
  void SpareSetUps(int n) {
    for (int i = 0; i < n; ++i) {
      System spare;
      std::string wal_dir;
      (void)SetUp(&spare, &wal_dir);
      spare.StopWire();
    }
  }

  std::string NextTag() { return "L" + std::to_string(tag_++) + "x"; }

  /// Generates, sends and checks one leg.
  std::pair<LegStats, LegRun> SendLeg(uint64_t stream, double rate,
                                      double seconds, Tracer* tracer) {
    const Leg leg = MakeLeg(spec_, data_, args_.seed, stream, NextTag(), rate,
                            seconds);
    LegRun run = RunLeg(&sys_, leg, plan_.drain_s, tracer);
    checker_.CheckLeg(leg, run.results);
    LegStats stats = Summarize(leg, run);
    return {std::move(stats), std::move(run)};
  }

  bool Passes(const LegStats& s, const LegRun& run) const {
    if (spec_.stmt_p90_limit_us > 0 &&
        s.stmt_us.Percentile(90) > spec_.stmt_p90_limit_us) {
      return false;
    }
    if (spec_.coord_p90_limit_ms > 0 &&
        s.coord_ms.Percentile(90) > spec_.coord_p90_limit_ms) {
      return false;
    }
    // A growing backlog never counts, whatever its latencies.
    return run.backlog_end <= std::max<size_t>(32, 2 * run.backlog_mid);
  }

  double CountedShare() const {
    return spec_.rate_counts_groups ? spec_.group : 1.0 - spec_.group;
  }

  double RateAt(int k) const {
    return spec_.ref_rate * std::pow(kLadderStep, k);
  }

  bool LadderLeg(int k) {
    auto [stats, run] = SendLeg(LadderStream(k), RateAt(k), plan_.step_s,
                                nullptr);
    const bool pass = Passes(stats, run);
    SpareSetUps(kSpareSetupsPerLeg);
    std::printf(
        "ladder k=%+d rate=%.1f/s steal=%.3f: %s stmt{%s} submit{%s} "
        "coord{%s} failed=%zu/%zu backlog=%zu->%zu lag_p99=%.3fms\n",
        k, RateAt(k), run.steal, pass ? "PASS" : "fail",
        Describe(stats.stmt_us, "us").c_str(),
        Describe(stats.submit_us, "us").c_str(),
        Describe(stats.coord_ms, "ms").c_str(), stats.failed(),
        stats.attempted(),
        run.backlog_mid, run.backlog_end, run.lateness_ms.Percentile(99));
    return pass;
  }

  /// What the warm-up, the reference leg and the ladder measured.
  struct Measured {
    LegStats ref;
    LegRun ref_run;
    /// Counters around the reference leg.
    Counters c0, c1;
    double rss_mb = 0;
    /// Highest passing ladder step; -1 if none passed.
    int best = -1;
    size_t shed = 0, submitted = 0;
    size_t peak_queue_depth = 0;
    double ladder_steal = 0;
  };

  /// Sends the warm-up, one contiguous reference leg and the ladder. The
  /// ladder climbs the fixed rate grid from spec.ladder_start until two
  /// steps in a row fail (at most kMaxClimb steps up); if the start step
  /// fails, it descends until a step passes, no lower than the
  /// reference rate.
  Measured Measure() {
    Measured m;
    auto warm = SendLeg(kWarmStream, spec_.ref_rate, plan_.warm_s, nullptr);
    PrintLeg("warm-up", warm.first, warm.second);
    m.c0 = Snap(&sys_);
    std::tie(m.ref, m.ref_run) =
        SendLeg(kRefStream, spec_.ref_rate, plan_.ref_s, nullptr);
    m.c1 = Snap(&sys_);
    PrintLeg("reference", m.ref, m.ref_run);
    // The footprint of the reference load, before the ladder's extra
    // rows grow the tables by however far it climbs.
    m.rss_mb = PeakRssMb();
    SpareSetUps(kSpareSetupsPerLeg);

    const StealMeter steal;
    int k = spec_.ladder_start;
    if (LadderLeg(k)) {
      m.best = k;
      for (int fails = 0; fails < 2 && k < spec_.ladder_start + kMaxClimb;) {
        if (LadderLeg(++k)) {
          m.best = k;
          fails = 0;
        } else {
          ++fails;
        }
      }
    } else {
      while (m.best < 0 && k > 0) {
        if (LadderLeg(--k)) m.best = k;
      }
    }
    m.ladder_steal = steal.Share();
    const Counters after = Snap(&sys_);
    m.shed = after.exec.shed - m.c1.exec.shed;
    m.submitted = after.exec.submitted - m.c1.exec.submitted;
    m.peak_queue_depth = after.exec.peak_queue_depth;
    std::printf("steal: reference %.4f, ladder %.4f\n", m.ref_run.steal,
                m.ladder_steal);
    return m;
  }

  /// Destroys the engine without a checkpoint and reopens it on the
  /// same log, so recovery replays it; checks the recovered tables.
  double Recover(size_t* recovered_records) {
    sys_.StopWire();
    sys_.db.reset();
    const Clock::time_point t0 = Clock::now();
    auto db = std::make_unique<Youtopia>(EngineConfig(wal_dir_));
    const double seconds = Elapsed(t0);
    if (!db->recovery_status().ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   db->recovery_status().ToString().c_str());
      return -1;
    }
    *recovered_records = db->wal()->stats().recovered_records;
    CheckTables(db.get(), "after reopen");
    return seconds;
  }

  void CheckTables(Youtopia* db, const std::string& when) {
    auto state = ReadTables(db);
    if (!state.ok()) {
      std::fprintf(stderr, "%s: reading tables failed: %s\n", when.c_str(),
                   state.status().ToString().c_str());
      checker_failed_ = true;
      return;
    }
    checker_.CheckState(*state, when);
  }

  void PrintLeg(const char* label, const LegStats& s, const LegRun& run) {
    std::printf(
        "%s: stmt{%s} submit{%s} coord{%s} failed=%zu/%zu closed_groups=%zu "
        "backlog=%zu->%zu lag_p99=%.3fms pending_peak=%zu wall=%.2fs "
        "steal=%.3f\n",
        label, Describe(s.stmt_us, "us").c_str(),
        Describe(s.submit_us, "us").c_str(), Describe(s.coord_ms, "ms").c_str(),
        s.failed(), s.attempted(), s.closed_groups, run.backlog_mid,
        run.backlog_end, run.lateness_ms.Percentile(99), run.pending_peak,
        run.wall_s, run.steal);
  }

  bool Correct() const { return checker_.ok() && !checker_failed_; }

  void PrintViolations() const {
    for (const std::string& v : checker_.violations()) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
    if (checker_.violation_count() > checker_.violations().size()) {
      std::printf("VIOLATION: ... %zu in all\n", checker_.violation_count());
    }
  }

  /// Prints the result; `attempted` and `failed` count the reference
  /// load's ops (ladder steps past the knee shed by design).
  int Finish(const Metrics& metrics, size_t attempted, size_t failed) {
    PrintViolations();
    std::printf("metrics:\n");
    metrics.Print();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                Correct() ? "true" : "false", attempted, failed,
                metrics.Json().c_str());
    std::fflush(stdout);
    return Correct() ? 0 : 1;
  }

  const Args args_;
  const WorkloadSpec& spec_;
  const Plan plan_;
  const Dataset data_;
  Checker checker_;
  bool checker_failed_ = false;
  bool setup_failed_ = false;
  /// Seconds of every set-up, in order.
  std::vector<double> setups_;
  System sys_;
  std::string wal_dir_;
  std::vector<std::string> wal_dirs_;
  uint64_t tag_ = 0;
};

int Bench::RunUntraced() {
  for (int i = 0; i < kStartSetups; ++i) {
    if (!SetUp(&sys_, &wal_dir_)) return 1;
  }
  const Measured m = Measure();
  CheckTables(sys_.db.get(), "end of run");
  double recovery_s = 0;
  size_t recovered = 0;
  if (spec_.wal) {
    recovery_s = Recover(&recovered);
    if (recovery_s < 0) return 1;
  }
  SpareSetUps(kEndSetups);
  if (setup_failed_) return 1;
  const std::vector<double> setups(setups_.begin() + 1, setups_.end());
  const double setup_s = MedianOf(setups);
  std::printf("setup: median %.4fs of %zu (min %.4fs, max %.4fs)\n", setup_s,
              setups.size(), *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  const LegStats& ref = m.ref;
  // Every end-to-end figure, gated or not, with its sample count.
  Metrics report;
  for (double p : {50.0, 90.0, 99.0}) {
    const std::string q = "_p" + std::to_string(static_cast<int>(p));
    report.Add("stmt" + q + "_us", ref.stmt_us.Percentile(p), "us");
    report.Add("submit" + q + "_us", ref.submit_us.Percentile(p), "us");
    report.Add("coord" + q + "_ms", ref.coord_ms.Percentile(p), "ms");
  }
  report.Add("failed_frac",
             Ratio(static_cast<double>(ref.failed()),
                   static_cast<double>(ref.attempted())),
             "ratio");
  report.Add("recovery_s", recovery_s, "s");
  report.Add("wal.recovered_records", static_cast<double>(recovered), "count");
  report.Add("cpu_steal_reference", m.ref_run.steal, "ratio");
  report.Add("cpu_steal_ladder", m.ladder_steal, "ratio");
  std::printf(
      "report (samples: stmt n=%zu, highest supported p%g; submit n=%zu, p%g; "
      "coord n=%zu, p%g):\n",
      ref.stmt_us.count(), ref.stmt_us.HighestSupportedPercentile(),
      ref.submit_us.count(), ref.submit_us.HighestSupportedPercentile(),
      ref.coord_ms.count(), ref.coord_ms.HighestSupportedPercentile());
  report.Print();

  Metrics out;
  out.Add("setup_s", setup_s, "s");
  out.Add("stmt_p50_us", ref.stmt_us.Percentile(50), "us");
  out.Add("submit_p50_us", ref.submit_us.Percentile(50), "us");
  out.Add("coord_p50_ms", ref.coord_ms.Percentile(50), "ms");
  out.Add("max_rate_ops_s", m.best < 0 ? 0 : RateAt(m.best) * CountedShare(),
          "ops/s");
  out.Add("peak_rss_mb", m.rss_mb, "MiB");
  // The same rule for every run, whatever its figures: a run that other
  // guests slowed, or whose ladder found no passing rate, says more
  // about the host than the program. Its figures are shown, but it
  // prints no result.
  if (m.ref_run.steal > kQuietSteal || m.ladder_steal > kQuietSteal ||
      m.best < 0) {
    PrintViolations();
    std::printf("metrics (invalid run):\n");
    out.Print();
    std::fprintf(stderr,
                 "invalid run: CPU steal %.4f on the reference leg and %.4f "
                 "on the ladder (limit %.2f)%s\n",
                 m.ref_run.steal, m.ladder_steal, kQuietSteal,
                 m.best < 0 ? "; no ladder step passed" : "");
    std::fflush(stdout);
    return Correct() ? kInvalidRun : 1;
  }
  return Finish(out, ref.attempted(), ref.failed());
}

int Bench::RunTraced() {
  if (!SetUp(&sys_, &wal_dir_)) return 1;
  const Measured m = Measure();
  if (setup_failed_) return 1;
  const LegStats& ref = m.ref;
  const LegRun& ref_run = m.ref_run;
  const Counters& c0 = m.c0;
  const Counters& c1 = m.c1;

  // The reference stream again, with client-side spans.
  Tracer wire_tracer;
  auto [traced, traced_run] =
      SendLeg(kRefStream, spec_.ref_rate, plan_.ref_s, &wire_tracer);
  PrintLeg("reference (traced)", traced, traced_run);
  CheckTables(sys_.db.get(), "end of run");
  double recovery_s = 0;
  size_t recovered = 0;
  if (spec_.wal) {
    recovery_s = Recover(&recovered);
    if (recovery_s < 0) return 1;
  }

  // In-process replay of the reference stream's prefix.
  Youtopia replay_db(EngineConfig(NewWalDir()));
  Status loaded = LoadDataset(&replay_db, data_);
  Tracer tracer;
  ReplayResult rr;
  Checker replay_checker(&data_);
  if (loaded.ok()) {
    const double seconds = std::min(plan_.ref_s, 4000.0 / spec_.ref_rate);
    const Leg leg = MakeLeg(spec_, data_, args_.seed, kRefStream, "R",
                            spec_.ref_rate, seconds);
    loaded = Replay(&replay_db, data_, leg, &tracer, &replay_checker, &rr);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  auto state = ReadTables(&replay_db);
  if (state.ok()) replay_checker.CheckState(*state, "replay");
  if (!replay_checker.ok() || !state.ok()) {
    for (const std::string& v : replay_checker.violations()) {
      std::printf("VIOLATION (replay): %s\n", v.c_str());
    }
    checker_failed_ = true;
  }

  std::error_code ec;
  std::filesystem::create_directories(args_.out_dir + "/traces", ec);
  const std::string stem = args_.out_dir + "/traces/" + spec_.name + "-seed" +
                           std::to_string(args_.seed);
  if (!tracer.WriteCsv(stem + "-replay.csv") ||
      !wire_tracer.WriteCsv(stem + "-wire.csv")) {
    std::fprintf(stderr, "cannot write spans under %s\n", stem.c_str());
  }
  std::printf("replay: %zu ops in %.2fs; spans in %s-{replay,wire}.csv\n",
              rr.ops, rr.wall_s, stem.c_str());
  std::printf("  %-22s %8s %12s %12s\n", "span", "n", "p50_us", "self_p50_us");
  for (const auto& [name, t] : TimesByName(tracer.All())) {
    std::printf("  %-22s %8zu %12.2f %12.2f\n", name.c_str(),
                t.duration_us.count(), t.duration_us.Median(),
                t.self_us.Median());
  }
  for (const auto& [name, t] : TimesByName(wire_tracer.All())) {
    std::printf("  wire %-17s %8zu %12.2f %12.2f\n", name.c_str(),
                t.duration_us.count(), t.duration_us.Median(),
                t.self_us.Median());
  }

  const double wall_us = ref_run.wall_s * 1e6;
  const double stmt_p50 = ref.stmt_us.Percentile(50);
  Metrics out;
  out.Add("net.encode_us", rr.encode_us.Median(), "us");
  out.Add("net.decode_us", rr.decode_us.Median(), "us");
  out.Add("net.resp_bytes_per_stmt", rr.resp_bytes_per_stmt, "B");
  out.Add("net.pushes_per_group",
          Ratio(D(c1.server.pushes, c0.server.pushes),
                static_cast<double>(ref.closed_groups)),
          "count");
  out.Add("service.busy_frac",
          Ratio(D(c1.exec.busy_micros, c0.exec.busy_micros),
                static_cast<double>(c1.exec.workers) * wall_us),
          "ratio");
  out.Add("service.peak_queue_depth", static_cast<double>(m.peak_queue_depth),
          "count");
  out.Add("service.lock_requeues_per_stmt",
          Ratio(D(c1.exec.lock_requeues, c0.exec.lock_requeues),
                static_cast<double>(ref.statements)),
          "ratio");
  out.Add("service.shed_frac",
          Ratio(static_cast<double>(m.shed), static_cast<double>(m.submitted)),
          "ratio");
  out.Add("server.prepare_hit_us", rr.prepare_hit_us.Median(), "us");
  out.Add("server.prepare_miss_us", rr.prepare_miss_us.Median(), "us");
  const double hits = D(c1.plan.hits, c0.plan.hits);
  const double misses = D(c1.plan.misses, c0.plan.misses);
  out.Add("plan_cache.hit_rate", Ratio(hits, hits + misses), "ratio");
  out.Add("plan_cache.evictions", D(c1.plan.evictions, c0.plan.evictions),
          "count");
  out.Add("sql.parse_us", rr.parse_us.Median(), "us");
  out.Add("exec.select_us", rr.select_us.Median(), "us");
  out.Add("exec.rows_per_select", rr.rows_per_select, "count");
  out.Add("exec.write_us", rr.write_us.Median(), "us");
  out.Add("storage.lookup_us", rr.lookup_us.Median(), "us");
  out.Add("entangle.submit_park_us", rr.submit_park_us.Median(), "us");
  out.Add("entangle.submit_close_us", rr.submit_close_us.Median(), "us");
  const double calls = D(c1.coord.match_calls, c0.coord.match_calls);
  const double matched = D(c1.coord.matched_groups, c0.coord.matched_groups);
  const double failed_installs =
      D(c1.coord.failed_installs, c0.coord.failed_installs);
  out.Add("entangle.match_us_per_call",
          Ratio(D(c1.coord.match_micros_total, c0.coord.match_micros_total),
                calls),
          "us");
  out.Add("entangle.search_steps_per_match",
          Ratio(D(c1.coord.search_steps_total, c0.coord.search_steps_total),
                calls),
          "count");
  out.Add("entangle.match_calls_per_group", Ratio(calls, matched), "ratio");
  out.Add("entangle.retrigger_rounds_per_write",
          Ratio(D(c1.coord.retrigger_rounds, c0.coord.retrigger_rounds),
                static_cast<double>(ref.writes)),
          "ratio");
  out.Add("entangle.failed_install_frac",
          Ratio(failed_installs, matched + failed_installs), "ratio");
  out.Add("entangle.pending_peak", static_cast<double>(ref_run.pending_peak),
          "count");
  out.Add("wal.records_per_fsync",
          Ratio(D(c1.wal.records_appended, c0.wal.records_appended),
                D(c1.wal.fsyncs, c0.wal.fsyncs)),
          "ratio");
  out.Add("wal.bytes_per_user_byte",
          spec_.wal ? Ratio(D(c1.wal.bytes_appended, c0.wal.bytes_appended),
                            ref.acked_sql_bytes)
                    : 0.0,
          "ratio");
  out.Add("wal.recovered_records", static_cast<double>(recovered), "count");
  out.Add("wal.recovery_s", recovery_s, "s");
  out.Add("bench.gen_lag_p99_ms", ref_run.lateness_ms.Percentile(99), "ms");
  out.Add("bench.backlog", static_cast<double>(ref_run.backlog_end), "count");
  out.Add("bench.residual_us", stmt_p50 - rr.stmt_stage_p50_sum_us, "us");
  out.Add("bench.trace_overhead_frac",
          Ratio(traced.stmt_us.Percentile(50) - stmt_p50, stmt_p50), "ratio");
  return Finish(out, ref.attempted(), ref.failed());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

}  // namespace
}  // namespace ytbench

int main(int argc, char** argv) {
  using namespace ytbench;  // NOLINT(build/namespaces)
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ytbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Precise sleeps for the pacer; responses to a closed socket must not
  // kill the process.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf(
      "profile: nproc=%u build=%s lock_rank_compiled=%d lock_rank_enabled=%d "
      "workers=2 admission_high_water=64 workload=%s seed=%llu seconds=%g "
      "trace=%d\n",
      std::thread::hardware_concurrency(), YTBENCH_BUILD_TYPE,
      YTBENCH_LOCK_RANK_COMPILED, youtopia::lockrank::ChecksEnabled() ? 1 : 0,
      spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace);
  std::printf("why: %s\n", spec->why);
  std::fflush(stdout);
  Bench bench(args, *spec);
  return args.trace == 1 ? bench.RunTraced() : bench.RunUntraced();
}
