// The system under test and the open-loop generator that drives it
// over loopback TCP.
#ifndef YTBENCH_WIRE_H_
#define YTBENCH_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "latency.h"
#include "net/remote_client.h"
#include "net/server.h"
#include "server/youtopia.h"
#include "trace.h"
#include "workload.h"

namespace ytbench {

/// CPU time the hypervisor gave to other guests while this machine's
/// vCPUs wanted it (the "steal" column of /proc/stat), as a share of all
/// CPU time since construction. Noisy neighbours show here, not in the
/// code under test.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  uint64_t steal0_ = 0;
  uint64_t total0_ = 0;
};

/// A run whose reference leg or ladder had more steal than this is
/// invalid: it prints no result (see README.md).
inline constexpr double kQuietSteal = 0.04;

/// The engine configuration every workload runs: a 2-worker executor
/// pool with admission_high_water = 64, defaults elsewhere; the WAL
/// (group commit, fsync, no shutdown checkpoint) only when `wal_dir`
/// is non-empty.
youtopia::YoutopiaConfig EngineConfig(const std::string& wal_dir);

/// Creates the schema and loads `data` through the statement path.
youtopia::Status LoadDataset(youtopia::Youtopia* db, const Dataset& data);

/// An in-process engine behind a real server, with the benchmark's
/// connections to it.
struct System {
  std::unique_ptr<youtopia::Youtopia> db;
  std::unique_ptr<youtopia::net::YoutopiaServer> server;
  std::vector<std::unique_ptr<youtopia::net::RemoteClient>> stmt_conns;
  std::vector<std::unique_ptr<youtopia::net::RemoteClient>> submit_conns;

  /// Closes the connections and stops the server; the engine stays.
  void StopWire();
};

youtopia::Status StartSystem(const WorkloadSpec& spec, const Dataset& data,
                             const std::string& wal_dir, System* sys);

/// What one leg observed.
struct LegRun {
  std::vector<OpResult> results;
  /// Seconds from the leg's start to the end of its drain.
  double wall_s = 0;
  /// Send lateness against the schedule, ms.
  Samples lateness_ms;
  /// Requests sent minus responses received, at mid-leg and leg end.
  size_t backlog_mid = 0;
  size_t backlog_end = 0;
  /// Most coordinations registered and not yet complete at once.
  size_t pending_peak = 0;
  /// CPU steal during the leg (see StealMeter).
  double steal = 0;
};

/// Sends `leg` open-loop: each op leaves at its scheduled time whatever
/// the state of earlier ones. Waits up to `drain_s` after the last send
/// for outstanding responses and completions; what is still missing
/// then counts as failed in the latencies. Then cancels what is still
/// pending and records each submission's final outcome for the checks.
/// With `tracer`, records client-side spans.
LegRun RunLeg(System* sys, const Leg& leg, double drain_s, Tracer* tracer);

/// Latencies of one leg, computed from its results.
struct LegStats {
  /// Statements: scheduled send to response.
  Samples stmt_us;
  /// Submissions that park: scheduled send to registration ack.
  Samples submit_us;
  /// Groups: last member's scheduled send to the last completion.
  Samples coord_ms;
  size_t statements = 0;
  size_t groups = 0;
  size_t failed_statements = 0;
  size_t failed_groups = 0;
  size_t closed_groups = 0;
  /// Write statements, and SQL bytes of acknowledged writes and
  /// submissions (the user payload the WAL logs).
  size_t writes = 0;
  double acked_sql_bytes = 0;
  /// Ops (statements + groups) and failed ops: a group fails if any
  /// member fails.
  size_t attempted() const { return statements + groups; }
  size_t failed() const { return failed_statements + failed_groups; }
};

LegStats Summarize(const Leg& leg, const LegRun& run);

/// Reads the answer relations and the seat counters in-process.
youtopia::Result<TableState> ReadTables(youtopia::Youtopia* db);

}  // namespace ytbench

#endif  // YTBENCH_WIRE_H_
