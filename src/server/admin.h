#ifndef YOUTOPIA_SERVER_ADMIN_H_
#define YOUTOPIA_SERVER_ADMIN_H_

#include <string>
#include <vector>

#include "server/youtopia.h"
#include "service/executor_service.h"

namespace youtopia {

/// A point-in-time view of the system internals — the backend of the
/// demo's administrative ("debugging") interface (paper §3.2): tables,
/// pending entangled queries with their IR, coordination statistics, and
/// the match-graph visualization.
struct AdminSnapshot {
  struct TableEntry {
    std::string name;
    std::string schema;
    size_t rows = 0;
    std::vector<std::string> indexed_columns;
    /// Per-table schema-generation stamp — the counter the plan cache
    /// compares, so the version split is visible per relation.
    uint64_t version = 0;
  };

  /// MVCC state (design decision #10): commit clock, snapshot
  /// watermark and open snapshot count.
  struct MvccEntry {
    uint64_t clock = 0;
    uint64_t watermark = 0;
    size_t active_snapshots = 0;
  };

  std::vector<TableEntry> tables;
  MvccEntry mvcc;
  std::vector<PendingQueryInfo> pending;
  CoordinatorStats stats;
  /// Per-shard breakdown of the coordinator's pending pool and
  /// counters; the shard-attributable counters sum to `stats`.
  std::vector<Coordinator::ShardInfo> shards;
  /// Executor-service counters: queue depth, tasks executed, conflict
  /// requeues, worker utilization.
  ExecutorService::Stats executor;
  /// Plan-cache counters: hits, misses, LRU evictions, catalog-version
  /// invalidations, occupancy.
  PlanCache::Stats plan_cache;
  /// WAL counters: appends, group-commit batching, fsyncs, checkpoints
  /// and the last recovery's replay work. `wal_enabled` false means the
  /// durability subsystem is off (the seed's in-memory semantics).
  bool wal_enabled = false;
  wal::WalStats wal;
  std::string match_graph;

  /// Full multi-section text rendering for the admin console.
  std::string ToString() const;
};

/// Captures the current state of `db`.
AdminSnapshot TakeAdminSnapshot(const Youtopia& db);

}  // namespace youtopia

#endif  // YOUTOPIA_SERVER_ADMIN_H_
