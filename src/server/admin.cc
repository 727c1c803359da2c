#include "server/admin.h"

#include "common/string_util.h"

namespace youtopia {

std::string AdminSnapshot::ToString() const {
  std::string out;
  out += "================ Youtopia system state ================\n";
  out += "-- Tables --\n";
  for (const TableEntry& t : tables) {
    out += StringPrintf("  %-24s %6zu row(s)  %s", t.name.c_str(), t.rows,
                        t.schema.c_str());
    if (!t.indexed_columns.empty()) {
      out += "  [indexed: " + JoinStrings(t.indexed_columns, ", ") + "]";
    }
    out += StringPrintf("  [v%llu]",
                        static_cast<unsigned long long>(t.version));
    out += "\n";
  }
  out += "-- MVCC --\n";
  out += StringPrintf("  clock=%llu watermark=%llu active_snapshots=%zu\n",
                      static_cast<unsigned long long>(mvcc.clock),
                      static_cast<unsigned long long>(mvcc.watermark),
                      mvcc.active_snapshots);
  out += "-- Pending entangled queries --\n";
  if (pending.empty()) out += "  (none)\n";
  for (const PendingQueryInfo& p : pending) {
    out += "  #" + std::to_string(p.id);
    if (!p.owner.empty()) out += " owner=" + p.owner;
    out += StringPrintf(" waiting=%.1fms",
                        static_cast<double>(p.age_micros) / 1000.0);
    out += "\n    sql: " + p.sql + "\n";
    // Indent the IR dump.
    for (const std::string& line : SplitString(p.ir, '\n')) {
      if (!line.empty()) out += "    " + line + "\n";
    }
  }
  out += "-- Coordination statistics --\n";
  out += StringPrintf(
      "  submitted=%zu matched=%zu groups=%zu cancelled=%zu "
      "failed_installs=%zu\n",
      stats.submitted, stats.matched_queries, stats.matched_groups,
      stats.cancelled, stats.failed_installs);
  out += StringPrintf(
      "  match_calls=%zu search_steps=%zu from_stored=%zu "
      "match_time_us=%llu\n",
      stats.match_calls, stats.search_steps_total,
      stats.constraints_from_stored,
      static_cast<unsigned long long>(stats.match_micros_total));
  out += StringPrintf(
      "  batches=%zu batched_queries=%zu callbacks_registered=%zu "
      "callbacks_fired=%zu\n",
      stats.batches, stats.batched_queries, stats.callbacks_registered,
      stats.callbacks_fired);
  out += StringPrintf("  shard_rounds=%zu global_rounds=%zu "
                      "cross_shard_queries=%zu\n",
                      stats.shard_rounds, stats.global_rounds,
                      stats.cross_shard_queries);
  out += "-- Coordinator shards --\n";
  for (const Coordinator::ShardInfo& s : shards) {
    out += StringPrintf(
        "  shard %zu: pending=%zu submitted=%zu matched=%zu groups=%zu "
        "rounds(local=%zu, global=%zu) cross_shard=%zu\n",
        s.shard, s.pending, s.stats.submitted, s.stats.matched_queries,
        s.stats.matched_groups, s.stats.shard_rounds, s.stats.global_rounds,
        s.stats.cross_shard_queries);
  }
  out += "-- Executor service --\n";
  out += StringPrintf(
      "  workers=%zu queue_depth=%zu (peak=%zu, executing=%zu)\n",
      executor.workers, executor.queue_depth, executor.peak_queue_depth,
      executor.executing);
  out += StringPrintf(
      "  submitted=%zu executed=%zu lock_requeues=%zu entangled_parked=%zu "
      "rejected=%zu utilization=%.1f%%\n",
      executor.submitted, executor.executed, executor.lock_requeues,
      executor.entangled_parked, executor.rejected,
      executor.WorkerUtilization() * 100.0);
  out += "-- Plan cache --\n";
  if (plan_cache.capacity == 0) {
    out += "  disabled (plan_cache.capacity = 0)\n";
  } else {
    out += StringPrintf(
        "  size=%zu/%zu hits=%zu misses=%zu (hit_rate=%.1f%%) "
        "evictions=%zu invalidations=%zu\n",
        plan_cache.size, plan_cache.capacity, plan_cache.hits,
        plan_cache.misses, plan_cache.HitRate() * 100.0,
        plan_cache.evictions, plan_cache.invalidations);
  }
  out += "-- WAL --\n";
  if (!wal_enabled) {
    out += "  disabled (wal.enabled = false)\n";
  } else {
    out += StringPrintf(
        "  records=%zu bytes=%llu syncs=%zu fsyncs=%zu\n",
        wal.records_appended,
        static_cast<unsigned long long>(wal.bytes_appended), wal.syncs,
        wal.fsyncs);
    out += StringPrintf(
        "  group_commit_batches=%zu batch_records(mean=%.1f, max=%llu)\n",
        wal.group_commit_batches, wal.batch_records.mean(),
        static_cast<unsigned long long>(wal.batch_records.count() > 0
                                            ? wal.batch_records.max()
                                            : 0));
    out += StringPrintf(
        "  checkpoints=%zu segments(created=%zu, deleted=%zu)\n",
        wal.checkpoints, wal.segments_created, wal.segments_deleted);
    out += StringPrintf(
        "  recovery: records_replayed=%zu time_us=%llu\n",
        wal.recovered_records,
        static_cast<unsigned long long>(wal.recovery_micros));
  }
  out += "-- Match graph --\n";
  out += match_graph;
  out += "=======================================================\n";
  return out;
}

AdminSnapshot TakeAdminSnapshot(const Youtopia& db) {
  AdminSnapshot snapshot;
  const StorageEngine& storage = db.storage();
  for (const TableInfo& info : storage.catalog().ListTables()) {
    AdminSnapshot::TableEntry entry;
    entry.name = info.name;
    entry.schema = info.schema.ToString();
    auto size = storage.TableSize(info.name);
    entry.rows = size.ok() ? size.value() : 0;
    for (size_t col : info.indexed_columns) {
      entry.indexed_columns.push_back(info.schema.column(col).name);
    }
    entry.version = info.version;
    snapshot.tables.push_back(std::move(entry));
  }
  snapshot.mvcc.clock = storage.mvcc().clock();
  snapshot.mvcc.watermark = storage.mvcc().watermark();
  snapshot.mvcc.active_snapshots = storage.mvcc().active_snapshots();
  snapshot.pending = db.coordinator().Pending();
  snapshot.stats = db.coordinator().stats();
  snapshot.shards = db.coordinator().ShardInfos();
  snapshot.executor = db.executor_service().stats();
  snapshot.plan_cache = db.plan_cache().stats();
  if (db.wal() != nullptr) {
    snapshot.wal_enabled = true;
    snapshot.wal = db.wal()->stats();
  }
  snapshot.match_graph = db.coordinator().RenderGraph();
  return snapshot;
}

}  // namespace youtopia
