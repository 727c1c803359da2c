#ifndef YOUTOPIA_STORAGE_STORAGE_ENGINE_H_
#define YOUTOPIA_STORAGE_STORAGE_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/hash_index.h"
#include "storage/heap_table.h"
#include "txn/mvcc.h"

namespace youtopia {

/// Facade tying together catalog, heap tables and secondary indexes.
/// All writes go through here so indexes stay consistent with the heaps.
/// This is the "regular database tables" substrate the Youtopia
/// coordination component reads and writes (paper §2.2).
///
/// Storage is versioned (design decision #10): heaps keep version
/// chains, writes carry the writing transaction id (0 = auto-commit,
/// stamped immediately), CommitTxn / AbortTxn stamp or discard a
/// transaction's pending versions, and the snapshot read family
/// (GetSnapshot / ScanSnapshot / IndexLookupSnapshot) resolves
/// visibility at a timestamp without any 2PL lock.
class StorageEngine {
 public:
  StorageEngine() = default;
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  MvccController& mvcc() { return mvcc_; }
  const MvccController& mvcc() const { return mvcc_; }

  /// Creates the table in the catalog and its backing heap.
  Status CreateTable(const std::string& name, Schema schema);

  /// Drops catalog entry, heap and indexes.
  Status DropTable(const std::string& name);

  /// Builds a hash index over `column` of `table`, backfilling from
  /// current rows (older versions' keys are not backfilled — a snapshot
  /// opened before the index existed can still be planned onto it and
  /// miss rows whose key changed since — DDL takes no 2PL locks, so
  /// readers were never isolated from it).
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Validated insert, maintaining all indexes on the table. `txn != 0`
  /// leaves the version pending until CommitTxn; `txn == 0` stamps it
  /// with a fresh commit timestamp immediately.
  Result<RowId> Insert(const std::string& table, const Tuple& tuple,
                       TxnId txn = 0);

  /// Deletes by rid: pushes a tombstone. The old version (and its index
  /// keys) survive until the tombstone passes below the GC low-water
  /// mark. An auto-commit delete (`txn == 0`) prunes the slot's chain
  /// against that mark right away, as CommitTxn does for its rows.
  Status Delete(const std::string& table, RowId rid, TxnId txn = 0);

  /// Update: pushes a new version. Index keys of still-reachable old versions are kept (a
  /// snapshot reader probing the old key must still find the row);
  /// IndexLookup re-verifies, so current reads never see them. An
  /// auto-commit update (`txn == 0`, the WAL replay path too) prunes the
  /// chain against the GC low-water mark, so N such updates to one row
  /// leave a bounded chain rather than an N-long one.
  Status Update(const std::string& table, RowId rid, const Tuple& tuple,
                TxnId txn = 0);

  /// Stamps every pending version `txn` wrote with one fresh commit
  /// timestamp (atomic for snapshot readers via the watermark
  /// protocol), prunes the touched chains against the GC low-water mark
  /// and retires orphaned index keys. No-op for transactions that wrote
  /// nothing.
  Status CommitTxn(TxnId txn);

  /// Discards every pending version `txn` wrote, restoring the chains
  /// (and indexes) to their pre-transaction state — RowIds included: an
  /// aborted delete simply drops its tombstone. This is the only
  /// rollback path.
  Status AbortTxn(TxnId txn);

  /// Head-version read (current read; pending versions included — 2PL
  /// keeps them writer-private).
  Result<Tuple> Get(const std::string& table, RowId rid) const;

  /// Version of `rid` visible at `snapshot_ts` (snapshot read).
  Result<Tuple> GetSnapshot(const std::string& table, RowId rid,
                            Ts snapshot_ts) const;

  /// Materialized scan of current rows.
  Result<std::vector<std::pair<RowId, Tuple>>> Scan(
      const std::string& table) const;

  /// Materialized scan resolving every slot at `snapshot_ts`.
  Result<std::vector<std::pair<RowId, Tuple>>> ScanSnapshot(
      const std::string& table, Ts snapshot_ts) const;

  /// Row ids whose `column` currently equals `key`, via the hash index.
  /// NotFound if no such index exists. Stale postings (older versions'
  /// keys not yet pruned) are filtered out here, so callers see exactly
  /// "rows whose column equals key now".
  Result<std::vector<RowId>> IndexLookup(const std::string& table,
                                         const std::string& column,
                                         const Value& key) const;

  /// Index probe at a snapshot: tuples visible at `snapshot_ts` whose
  /// `column` equals `key`. The index may carry stale or newer keys for
  /// a row, so each candidate's visible version is re-verified against
  /// `key` before it is returned.
  Result<std::vector<std::pair<RowId, Tuple>>> IndexLookupSnapshot(
      const std::string& table, const std::string& column, const Value& key,
      Ts snapshot_ts) const;

  /// True if `table`.`column` has a hash index.
  bool HasIndex(const std::string& table, const std::string& column) const;

  Result<size_t> TableSize(const std::string& table) const;

  /// Versions retained in `rid`'s chain (0 = dead slot); GC
  /// introspection.
  Result<size_t> VersionCount(const std::string& table, RowId rid) const;

  /// Allocated heap slots of `table`, live or dead (checkpoints persist
  /// this so recovery reproduces RowId assignment).
  Result<size_t> TableSlotCount(const std::string& table) const;

  /// Bulk-restores a checkpointed table into its (empty) heap, placing
  /// each tuple at its recorded RowId and maintaining any indexes that
  /// already exist. Recovery calls CreateTable → LoadTableSnapshot →
  /// CreateIndex, so index backfill normally happens afterwards.
  Status LoadTableSnapshot(const std::string& table, size_t slot_count,
                           const std::vector<std::pair<RowId, Tuple>>& rows);

  /// MVCC garbage collection sweep: prunes every chain against the
  /// current low-water mark and reclaims slots whose committed
  /// tombstone no snapshot can see (commit-time pruning only revisits
  /// rows the committing transaction touched, so fully dead slots and
  /// long-idle chains are reclaimed here).
  void Vacuum();

 private:
  struct TableData {
    std::unique_ptr<HeapTable> heap;
    /// Keyed by column index.
    std::unordered_map<size_t, std::unique_ptr<HashIndex>> indexes;
  };

  /// Returns the TableData for a (lowercased) name under tables_mu_.
  Result<TableData*> FindTable(const std::string& name)
      REQUIRES_SHARED(tables_mu_);
  Result<const TableData*> FindTable(const std::string& name) const
      REQUIRES_SHARED(tables_mu_);

  /// Erases index postings for `candidates` tuples of `rid` whose keys
  /// no longer appear in any retained version (`remaining`).
  static void EraseOrphanedKeys(TableData* data, RowId rid,
                                const std::vector<Tuple>& candidates,
                                const std::vector<Tuple>& remaining);

  /// Prunes `rid`'s chain against `low_water` and retires the index
  /// keys no retained version holds anymore.
  static void PruneSlot(TableData* data, RowId rid, Ts low_water);

  /// Records (table, rid) into `txn`'s write set.
  void RecordWrite(TxnId txn, const std::string& table, RowId rid)
      REQUIRES(tables_mu_);

  Catalog catalog_;
  /// Commit clock + snapshot registry. Its internal mutex
  /// (kMvccClock) is only ever held alone; commit stamping calls it
  /// strictly before and strictly after the tables_mu_ critical
  /// section.
  MvccController mvcc_;
  /// Reader/writer latch over the table map and per-table index maps:
  /// reads (Scan, Get, IndexLookup and their snapshot variants) take it
  /// shared so concurrent sessions — and executor-pool workers — read
  /// in parallel; anything that mutates a heap, an index or the map
  /// itself takes it exclusive. Row-level consistency within one heap
  /// is additionally guarded by HeapTable's own latch; this latch is
  /// what keeps the index maps consistent with the heaps.
  mutable SharedMutex tables_mu_{LockRank::kStorageTables,
                                 "storage_tables"};
  std::unordered_map<std::string, TableData> tables_ GUARDED_BY(tables_mu_);
  /// Pending write sets by transaction: the (table, rid)
  /// pairs CommitTxn must stamp or AbortTxn must discard. Guarded by
  /// tables_mu_ — every writer already holds it exclusive.
  std::unordered_map<TxnId, std::vector<std::pair<std::string, RowId>>>
      txn_writes_ GUARDED_BY(tables_mu_);
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_STORAGE_ENGINE_H_
