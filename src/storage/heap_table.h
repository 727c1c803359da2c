#ifndef YOUTOPIA_STORAGE_HEAP_TABLE_H_
#define YOUTOPIA_STORAGE_HEAP_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "txn/mvcc.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace youtopia {

/// Position of a row within its heap table. Row ids are never reused, so a
/// stale RowId reliably reports NotFound rather than aliasing a new row.
using RowId = uint64_t;

/// One version of a row. Versions live newest-first in their slot's
/// chain; a version's end timestamp is implicit — it is the begin_ts of
/// the next-newer committed version (or "still live" at the head).
struct TupleVersion {
  Tuple tuple;
  /// kPendingTs until the writing transaction commits; the commit
  /// timestamp afterwards.
  Ts begin_ts = kBaseTs;
  /// Writing transaction while pending (0 = auto-commit writer).
  TxnId writer = 0;
  /// A delete marker: the row is invisible at and after begin_ts. Only
  /// ever at the head of a chain — slots are never re-inserted.
  bool tombstone = false;
};

/// How a versioned write is stamped: already committed (auto-commit
/// writers stamp with a real timestamp up front) or pending under a
/// transaction (stamped later by CommitVersions).
struct VersionStamp {
  Ts begin_ts = kBaseTs;
  TxnId writer = 0;

  static VersionStamp Committed(Ts ts) { return {ts, 0}; }
  static VersionStamp Pending(TxnId txn) { return {kPendingTs, txn}; }
};

/// In-memory slotted heap: an append-only vector of slots, each holding
/// a newest-first version chain. This is the physical layer every scan
/// and index probe bottoms out in. Thread-safe via a reader/writer
/// latch; multi-statement atomicity is layered on top by the
/// transaction manager and the MVCC commit protocol.
///
/// Every write pushes a version (updates and deletes never overwrite a
/// committed version in place). Retention is the low-water rule: pruning
/// (CommitVersions / Prune) keeps the newest committed version at or
/// below the GC low-water mark plus everything newer, and reclaims the
/// rest — no live or future snapshot can read them.
class HeapTable {
 public:
  HeapTable(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Validates against the schema (coercing as needed) and appends a
  /// new slot whose first version carries `stamp` (default: committed
  /// at the base timestamp, visible to every snapshot).
  Result<RowId> Insert(const Tuple& tuple,
                       VersionStamp stamp = VersionStamp::Committed(kBaseTs));

  /// Head-version lookup (current read): the newest version, pending
  /// included — under 2PL only the writer itself can reach its own
  /// pending versions. NotFound for dead or out-of-range slots.
  Result<Tuple> Get(RowId rid) const;

  /// Newest version visible at `snapshot_ts`: committed, begin_ts <=
  /// snapshot_ts, not a tombstone. NotFound when no version qualifies.
  Result<Tuple> GetVisible(RowId rid, Ts snapshot_ts) const;

  /// True iff `rid`'s head version is live (non-tombstone).
  bool Contains(RowId rid) const;

  /// Pushes a tombstone version carrying `stamp`; NotFound if already
  /// dead or out of range.
  Status Delete(RowId rid,
                VersionStamp stamp = VersionStamp::Committed(kBaseTs));

  /// Replaces the row (same RowId). Validates the new tuple and pushes a
  /// new version carrying `stamp` (pruning happens at commit, not here) —
  /// except when the pending head already belongs to `stamp`'s writer,
  /// which collapses in place and reports `*collapsed` = true (the only
  /// way an Update can make a previously-held index key vanish).
  Status Update(RowId rid, const Tuple& tuple,
                VersionStamp stamp = VersionStamp::Committed(kBaseTs),
                bool* collapsed = nullptr);

  /// Stamps every pending version `txn` wrote in slot `rid` with
  /// `commit_ts`, then prunes the chain against `low_water` (see
  /// Prune). Appends pruned tuples to `*pruned` and, when the whole
  /// slot died, sets `*slot_cleared`; both outputs optional.
  Status CommitVersions(RowId rid, TxnId txn, Ts commit_ts, Ts low_water,
                        std::vector<Tuple>* pruned, bool* slot_cleared);

  /// Pops every pending version `txn` wrote in slot `rid` (they are
  /// contiguous at the head — the writer held the table X lock).
  /// Appends the removed tuples to `*removed` (optional); sets
  /// `*slot_cleared` when the abort emptied the chain (an aborted
  /// insert — the slot stays allocated so RowId assignment is stable).
  Status AbortVersions(RowId rid, TxnId txn, std::vector<Tuple>* removed,
                       bool* slot_cleared);

  /// Garbage collection for one slot. Reclaims the whole chain when its
  /// head is a committed tombstone at or below `low_water` (no live or
  /// future snapshot can see the row); otherwise reclaims every version
  /// strictly older than the newest committed version at or below
  /// `low_water`. `low_water` is the oldest timestamp any live or future
  /// snapshot can read at, so exactly the unreachable versions go.
  /// Outputs as in CommitVersions.
  Status Prune(RowId rid, Ts low_water, std::vector<Tuple>* pruned,
               bool* slot_cleared);

  /// Number of versions currently in `rid`'s chain (0 = dead slot).
  size_t VersionCount(RowId rid) const;

  /// All non-tombstone tuples in `rid`'s chain, newest first (index
  /// maintenance: a key present in any retained version must stay in
  /// the index).
  std::vector<Tuple> VersionTuples(RowId rid) const;

  /// True if any non-tombstone version in `rid`'s chain holds `key` at
  /// column `col`, ignoring the `skip_newest` newest versions. The
  /// allocation-free probe behind the update path's index maintenance
  /// (VersionTuples materializes the chain; this just walks it).
  bool ChainHasKey(RowId rid, size_t col, const Value& key,
                   size_t skip_newest = 0) const;

  /// Number of live rows (head version live; pending included).
  size_t size() const;

  /// Number of allocated slots, live or dead — the next Insert gets
  /// RowId slot_count(). Checkpoints persist it so recovery reproduces
  /// row-id assignment exactly (dead slots included).
  size_t slot_count() const;

  /// Bulk-restores checkpointed contents: sizes the slot vector to
  /// `slot_count` (everything dead) and places each tuple at its
  /// recorded RowId as one committed-at-base version. The table must be
  /// empty and untouched; rows must fit below `slot_count` and validate
  /// against the schema.
  Status LoadSnapshot(size_t slot_count,
                      const std::vector<std::pair<RowId, Tuple>>& rows);

  /// Materialized snapshot of all live (rid, head tuple) pairs in rid
  /// order. Scans copy: the engine is in-memory and tuples are small,
  /// and a snapshot keeps iterator semantics trivial under concurrent
  /// writers.
  std::vector<std::pair<RowId, Tuple>> Scan() const;

  /// Like Scan, but resolving each slot at `snapshot_ts` (see
  /// GetVisible).
  std::vector<std::pair<RowId, Tuple>> ScanVisible(Ts snapshot_ts) const;

  /// Removes all rows (admin/test helper). Row ids continue to advance.
  void Clear();

 private:
  using VersionChain = std::vector<TupleVersion>;

  /// Shared pruning logic; caller holds the latch. Returns true when
  /// the chain was emptied.
  bool PruneChain(VersionChain& chain, Ts low_water,
                  std::vector<Tuple>* pruned) REQUIRES(latch_);

  std::string name_;
  Schema schema_;
  /// Row-level latch, acquired under the engine's kStorageTables
  /// latch (or alone); takes nothing itself.
  mutable SharedMutex latch_{LockRank::kHeapTable, "heap_table"};
  /// Newest-first version chains; an empty chain is a dead slot (the
  /// slot stays allocated so RowIds are never reused).
  std::vector<VersionChain> slots_ GUARDED_BY(latch_);
  size_t live_count_ GUARDED_BY(latch_) = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_HEAP_TABLE_H_
