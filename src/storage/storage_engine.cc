#include "storage/storage_engine.h"

#include <algorithm>

#include "common/string_util.h"

namespace youtopia {

namespace {

/// Issues an auto-commit timestamp on construction and retires it
/// (advancing the watermark) on scope exit — error paths included, so a
/// failed write can never wedge the watermark below the clock.
class ScopedAutoCommit {
 public:
  explicit ScopedAutoCommit(MvccController* mvcc)
      : mvcc_(mvcc), ts_(mvcc == nullptr ? 0 : mvcc->BeginCommit()) {}
  ~ScopedAutoCommit() {
    if (mvcc_ != nullptr) mvcc_->EndCommit(ts_);
  }
  ScopedAutoCommit(const ScopedAutoCommit&) = delete;
  ScopedAutoCommit& operator=(const ScopedAutoCommit&) = delete;

  Ts ts() const { return ts_; }

 private:
  MvccController* mvcc_;
  Ts ts_;
};

/// The stamp a write carries: pending under `txn`, or committed at the
/// auto-commit timestamp when `txn == 0`.
VersionStamp Stamp(TxnId txn, const ScopedAutoCommit& auto_commit) {
  return txn != 0 ? VersionStamp::Pending(txn)
                  : VersionStamp::Committed(auto_commit.ts());
}

bool ContainsKey(const std::vector<Tuple>& tuples, size_t col,
                 const Value& key) {
  for (const Tuple& t : tuples) {
    if (col < t.size() && t.at(col) == key) return true;
  }
  return false;
}

}  // namespace

Status StorageEngine::CreateTable(const std::string& name, Schema schema) {
  auto id = catalog_.CreateTable(name, schema);
  if (!id.ok()) return id.status();
  WriterMutexLock lock(tables_mu_);
  TableData data;
  data.heap = std::make_unique<HeapTable>(name, std::move(schema));
  tables_.emplace(ToLowerAscii(name), std::move(data));
  return Status::OK();
}

Status StorageEngine::DropTable(const std::string& name) {
  YOUTOPIA_RETURN_IF_ERROR(catalog_.DropTable(name));
  WriterMutexLock lock(tables_mu_);
  tables_.erase(ToLowerAscii(name));
  return Status::OK();
}

Result<StorageEngine::TableData*> StorageEngine::FindTable(
    const std::string& name) {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return &it->second;
}

Result<const StorageEngine::TableData*> StorageEngine::FindTable(
    const std::string& name) const {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return &it->second;
}

void StorageEngine::EraseOrphanedKeys(TableData* data, RowId rid,
                                      const std::vector<Tuple>& candidates,
                                      const std::vector<Tuple>& remaining) {
  if (candidates.empty()) return;
  for (auto& [col, index] : data->indexes) {
    for (const Tuple& t : candidates) {
      if (col >= t.size()) continue;
      const Value& key = t.at(col);
      if (!ContainsKey(remaining, col, key)) index->Erase(key, rid);
    }
  }
}

void StorageEngine::PruneSlot(TableData* data, RowId rid, Ts low_water) {
  std::vector<Tuple> pruned;
  if (!data->heap->Prune(rid, low_water, &pruned, nullptr).ok() ||
      pruned.empty()) {
    return;
  }
  EraseOrphanedKeys(data, rid, pruned, data->heap->VersionTuples(rid));
}

void StorageEngine::RecordWrite(TxnId txn, const std::string& table,
                                RowId rid) {
  txn_writes_[txn].emplace_back(ToLowerAscii(table), rid);
}

Status StorageEngine::CreateIndex(const std::string& table,
                                  const std::string& column) {
  auto info = catalog_.GetTable(table);
  if (!info.ok()) return info.status();
  auto col = info->schema.ColumnIndex(column);
  if (!col.ok()) return col.status();

  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  if (data->indexes.count(col.value()) > 0) {
    return Status::AlreadyExists("index already exists on " + table + "." +
                                 column);
  }
  auto index = std::make_unique<HashIndex>(col.value());
  for (const auto& [rid, tuple] : data->heap->Scan()) {
    index->Insert(tuple.at(col.value()), rid);
  }
  data->indexes.emplace(col.value(), std::move(index));
  YOUTOPIA_RETURN_IF_ERROR(catalog_.AddIndexedColumn(table, col.value()));
  return Status::OK();
}

Result<RowId> StorageEngine::Insert(const std::string& table,
                                    const Tuple& tuple, TxnId txn) {
  // Auto-commit writers take their timestamp before the tables latch
  // and retire it after (kMvccClock is never held together with
  // kStorageTables); transactional writers stay pending until
  // CommitTxn.
  ScopedAutoCommit auto_commit(txn == 0 ? &mvcc_ : nullptr);
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  auto rid = data->heap->Insert(tuple, Stamp(txn, auto_commit));
  if (!rid.ok()) return rid.status();
  // The heap validated/coerced the tuple; index the stored form.
  auto stored = data->heap->Get(rid.value());
  if (!stored.ok()) return stored.status();
  for (auto& [col, index] : data->indexes) {
    index->Insert(stored->at(col), rid.value());
  }
  if (txn != 0) RecordWrite(txn, table, rid.value());
  return rid.value();
}

Status StorageEngine::Delete(const std::string& table, RowId rid, TxnId txn) {
  ScopedAutoCommit auto_commit(txn == 0 ? &mvcc_ : nullptr);
  const Ts low_water = txn == 0 ? mvcc_.LowWater() : 0;
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  YOUTOPIA_RETURN_IF_ERROR(
      td.value()->heap->Delete(rid, Stamp(txn, auto_commit)));
  // Index keys stay: the deleted version remains visible to older
  // snapshots until the tombstone passes below the low-water mark
  // (pruning erases them then; IndexLookup filters until it does).
  if (txn != 0) {
    RecordWrite(txn, table, rid);
  } else {
    PruneSlot(td.value(), rid, low_water);
  }
  return Status::OK();
}

Status StorageEngine::Update(const std::string& table, RowId rid,
                             const Tuple& tuple, TxnId txn) {
  ScopedAutoCommit auto_commit(txn == 0 ? &mvcc_ : nullptr);
  const Ts low_water = txn == 0 ? mvcc_.LowWater() : 0;
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  auto old = data->heap->Get(rid);
  if (!old.ok()) return old.status();
  // Version-aware index maintenance: a key reachable through any
  // retained version must stay indexed; keys no version holds anymore
  // must go. An Update can only (a) push a new head — so only the new
  // image's keys can appear — or (b) collapse an intra-transaction
  // pending head — so only the collapsed image's keys can vanish. Both
  // are no-ops when the indexed column's value didn't change (the
  // dominant case), so the chain is probed in place instead of being
  // materialized twice per row; this runs under the tables latch, and
  // shortening it is what keeps snapshot readers flowing past writers.
  bool collapsed = false;
  YOUTOPIA_RETURN_IF_ERROR(
      data->heap->Update(rid, tuple, Stamp(txn, auto_commit), &collapsed));
  if (!data->indexes.empty()) {
    auto stored = data->heap->Get(rid);
    if (!stored.ok()) return stored.status();
    for (auto& [col, index] : data->indexes) {
      if (col >= stored->size() || col >= old->size()) continue;
      const Value& new_key = stored->at(col);
      const Value& old_key = old->at(col);
      if (new_key == old_key) continue;
      // Skip the new head itself: the question is whether some retained
      // older version already posted this key for the slot.
      if (!data->heap->ChainHasKey(rid, col, new_key, /*skip_newest=*/1)) {
        index->Insert(new_key, rid);
      }
      if (collapsed && !data->heap->ChainHasKey(rid, col, old_key)) {
        index->Erase(old_key, rid);
      }
    }
  }
  if (txn != 0) {
    RecordWrite(txn, table, rid);
  } else {
    PruneSlot(data, rid, low_water);
  }
  return Status::OK();
}

Status StorageEngine::CommitTxn(TxnId txn) {
  if (txn == 0) return Status::OK();
  {
    ReaderMutexLock lock(tables_mu_);
    if (txn_writes_.count(txn) == 0) return Status::OK();
  }
  // Timestamp issuance brackets the stamping pass: the commit stays in
  // flight (holding the watermark down) until every row is stamped, so
  // no snapshot can open between two rows of this commit.
  const Ts commit_ts = mvcc_.BeginCommit();
  const Ts low_water = mvcc_.LowWater();
  {
    WriterMutexLock lock(tables_mu_);
    auto it = txn_writes_.find(txn);
    if (it != txn_writes_.end()) {
      auto writes = std::move(it->second);
      txn_writes_.erase(it);
      for (const auto& [table, rid] : writes) {
        auto td = FindTable(table);
        if (!td.ok()) continue;  // table dropped mid-transaction (DDL)
        std::vector<Tuple> pruned;
        Status s = td.value()->heap->CommitVersions(
            rid, txn, commit_ts, low_water, &pruned, nullptr);
        if (!s.ok()) {
          mvcc_.EndCommit(commit_ts);
          return s;
        }
        EraseOrphanedKeys(td.value(), rid, pruned,
                          td.value()->heap->VersionTuples(rid));
      }
    }
  }
  mvcc_.EndCommit(commit_ts);
  return Status::OK();
}

Status StorageEngine::AbortTxn(TxnId txn) {
  if (txn == 0) return Status::OK();
  WriterMutexLock lock(tables_mu_);
  auto it = txn_writes_.find(txn);
  if (it == txn_writes_.end()) return Status::OK();
  auto writes = std::move(it->second);
  txn_writes_.erase(it);
  for (auto w = writes.rbegin(); w != writes.rend(); ++w) {
    auto td = FindTable(w->first);
    if (!td.ok()) continue;  // table dropped mid-transaction (DDL)
    std::vector<Tuple> removed;
    Status s =
        td.value()->heap->AbortVersions(w->second, txn, &removed, nullptr);
    if (!s.ok()) return s;
    EraseOrphanedKeys(td.value(), w->second, removed,
                      td.value()->heap->VersionTuples(w->second));
  }
  return Status::OK();
}

Result<Tuple> StorageEngine::Get(const std::string& table, RowId rid) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->Get(rid);
}

Result<Tuple> StorageEngine::GetSnapshot(const std::string& table, RowId rid,
                                         Ts snapshot_ts) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->GetVisible(rid, snapshot_ts);
}

Result<std::vector<std::pair<RowId, Tuple>>> StorageEngine::Scan(
    const std::string& table) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->Scan();
}

Result<std::vector<std::pair<RowId, Tuple>>> StorageEngine::ScanSnapshot(
    const std::string& table, Ts snapshot_ts) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->ScanVisible(snapshot_ts);
}

Result<std::vector<RowId>> StorageEngine::IndexLookup(
    const std::string& table, const std::string& column,
    const Value& key) const {
  auto info = catalog_.GetTable(table);
  if (!info.ok()) return info.status();
  auto col = info->schema.ColumnIndex(column);
  if (!col.ok()) return col.status();
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  auto it = td.value()->indexes.find(col.value());
  if (it == td.value()->indexes.end()) {
    return Status::NotFound("no index on " + table + "." + column);
  }
  auto rids = it->second->Lookup(key);
  // The index keeps postings for every retained version's key; re-verify
  // against the current row so callers get "rows whose column equals
  // key now".
  std::vector<RowId> current;
  current.reserve(rids.size());
  for (RowId rid : rids) {
    auto tuple = td.value()->heap->Get(rid);
    if (tuple.ok() && col.value() < tuple->size() &&
        tuple->at(col.value()) == key) {
      current.push_back(rid);
    }
  }
  return current;
}

Result<std::vector<std::pair<RowId, Tuple>>>
StorageEngine::IndexLookupSnapshot(const std::string& table,
                                   const std::string& column,
                                   const Value& key, Ts snapshot_ts) const {
  auto info = catalog_.GetTable(table);
  if (!info.ok()) return info.status();
  auto col = info->schema.ColumnIndex(column);
  if (!col.ok()) return col.status();
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  auto it = td.value()->indexes.find(col.value());
  if (it == td.value()->indexes.end()) {
    return Status::NotFound("no index on " + table + "." + column);
  }
  std::vector<std::pair<RowId, Tuple>> out;
  for (RowId rid : it->second->Lookup(key)) {
    auto tuple = td.value()->heap->GetVisible(rid, snapshot_ts);
    if (tuple.ok() && col.value() < tuple->size() &&
        tuple->at(col.value()) == key) {
      out.emplace_back(rid, tuple.TakeValue());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

bool StorageEngine::HasIndex(const std::string& table,
                             const std::string& column) const {
  auto info = catalog_.GetTable(table);
  if (!info.ok()) return false;
  auto col = info->schema.FindColumn(column);
  if (!col) return false;
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return false;
  return td.value()->indexes.count(*col) > 0;
}

Result<size_t> StorageEngine::VersionCount(const std::string& table,
                                           RowId rid) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->VersionCount(rid);
}

Result<size_t> StorageEngine::TableSize(const std::string& table) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->size();
}

Result<size_t> StorageEngine::TableSlotCount(const std::string& table) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->slot_count();
}

Status StorageEngine::LoadTableSnapshot(
    const std::string& table, size_t slot_count,
    const std::vector<std::pair<RowId, Tuple>>& rows) {
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  YOUTOPIA_RETURN_IF_ERROR(data->heap->LoadSnapshot(slot_count, rows));
  for (auto& [col, index] : data->indexes) {
    for (const auto& [rid, tuple] : data->heap->Scan()) {
      index->Insert(tuple.at(col), rid);
    }
  }
  return Status::OK();
}

void StorageEngine::Vacuum() {
  const Ts low_water = mvcc_.LowWater();
  WriterMutexLock lock(tables_mu_);
  for (auto& [name, data] : tables_) {
    const size_t slots = data.heap->slot_count();
    for (RowId rid = 0; rid < slots; ++rid) PruneSlot(&data, rid, low_water);
  }
}

}  // namespace youtopia
