#include "storage/heap_table.h"

namespace youtopia {

namespace {

/// A slot is live when its head (newest) version is not a delete
/// marker. Pending versions count: under 2PL only the writer observes
/// its own uncommitted writes, and it must see them as current.
bool HeadLive(const std::vector<TupleVersion>& chain) {
  return !chain.empty() && !chain.front().tombstone;
}

bool Committed(const TupleVersion& v) { return v.begin_ts != kPendingTs; }

}  // namespace

Result<RowId> HeapTable::Insert(const Tuple& tuple, VersionStamp stamp) {
  auto validated = tuple.ValidateAgainst(schema_);
  if (!validated.ok()) return validated.status();
  WriterMutexLock lock(latch_);
  VersionChain chain;
  chain.push_back(
      TupleVersion{validated.TakeValue(), stamp.begin_ts, stamp.writer, false});
  slots_.push_back(std::move(chain));
  ++live_count_;
  return static_cast<RowId>(slots_.size() - 1);
}

Result<Tuple> HeapTable::Get(RowId rid) const {
  ReaderMutexLock lock(latch_);
  if (rid >= slots_.size() || !HeadLive(slots_[rid])) {
    return Status::NotFound("no row " + std::to_string(rid) + " in " + name_);
  }
  return slots_[rid].front().tuple;
}

Result<Tuple> HeapTable::GetVisible(RowId rid, Ts snapshot_ts) const {
  ReaderMutexLock lock(latch_);
  if (rid < slots_.size()) {
    for (const TupleVersion& v : slots_[rid]) {
      if (!Committed(v) || v.begin_ts > snapshot_ts) continue;
      if (v.tombstone) break;
      return v.tuple;
    }
  }
  return Status::NotFound("no row " + std::to_string(rid) + " in " + name_);
}

bool HeapTable::Contains(RowId rid) const {
  ReaderMutexLock lock(latch_);
  return rid < slots_.size() && HeadLive(slots_[rid]);
}

Status HeapTable::Delete(RowId rid, VersionStamp stamp) {
  WriterMutexLock lock(latch_);
  if (rid >= slots_.size() || !HeadLive(slots_[rid])) {
    return Status::NotFound("no row " + std::to_string(rid) + " in " + name_);
  }
  slots_[rid].insert(slots_[rid].begin(),
                     TupleVersion{Tuple(), stamp.begin_ts, stamp.writer, true});
  --live_count_;
  return Status::OK();
}

Status HeapTable::Update(RowId rid, const Tuple& tuple, VersionStamp stamp,
                         bool* collapsed) {
  auto validated = tuple.ValidateAgainst(schema_);
  if (!validated.ok()) return validated.status();
  if (collapsed != nullptr) *collapsed = false;
  WriterMutexLock lock(latch_);
  if (rid >= slots_.size() || !HeadLive(slots_[rid])) {
    return Status::NotFound("no row " + std::to_string(rid) + " in " + name_);
  }
  VersionChain& chain = slots_[rid];
  TupleVersion& head = chain.front();
  if (!Committed(head) && head.writer == stamp.writer &&
      stamp.begin_ts == kPendingTs) {
    // Intra-transaction overwrite: under 2PL the same writer updating
    // the same row twice needs only its last image — collapsing keeps
    // one pending version to stamp or abort.
    head.tuple = validated.TakeValue();
    if (collapsed != nullptr) *collapsed = true;
    return Status::OK();
  }
  chain.insert(chain.begin(),
               TupleVersion{validated.TakeValue(), stamp.begin_ts,
                            stamp.writer, false});
  return Status::OK();
}

Status HeapTable::CommitVersions(RowId rid, TxnId txn, Ts commit_ts,
                                 Ts low_water, std::vector<Tuple>* pruned,
                                 bool* slot_cleared) {
  WriterMutexLock lock(latch_);
  if (rid >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(rid) +
                              " was never allocated in " + name_);
  }
  VersionChain& chain = slots_[rid];
  for (TupleVersion& v : chain) {
    if (!Committed(v) && v.writer == txn) {
      v.begin_ts = commit_ts;
      v.writer = 0;
    }
  }
  const bool emptied = PruneChain(chain, low_water, pruned);
  if (slot_cleared != nullptr) *slot_cleared = emptied;
  return Status::OK();
}

Status HeapTable::AbortVersions(RowId rid, TxnId txn,
                                std::vector<Tuple>* removed,
                                bool* slot_cleared) {
  WriterMutexLock lock(latch_);
  if (rid >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(rid) +
                              " was never allocated in " + name_);
  }
  VersionChain& chain = slots_[rid];
  const bool live_before = HeadLive(chain);
  while (!chain.empty() && !Committed(chain.front()) &&
         chain.front().writer == txn) {
    if (!chain.front().tombstone && removed != nullptr) {
      removed->push_back(std::move(chain.front().tuple));
    }
    chain.erase(chain.begin());
  }
  const bool live_after = HeadLive(chain);
  if (live_before && !live_after) --live_count_;
  if (!live_before && live_after) ++live_count_;
  if (slot_cleared != nullptr) *slot_cleared = chain.empty();
  return Status::OK();
}

Status HeapTable::Prune(RowId rid, Ts low_water, std::vector<Tuple>* pruned,
                        bool* slot_cleared) {
  WriterMutexLock lock(latch_);
  if (rid >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(rid) +
                              " was never allocated in " + name_);
  }
  const bool emptied = PruneChain(slots_[rid], low_water, pruned);
  if (slot_cleared != nullptr) *slot_cleared = emptied;
  return Status::OK();
}

bool HeapTable::PruneChain(VersionChain& chain, Ts low_water,
                           std::vector<Tuple>* pruned) {
  if (chain.empty()) return false;
  const TupleVersion& head = chain.front();
  if (head.tombstone && Committed(head) && head.begin_ts <= low_water) {
    // Committed delete below the low-water mark: no live or future
    // snapshot can see any version of this row. Reclaim the chain; the
    // slot itself stays allocated so RowIds are never reused.
    for (TupleVersion& v : chain) {
      if (!v.tombstone && pruned != nullptr) {
        pruned->push_back(std::move(v.tuple));
      }
    }
    chain.clear();
    return true;
  }
  // Oldest version any snapshot can still need: the newest committed
  // version at or below the low-water mark. Everything strictly older
  // is unreachable; trim it from the tail.
  size_t needed = chain.size();
  for (size_t i = 0; i < chain.size(); ++i) {
    if (Committed(chain[i]) && chain[i].begin_ts <= low_water) {
      needed = i;
      break;
    }
  }
  while (chain.size() > needed + 1) {
    if (!chain.back().tombstone && pruned != nullptr) {
      pruned->push_back(std::move(chain.back().tuple));
    }
    chain.pop_back();
  }
  return false;
}

size_t HeapTable::VersionCount(RowId rid) const {
  ReaderMutexLock lock(latch_);
  return rid < slots_.size() ? slots_[rid].size() : 0;
}

std::vector<Tuple> HeapTable::VersionTuples(RowId rid) const {
  ReaderMutexLock lock(latch_);
  std::vector<Tuple> out;
  if (rid < slots_.size()) {
    for (const TupleVersion& v : slots_[rid]) {
      if (!v.tombstone) out.push_back(v.tuple);
    }
  }
  return out;
}

bool HeapTable::ChainHasKey(RowId rid, size_t col, const Value& key,
                            size_t skip_newest) const {
  ReaderMutexLock lock(latch_);
  if (rid >= slots_.size()) return false;
  const VersionChain& chain = slots_[rid];
  for (size_t i = skip_newest; i < chain.size(); ++i) {
    const TupleVersion& v = chain[i];
    if (!v.tombstone && col < v.tuple.size() && v.tuple.at(col) == key) {
      return true;
    }
  }
  return false;
}

size_t HeapTable::size() const {
  ReaderMutexLock lock(latch_);
  return live_count_;
}

size_t HeapTable::slot_count() const {
  ReaderMutexLock lock(latch_);
  return slots_.size();
}

Status HeapTable::LoadSnapshot(
    size_t slot_count, const std::vector<std::pair<RowId, Tuple>>& rows) {
  WriterMutexLock lock(latch_);
  if (!slots_.empty()) {
    return Status::Internal("LoadSnapshot into non-empty table " + name_);
  }
  slots_.resize(slot_count);
  for (const auto& [rid, tuple] : rows) {
    if (rid >= slot_count) {
      return Status::OutOfRange("snapshot row " + std::to_string(rid) +
                                " beyond slot count in " + name_);
    }
    auto validated = tuple.ValidateAgainst(schema_);
    if (!validated.ok()) return validated.status();
    if (!slots_[rid].empty()) {
      return Status::AlreadyExists("snapshot row " + std::to_string(rid) +
                                   " duplicated in " + name_);
    }
    slots_[rid].push_back(
        TupleVersion{validated.TakeValue(), kBaseTs, 0, false});
    ++live_count_;
  }
  return Status::OK();
}

std::vector<std::pair<RowId, Tuple>> HeapTable::Scan() const {
  ReaderMutexLock lock(latch_);
  std::vector<std::pair<RowId, Tuple>> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (HeadLive(slots_[i])) out.emplace_back(i, slots_[i].front().tuple);
  }
  return out;
}

std::vector<std::pair<RowId, Tuple>> HeapTable::ScanVisible(
    Ts snapshot_ts) const {
  ReaderMutexLock lock(latch_);
  std::vector<std::pair<RowId, Tuple>> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    for (const TupleVersion& v : slots_[i]) {
      if (!Committed(v) || v.begin_ts > snapshot_ts) continue;
      if (!v.tombstone) out.emplace_back(i, v.tuple);
      break;
    }
  }
  return out;
}

void HeapTable::Clear() {
  WriterMutexLock lock(latch_);
  for (auto& chain : slots_) chain.clear();
  live_count_ = 0;
}

}  // namespace youtopia
