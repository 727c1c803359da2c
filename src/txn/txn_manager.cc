#include "txn/txn_manager.h"

#include "common/logging.h"

namespace youtopia {

std::unique_ptr<Transaction> TxnManager::Begin() {
  return std::make_unique<Transaction>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed));
}

Status TxnManager::EnsureActive(const Transaction* txn) const {
  if (txn == nullptr) return Status::InvalidArgument("null transaction");
  if (txn->state() != TxnState::kActive) {
    return Status::Aborted("transaction " + std::to_string(txn->id()) +
                           " is not active");
  }
  return Status::OK();
}

Result<RowId> TxnManager::Insert(Transaction* txn, const std::string& table,
                                 const Tuple& tuple) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  YOUTOPIA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), table, LockMode::kExclusive));
  auto rid = storage_->Insert(table, tuple, txn->id());
  if (!rid.ok()) return rid.status();
  // Redo after-image in stored form: the heap may have coerced the
  // tuple (e.g. nullable widening), and replay must reproduce storage
  // bytes, not caller bytes.
  auto stored = storage_->Get(table, rid.value());
  txn->RecordRedo({RedoEntry::Kind::kInsert, table, rid.value(),
                   stored.ok() ? stored.TakeValue() : tuple});
  return rid.value();
}

Status TxnManager::Delete(Transaction* txn, const std::string& table,
                          RowId rid) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  YOUTOPIA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), table, LockMode::kExclusive));
  YOUTOPIA_RETURN_IF_ERROR(storage_->Delete(table, rid, txn->id()));
  txn->RecordRedo({RedoEntry::Kind::kDelete, table, rid, Tuple()});
  return Status::OK();
}

Status TxnManager::Update(Transaction* txn, const std::string& table,
                          RowId rid, const Tuple& tuple) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  YOUTOPIA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), table, LockMode::kExclusive));
  YOUTOPIA_RETURN_IF_ERROR(storage_->Update(table, rid, tuple, txn->id()));
  auto stored = storage_->Get(table, rid);
  txn->RecordRedo({RedoEntry::Kind::kUpdate, table, rid,
                   stored.ok() ? stored.TakeValue() : tuple});
  return Status::OK();
}

Result<Tuple> TxnManager::Get(Transaction* txn, const std::string& table,
                              RowId rid) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  YOUTOPIA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), table, LockMode::kShared));
  return storage_->Get(table, rid);
}

Result<std::vector<std::pair<RowId, Tuple>>> TxnManager::Scan(
    Transaction* txn, const std::string& table) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  YOUTOPIA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), table, LockMode::kShared));
  return storage_->Scan(table);
}

Result<std::vector<RowId>> TxnManager::IndexLookup(Transaction* txn,
                                                   const std::string& table,
                                                   const std::string& column,
                                                   const Value& key) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  YOUTOPIA_RETURN_IF_ERROR(
      lock_manager_.Acquire(txn->id(), table, LockMode::kShared));
  return storage_->IndexLookup(table, column, key);
}

Status TxnManager::Commit(Transaction* txn) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  // Stamp the pending versions with one fresh commit timestamp while
  // the 2PL locks are still held: lock release must not expose a
  // half-stamped transaction to current readers, and the watermark
  // protocol hides it from snapshot readers.
  YOUTOPIA_RETURN_IF_ERROR(storage_->CommitTxn(txn->id()));
  txn->set_state(TxnState::kCommitted);
  lock_manager_.ReleaseAll(txn->id());
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureActive(txn));
  // Pop the transaction's pending versions; the committed chain
  // underneath is untouched, so every row (and RowId) is exactly as it
  // was before the transaction.
  Status s = storage_->AbortTxn(txn->id());
  if (!s.ok()) {
    YOUTOPIA_LOG(kWarning) << "abort failed to discard pending versions: "
                           << s;
  }
  txn->set_state(TxnState::kAborted);
  lock_manager_.ReleaseAll(txn->id());
  return Status::OK();
}

}  // namespace youtopia
