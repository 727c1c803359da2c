#ifndef YOUTOPIA_TXN_TXN_MANAGER_H_
#define YOUTOPIA_TXN_TXN_MANAGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/storage_engine.h"
#include "txn/lock_manager.h"
#include "txn/mvcc.h"
#include "txn/transaction.h"

namespace youtopia {

/// Strict two-phase-locking transaction layer over the storage engine.
/// Provides the classical *isolation* abstraction the paper contrasts with
/// coordination (§1): Youtopia keeps transactions and layers entangled
/// queries beside them — the coordinator installs each matched group's
/// answers inside one transaction from this manager.
class TxnManager {
 public:
  explicit TxnManager(StorageEngine* storage) : storage_(storage) {}

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Starts a transaction. The returned object stays owned by the caller
  /// and must end via Commit or Abort.
  std::unique_ptr<Transaction> Begin();

  /// Write operations; acquire X table locks and write pending versions
  /// tagged with the transaction's id.
  Result<RowId> Insert(Transaction* txn, const std::string& table,
                       const Tuple& tuple);
  Status Delete(Transaction* txn, const std::string& table, RowId rid);
  Status Update(Transaction* txn, const std::string& table, RowId rid,
                const Tuple& tuple);

  /// Read operations; acquire S table locks.
  Result<Tuple> Get(Transaction* txn, const std::string& table, RowId rid);
  Result<std::vector<std::pair<RowId, Tuple>>> Scan(Transaction* txn,
                                                    const std::string& table);
  Result<std::vector<RowId>> IndexLookup(Transaction* txn,
                                         const std::string& table,
                                         const std::string& column,
                                         const Value& key);

  /// Releases locks; the transaction's effects become permanent. This
  /// is also where the commit timestamp is issued: the storage engine
  /// stamps every pending version the transaction wrote with one fresh
  /// timestamp before the 2PL locks drop, so snapshot readers see the
  /// whole transaction or none of it.
  Status Commit(Transaction* txn);

  /// Discards the transaction's pending versions, then releases locks.
  /// Row identity is preserved: an aborted delete only drops its
  /// tombstone, so the row keeps its RowId.
  Status Abort(Transaction* txn);

  /// Opens a read-only snapshot at the current watermark: the txn
  /// context for lock-free SELECTs. Closes (and unpins GC) when the
  /// handle is destroyed.
  SnapshotHandle OpenSnapshot() {
    return SnapshotHandle(&storage_->mvcc());
  }

  LockManager& lock_manager() { return lock_manager_; }

 private:
  Status EnsureActive(const Transaction* txn) const;

  StorageEngine* storage_;
  LockManager lock_manager_;
  std::atomic<TxnId> next_txn_id_{1};
};

}  // namespace youtopia

#endif  // YOUTOPIA_TXN_TXN_MANAGER_H_
