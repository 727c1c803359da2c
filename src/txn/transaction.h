#ifndef YOUTOPIA_TXN_TRANSACTION_H_
#define YOUTOPIA_TXN_TRANSACTION_H_

#include <string>
#include <vector>

#include "storage/heap_table.h"
#include "txn/lock_manager.h"
#include "types/tuple.h"

namespace youtopia {

enum class TxnState { kActive, kCommitted, kAborted };

/// One redo-log record: the after-image of a write made through the
/// TxnManager, in storage's stored (validated/coerced) form. The WAL
/// journals these for coordinator install transactions, whose writes
/// (answer installs plus arbitrary install-hook writes) have no SQL
/// text to re-execute at recovery.
struct RedoEntry {
  enum class Kind { kInsert, kDelete, kUpdate };
  Kind kind;
  std::string table;
  RowId rid = 0;
  /// After-image for kInsert/kUpdate (empty for kDelete).
  Tuple tuple;
};

/// Book-keeping for one transaction: id, state, and the redo log.
/// Transactions are created and driven by TxnManager; this struct holds
/// no locks itself (the LockManager tracks holders by TxnId), and no
/// rollback state — the storage engine keeps the transaction's pending
/// versions, which abort discards.
class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }

  void RecordRedo(RedoEntry entry) { redo_log_.push_back(std::move(entry)); }

  const std::vector<RedoEntry>& redo_log() const { return redo_log_; }

 private:
  TxnId id_;
  TxnState state_ = TxnState::kActive;
  std::vector<RedoEntry> redo_log_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_TXN_TRANSACTION_H_
