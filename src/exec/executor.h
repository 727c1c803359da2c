#ifndef YOUTOPIA_EXEC_EXECUTOR_H_
#define YOUTOPIA_EXEC_EXECUTOR_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/planner.h"
#include "sql/ast.h"
#include "storage/storage_engine.h"

namespace youtopia {

/// Result of executing one statement.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Tuple> rows;
  /// For DML: number of rows inserted/updated/deleted.
  size_t affected_rows = 0;

  /// ASCII table rendering (used by the SQL command-line interface).
  std::string ToString() const;
};

/// The execution engine of the paper's architecture (§2.2): "evaluates
/// queries on the database as required by the coordination component, as
/// well as executing any other queries and updates that may be
/// necessary." Handles all regular (non-entangled) statements; entangled
/// SELECTs are rejected here and routed to the Coordinator by the server
/// layer.
class Executor {
 public:
  explicit Executor(StorageEngine* storage)
      : storage_(storage), planner_(storage) {}

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Executes any regular statement. `txn` tags DML writes with the
  /// surrounding transaction (0 = auto-commit: each write is stamped
  /// individually); `snapshot` resolves SELECT reads at that timestamp
  /// (0 = current reads: each row's newest version). The two
  /// are mutually exclusive by construction: DML carries a txn, SELECT
  /// a snapshot.
  Result<QueryResult> Execute(const Statement& stmt, TxnId txn = 0,
                              Ts snapshot = 0);

  /// Regular SELECT only, optionally at a snapshot timestamp.
  Result<QueryResult> ExecuteSelect(const SelectStatement& stmt,
                                    Ts snapshot = 0);

  /// The plan stage alone: translates a regular SELECT to its physical
  /// plan against the current catalog. Pure catalog/index reads — this
  /// is what the prepare path (and the plan cache behind it) calls
  /// ahead of execution.
  Result<PlannedSelect> Plan(const SelectStatement& stmt) const {
    return planner_.PlanSelect(stmt);
  }

  /// Executes a pre-built plan for `stmt`. The plan is immutable during
  /// execution (PlanNode::Execute is const; all per-execution state
  /// lives in the ExecContext and the materialized tuple vectors), so
  /// one shared cached plan may execute on any number of threads
  /// concurrently. The caller is responsible for plan freshness — a
  /// plan built against an older catalog version must be re-planned,
  /// not executed (Youtopia::ExecutePrepared handles this). `snapshot`
  /// threads an MVCC read timestamp through every scan, index probe and
  /// subquery in the plan (0 = current reads).
  Result<QueryResult> ExecutePlanned(const SelectStatement& stmt,
                                     const PlannedSelect& planned,
                                     Ts snapshot = 0);

  /// Evaluates a single-column subquery to its value list (domain
  /// predicates / IN membership), at `snapshot` when non-zero so a
  /// snapshot SELECT's subqueries read the same instant as its scans.
  Result<std::vector<Value>> EvaluateSubquery(const SelectStatement& stmt,
                                              Ts snapshot = 0);

  /// True if the stored answer relation `relation` contains `probe`
  /// (exact tuple). Backs `IN ANSWER` in regular queries: browsing
  /// already-coordinated answers. Resolved at `snapshot` when non-zero.
  Result<bool> AnswerContains(const std::string& relation, const Tuple& probe,
                              Ts snapshot = 0);

 private:
  Result<QueryResult> ExecuteCreateTable(const CreateTableStatement& stmt);
  Result<QueryResult> ExecuteCreateIndex(const CreateIndexStatement& stmt);
  Result<QueryResult> ExecuteDropTable(const DropTableStatement& stmt);
  Result<QueryResult> ExecuteInsert(const InsertStatement& stmt, TxnId txn);
  Result<QueryResult> ExecuteDelete(const DeleteStatement& stmt, TxnId txn);
  Result<QueryResult> ExecuteUpdate(const UpdateStatement& stmt, TxnId txn);

  /// The rows an UPDATE or DELETE tests against `where`: the candidates
  /// of ChooseIndexProbe's probe when it finds one, else every row. The
  /// caller re-evaluates the full WHERE on each. Materialized before any
  /// write, so an UPDATE of the probed column never meets a row it has
  /// already moved (Halloween-safe).
  Result<std::vector<std::pair<RowId, Tuple>>> CandidateRows(
      const std::string& table, const Schema& schema, const Expr* where);

  StorageEngine* storage_;
  Planner planner_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_EXEC_EXECUTOR_H_
