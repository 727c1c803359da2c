#ifndef YOUTOPIA_SERVER_YOUTOPIA_H_
#define YOUTOPIA_SERVER_YOUTOPIA_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "entangle/coordinator.h"
#include "entangle/normalizer.h"
#include "exec/executor.h"
#include "server/plan_cache.h"
#include "service/executor_config.h"
#include "sql/parser.h"
#include "sql/table_refs.h"
#include "storage/storage_engine.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace youtopia {

class ExecutorService;
namespace wal {
class WalCoordinatorJournal;
}

/// Whole-system configuration. Storage is always versioned (design
/// decision #10): regular SELECTs read a snapshot without locks, writers
/// keep strict 2PL and stamp their versions at commit.
struct YoutopiaConfig {
  CoordinatorConfig coordinator;
  /// After regular DML changes a table, automatically re-run matching
  /// for pending entangled queries whose domain predicates read it —
  /// the paper's "waits for an opportunity to retry" without manual
  /// RetriggerAll calls.
  bool retrigger_on_dml = true;
  /// The submission queue + worker pool under the statement path. The
  /// default (num_workers = 0) executes every submission inline in the
  /// submitting thread — the seed's synchronous behavior.
  ExecutorServiceConfig executor;
  /// The shared prepared-statement cache under `Prepare` (design
  /// decision #7). capacity = 0 turns it off — every statement is
  /// re-parsed and re-planned per submission, the seed's behavior.
  PlanCacheConfig plan_cache;
  /// The durability subsystem (design decision #8): write-ahead log +
  /// crash recovery + coordinator journal. Off by default — the seed's
  /// in-memory semantics, byte for byte.
  wal::WalConfig wal;
};

/// Outcome of running one SQL string that may be regular or entangled.
struct RunOutcome {
  bool entangled = false;
  /// Set for regular statements.
  QueryResult result;
  /// Set for entangled statements.
  std::optional<EntangledHandle> handle;
};

/// A statement after the parse and plan stages of the pipeline: the AST,
/// its lock footprint, the routing decision (regular vs entangled) and —
/// for regular SELECTs — the physical plan, built against the catalog
/// version recorded in `catalog_version`.
///
/// Immutable after construction and shared via `PreparedStatementPtr`:
/// the plan cache, requeued executor tasks and any number of
/// concurrently executing threads hold the same object. Anything a
/// single execution mutates (ExecContext, lock state, conflict budgets)
/// lives with that execution — never here (design decision #7).
struct PreparedStatement {
  std::shared_ptr<const Statement> stmt;
  /// Lock footprint: `writes` locked exclusive, `reads` shared.
  TableRefs refs;
  /// True for entangled SELECTs — routed to the coordinator, not the
  /// execution engine.
  bool entangled = false;
  /// Original text (normalizer input, diagnostics, history).
  std::string sql;
  /// Physical plan for regular SELECTs (borrowing expression nodes from
  /// `stmt`, which this struct keeps alive); nullopt for every other
  /// statement kind. PlanNode execution is const — sharing is safe.
  std::optional<PlannedSelect> plan;
  /// Per-table version stamps observed when planning started, one per
  /// referenced table (reads and writes; empty for statements with no
  /// table references, which never go stale). PreparedStatementFresh
  /// compares them against the live catalog: ExecutePrepared re-plans
  /// at execution when any stamp is stale, and the plan cache
  /// discards the entry. Relation-granular — DDL on an unrelated table
  /// leaves this statement's plan warm.
  std::vector<std::pair<std::string, uint64_t>> table_versions;
  /// Global catalog version observed when planning started (kept for
  /// diagnostics and the admin snapshot; freshness decisions use the
  /// per-table stamps above).
  uint64_t catalog_version = 0;
};

/// How the acquire-locks stage of `ExecutePrepared` waits on conflicts.
enum class LockWait {
  /// Block inside the lock manager up to its wait timeout (seed
  /// behavior; what inline execution and direct callers use).
  kBlock,
  /// Fail the stage immediately with kTimedOut so the caller can
  /// requeue the statement — the executor service's workers use this;
  /// a pool thread never sleeps holding no locks.
  kTry,
};

/// The embedded Youtopia database system — the top of the architecture
/// in Figure 2 of the paper. One object owns the storage engine, the
/// execution engine, the transaction manager, the coordination
/// component and the executor service; sessions (threads) share it.
///
/// Regular SQL goes to the execution engine; entangled queries (SELECT
/// ... INTO ANSWER ...) are compiled to the coordination IR and
/// registered with the coordinator, returning a waitable handle.
///
/// The statement path is staged — parse (`Prepare`) → plan (lock
/// footprint, routing) → acquire locks → execute (`ExecutePrepared` /
/// `SubmitPrepared`) — so the executor service can run each stage from
/// a pool worker and release the worker between stages (conflict
/// requeue, entangled parking). The synchronous methods below are thin
/// compositions of the same stages.
class Youtopia {
 public:
  explicit Youtopia(YoutopiaConfig config = {});
  ~Youtopia();

  Youtopia(const Youtopia&) = delete;
  Youtopia& operator=(const Youtopia&) = delete;

  /// Executes one *regular* statement. Entangled statements are
  /// rejected with InvalidArgument (use Submit or Run).
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes a ';'-separated batch of regular statements, discarding
  /// results (schema/data setup scripts). Partial-execution semantics:
  /// statements run in order and the first failure stops the script —
  /// everything before it stays applied, nothing after it runs.
  Status ExecuteScript(const std::string& sql);

  /// Submits one *entangled* query. `owner` tags the query for the
  /// admin interface and notifications.
  Result<EntangledHandle> Submit(const std::string& sql,
                                 const std::string& owner = "");

  /// Submits a batch of *entangled* queries in one coordinator round
  /// (Coordinator::SubmitAll): a complete group submitted together
  /// closes without N lock round-trips. `owners` is either empty (no
  /// tag) or one tag per statement. All-or-nothing: any statement that
  /// fails to parse or normalize rejects the batch before anything is
  /// registered.
  Result<std::vector<EntangledHandle>> SubmitBatch(
      const std::vector<std::string>& statements,
      const std::vector<std::string>& owners = {});

  /// Runs any single statement, auto-detecting entangled queries —
  /// what the demo's SQL command-line interface does.
  Result<RunOutcome> Run(const std::string& sql,
                         const std::string& owner = "");

  // ------------------------------------------------------------------
  // Staged statement path (what the executor service's workers drive).

  /// Parse + plan, through the shared plan cache: a hit returns the
  /// cached immutable plan without touching the parser or planner; a
  /// miss builds the AST, collects the lock footprint, routes the
  /// statement (regular vs entangled), builds the physical plan for
  /// regular SELECTs, and caches the result. Reads the catalog (schema
  /// bindings, index choices) but takes no table locks.
  Result<PreparedStatementPtr> Prepare(const std::string& sql) const;

  /// The plan stage alone, for an already-parsed statement: lock
  /// footprint + routing + physical plan. The single implementation
  /// behind Prepare and the script paths, so the routing rule lives in
  /// exactly one place. Does not consult the cache.
  Result<PreparedStatementPtr> PrepareParsed(StatementPtr stmt,
                                             std::string sql) const;

  /// PrepareParsed through the cache: keyed on `text` (one statement's
  /// own source, not a whole script). What the per-step script prepare
  /// uses — the AST is already parsed, so only the plan stage is saved,
  /// but scripts replaying hot statements share plans with every other
  /// surface.
  Result<PreparedStatementPtr> PrepareParsedCached(StatementPtr stmt,
                                                   std::string text) const;

  /// Acquire-locks + execute stages for a *regular* prepared statement:
  /// a SELECT reads a snapshot without locks; any other statement takes
  /// the footprint's table locks (per `lock_wait`), runs the execution
  /// engine, commits on success or aborts on failure (a failed statement
  /// leaves no partial writes), then retriggers dependent pending
  /// coordinations (when configured). When the acquire stage loses —
  /// and only then — `lock_conflict` (optional) is set true; at that
  /// point no locks are held and nothing has executed, so the
  /// statement is safe to re-drive. A kTimedOut without the flag came
  /// from after execution (e.g. the retrigger path) and must NOT be
  /// re-driven blindly.
  Result<QueryResult> ExecutePrepared(const PreparedStatement& prepared,
                                      LockWait lock_wait = LockWait::kBlock,
                                      bool* lock_conflict = nullptr);

  /// Normalize + register stage for an *entangled* prepared statement:
  /// compiles to the coordination IR and submits to the coordinator.
  /// Non-blocking — completion is consumed via the returned handle
  /// (Wait or OnComplete).
  Result<EntangledHandle> SubmitPrepared(const PreparedStatement& prepared,
                                         const std::string& owner);

  StorageEngine& storage() { return storage_; }
  const StorageEngine& storage() const { return storage_; }
  Executor& executor() { return executor_; }
  TxnManager& txn_manager() { return txn_manager_; }
  Coordinator& coordinator() { return coordinator_; }
  const Coordinator& coordinator() const { return coordinator_; }

  /// The submission queue + worker pool driving the statement path.
  /// Always present; with `num_workers = 0` it executes submissions
  /// inline (seed synchronous semantics).
  ExecutorService& executor_service() { return *executor_service_; }
  const ExecutorService& executor_service() const {
    return *executor_service_;
  }

  /// The shared prepared-statement cache (stats for the admin snapshot
  /// and the workload report; Clear for tests and admin resets).
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// The write-ahead log, or nullptr when `config.wal.enabled` is off.
  wal::WalManager* wal() { return wal_.get(); }
  const wal::WalManager* wal() const { return wal_.get(); }

  /// Outcome of startup recovery. The constructor cannot fail, so a
  /// corrupt or un-replayable log surfaces here; callers that care
  /// about durability should check it before serving traffic. OK when
  /// the WAL is disabled or the log replayed cleanly.
  const Status& recovery_status() const { return recovery_status_; }

  /// Takes a checkpoint now: quiesces the coordinator (all shard
  /// mutexes) and regular DML (S locks on every table), snapshots
  /// tables + pending coordinations, and hands the snapshot to the WAL,
  /// which truncates the log behind it. InvalidArgument when the WAL is
  /// disabled. Also runs automatically once the post-checkpoint log
  /// volume exceeds `wal.checkpoint_bytes`, and from the destructor
  /// when `wal.checkpoint_on_shutdown` is set.
  Status Checkpoint();

 private:
  /// Startup recovery: open the log, replay checkpoint + records into
  /// storage, re-register surviving pending coordinations (original ids
  /// preserved), attach the journal, then retrigger — a group that
  /// became matchable only because of the restart closes immediately,
  /// and is journaled like any other.
  Status RecoverFromWal();

  /// Single-flight automatic checkpoint once the log volume warrants
  /// one; concurrent sessions skip instead of queueing.
  void MaybeAutoCheckpoint();

  YoutopiaConfig config_;
  StorageEngine storage_;
  Executor executor_;
  TxnManager txn_manager_;
  Coordinator coordinator_;
  /// Mutable: Prepare is logically const (it builds no engine state —
  /// the cache is memoization).
  mutable PlanCache plan_cache_;
  /// Durability subsystem; null when config.wal.enabled is off. The
  /// journal adapter feeds coordinator activity into the same log.
  std::unique_ptr<wal::WalManager> wal_;
  std::unique_ptr<wal::WalCoordinatorJournal> journal_;
  Status recovery_status_ = Status::OK();
  std::atomic<bool> checkpoint_inflight_{false};
  /// Declared last: constructed after (and destroyed before) every
  /// component its workers drive.
  std::unique_ptr<ExecutorService> executor_service_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_SERVER_YOUTOPIA_H_
