#include "exec/planner.h"

#include "common/string_util.h"
#include "sql/unparser.h"

namespace youtopia {

std::vector<const Expr*> SplitConjuncts(const Expr* predicate) {
  std::vector<const Expr*> out;
  if (predicate == nullptr) return out;
  if (predicate->kind == ExprKind::kBinary) {
    const auto& b = As<BinaryExpr>(*predicate);
    if (b.op == BinaryOp::kAnd) {
      auto left = SplitConjuncts(b.left.get());
      auto right = SplitConjuncts(b.right.get());
      out.insert(out.end(), left.begin(), left.end());
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
  }
  out.push_back(predicate);
  return out;
}

namespace {

/// Matches `col = <literal>` (either side) against `scope` and returns
/// the probe when the column is indexed and the literal probes exactly.
std::optional<IndexProbe> MatchIndexable(const StorageEngine& storage,
                                         const std::string& table,
                                         const std::string& scope,
                                         const Schema& schema,
                                         const Expr* conjunct) {
  if (conjunct->kind != ExprKind::kBinary) return std::nullopt;
  const auto& b = As<BinaryExpr>(*conjunct);
  if (b.op != BinaryOp::kEq) return std::nullopt;

  const Expr* col_side = nullptr;
  const Expr* lit_side = nullptr;
  if (b.left->kind == ExprKind::kColumnRef &&
      b.right->kind == ExprKind::kLiteral) {
    col_side = b.left.get();
    lit_side = b.right.get();
  } else if (b.right->kind == ExprKind::kColumnRef &&
             b.left->kind == ExprKind::kLiteral) {
    col_side = b.right.get();
    lit_side = b.left.get();
  } else {
    return std::nullopt;
  }

  const auto& col = As<ColumnRefExpr>(*col_side);
  if (!col.qualifier.empty() && !EqualsIgnoreCase(col.qualifier, scope)) {
    return std::nullopt;
  }
  auto idx = schema.FindColumn(col.column);
  if (!idx.has_value()) return std::nullopt;
  // The index holds stored values and hashes by exact type, while `=`
  // compares numerically and rejects mixed types; probe only where the
  // two agree.
  const Value& literal = As<LiteralExpr>(*lit_side).value;
  const DataType col_type = schema.column(*idx).type;
  if (literal.is_null()) return std::nullopt;
  if (literal.type() != col_type &&
      !(literal.type() == DataType::kInt64 && col_type == DataType::kDouble)) {
    return std::nullopt;
  }
  if (!storage.HasIndex(table, col.column)) return std::nullopt;
  auto key = literal.CoerceTo(col_type);
  if (!key.ok()) return std::nullopt;
  return IndexProbe{col.column, key.TakeValue(), conjunct};
}

/// Matches an equi-join conjunct `x.col = y.col` where one side resolves
/// in `bound` (columns of the scans already stacked) and the other in
/// `incoming` (the scan being added). Returns (bound index, incoming
/// index) for a HashJoinNode.
struct JoinKeys {
  size_t left;   ///< Index within the accumulated (bound) tuple.
  size_t right;  ///< Index within the incoming scan's tuple.
};

std::optional<JoinKeys> MatchEquiJoin(const Expr* conjunct,
                                      const BoundColumns& bound,
                                      const BoundColumns& incoming) {
  if (conjunct->kind != ExprKind::kBinary) return std::nullopt;
  const auto& b = As<BinaryExpr>(*conjunct);
  if (b.op != BinaryOp::kEq) return std::nullopt;
  if (b.left->kind != ExprKind::kColumnRef ||
      b.right->kind != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  const auto& lhs = As<ColumnRefExpr>(*b.left);
  const auto& rhs = As<ColumnRefExpr>(*b.right);
  auto bl = bound.Resolve(lhs.qualifier, lhs.column);
  auto ir = incoming.Resolve(rhs.qualifier, rhs.column);
  if (bl.ok() && ir.ok()) return JoinKeys{bl.value(), ir.value()};
  auto br = bound.Resolve(rhs.qualifier, rhs.column);
  auto il = incoming.Resolve(lhs.qualifier, lhs.column);
  if (br.ok() && il.ok()) return JoinKeys{br.value(), il.value()};
  return std::nullopt;
}

}  // namespace

std::optional<IndexProbe> ChooseIndexProbe(const StorageEngine& storage,
                                           const std::string& table,
                                           const std::string& scope,
                                           const Schema& schema,
                                           const Expr* where) {
  for (const Expr* c : SplitConjuncts(where)) {
    auto probe = MatchIndexable(storage, table, scope, schema, c);
    if (probe.has_value()) return probe;
  }
  return std::nullopt;
}

Result<PlannedSelect> Planner::PlanSelect(const SelectStatement& stmt) const {
  if (stmt.IsEntangled()) {
    return Status::InvalidArgument(
        "entangled queries are handled by the coordinator, not the executor");
  }
  if (stmt.from.empty() && !stmt.select_list.empty()) {
    // Constant SELECT (e.g. SELECT 1+1): plan as projection over one
    // empty row.
    PlannedSelect planned;
    planned.columns = std::make_unique<BoundColumns>();
    // A scan-less constant select is handled by the executor directly;
    // signal with a null root.
    planned.root = nullptr;
    for (const auto& e : stmt.select_list) {
      planned.column_names.push_back(ExprToName(e.get()));
    }
    return planned;
  }

  PlannedSelect planned;
  planned.columns = std::make_unique<BoundColumns>();

  // Build scan nodes for each FROM entry and register their columns.
  std::unique_ptr<PlanNode> root;
  size_t base = 0;
  const auto conjuncts = SplitConjuncts(stmt.where.get());
  // The conjunct an index probe answers, if any.
  const Expr* absorbed = nullptr;

  for (size_t t = 0; t < stmt.from.size(); ++t) {
    const auto& ref = stmt.from[t];
    auto info = storage_->catalog().GetTable(ref.table);
    if (!info.ok()) return info.status();
    const std::string scope = ref.alias.empty() ? ref.table : ref.alias;

    // Name table for just this scan, used to detect equi-join conjuncts
    // linking it to the scans already stacked.
    BoundColumns incoming;
    incoming.AddSource(scope, info->schema, 0);

    std::unique_ptr<PlanNode> scan;
    if (stmt.from.size() == 1) {
      auto probe = ChooseIndexProbe(*storage_, ref.table, scope, info->schema,
                                    stmt.where.get());
      if (probe.has_value()) {
        scan = std::make_unique<IndexScanNode>(ref.table, probe->column,
                                               std::move(probe->key));
        absorbed = probe->conjunct;
      }
    }
    if (!scan) scan = std::make_unique<SeqScanNode>(ref.table);

    if (!root) {
      root = std::move(scan);
    } else {
      // Prefer a hash join when a conjunct equates a column of the new
      // table with one of the already-joined tables; otherwise fall
      // back to a cross product (residual filter handles conditions).
      std::optional<JoinKeys> keys;
      for (const Expr* c : conjuncts) {
        keys = MatchEquiJoin(c, *planned.columns, incoming);
        if (keys.has_value()) break;
      }
      if (keys.has_value()) {
        root = std::make_unique<HashJoinNode>(std::move(root),
                                              std::move(scan), keys->left,
                                              keys->right);
      } else {
        root = std::make_unique<CrossJoinNode>(std::move(root),
                                               std::move(scan));
      }
    }
    planned.columns->AddSource(scope, info->schema, base);
    base += info->schema.num_columns();
  }

  // Residual filter: the full predicate (re-checking the absorbed
  // conjunct is correct), unless the index probe answers the whole
  // WHERE clause exactly.
  if (stmt.where != nullptr && absorbed != stmt.where.get()) {
    root = std::make_unique<FilterNode>(std::move(root), stmt.where.get(),
                                        planned.columns.get());
  }

  // Projection. `*` expands to all bound columns.
  std::vector<const Expr*> projections;
  bool star = false;
  for (const auto& e : stmt.select_list) {
    if (e->kind == ExprKind::kColumnRef &&
        As<ColumnRefExpr>(*e).column == "*") {
      star = true;
      continue;
    }
    projections.push_back(e.get());
    planned.column_names.push_back(ExprToName(e.get()));
  }
  if (star) {
    if (!projections.empty()) {
      return Status::InvalidArgument("'*' cannot be mixed with expressions");
    }
    // Identity projection: skip the ProjectNode entirely.
    for (const auto& entry : planned.columns->entries()) {
      planned.column_names.push_back(entry.column);
    }
    planned.root = std::move(root);
    return planned;
  }

  planned.root = std::make_unique<ProjectNode>(std::move(root),
                                               std::move(projections),
                                               planned.columns.get());
  return planned;
}

}  // namespace youtopia
