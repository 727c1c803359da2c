#include "exec/executor.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/expression_eval.h"

namespace youtopia {

std::string QueryResult::ToString() const {
  if (column_names.empty()) {
    return StringPrintf("OK, %zu row(s) affected", affected_rows);
  }
  // Compute column widths.
  std::vector<size_t> widths(column_names.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < column_names.size(); ++i) {
    widths[i] = column_names[i].size();
  }
  cells.reserve(rows.size());
  for (const Tuple& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < column_names.size(); ++i) {
      std::string cell = i < row.size() ? row.at(i).ToString() : "";
      widths[i] = std::max(widths[i], cell.size());
      line.push_back(std::move(cell));
    }
    cells.push_back(std::move(line));
  }
  auto rule = [&widths]() {
    std::string out = "+";
    for (size_t w : widths) out += std::string(w + 2, '-') + "+";
    return out + "\n";
  };
  auto line = [&widths](const std::vector<std::string>& fields) {
    std::string out = "|";
    for (size_t i = 0; i < fields.size(); ++i) {
      out += " " + fields[i] + std::string(widths[i] - fields[i].size(), ' ') +
             " |";
    }
    return out + "\n";
  };
  std::string out = rule();
  out += line(column_names);
  out += rule();
  for (const auto& row : cells) out += line(row);
  out += rule();
  out += StringPrintf("%zu row(s)", rows.size());
  return out;
}

Result<QueryResult> Executor::Execute(const Statement& stmt, TxnId txn,
                                      Ts snapshot) {
  switch (stmt.kind) {
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const CreateTableStatement&>(stmt));
    case StatementKind::kCreateIndex:
      return ExecuteCreateIndex(static_cast<const CreateIndexStatement&>(stmt));
    case StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const DropTableStatement&>(stmt));
    case StatementKind::kInsert:
      return ExecuteInsert(static_cast<const InsertStatement&>(stmt), txn);
    case StatementKind::kDelete:
      return ExecuteDelete(static_cast<const DeleteStatement&>(stmt), txn);
    case StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const UpdateStatement&>(stmt), txn);
    case StatementKind::kSelect:
      return ExecuteSelect(static_cast<const SelectStatement&>(stmt),
                           snapshot);
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Executor::ExecuteSelect(const SelectStatement& stmt,
                                            Ts snapshot) {
  auto planned = planner_.PlanSelect(stmt);
  if (!planned.ok()) return planned.status();
  return ExecutePlanned(stmt, *planned, snapshot);
}

Result<QueryResult> Executor::ExecutePlanned(const SelectStatement& stmt,
                                             const PlannedSelect& planned,
                                             Ts snapshot) {
  QueryResult result;
  result.column_names = planned.column_names;

  if (planned.root == nullptr) {
    // Constant SELECT: evaluate the projection list over no row.
    ExpressionEvaluator eval(nullptr, this, snapshot);
    Tuple row;
    for (const auto& e : stmt.select_list) {
      auto v = eval.Evaluate(*e, nullptr);
      if (!v.ok()) return v.status();
      row.Append(v.TakeValue());
    }
    result.rows.push_back(std::move(row));
    return result;
  }

  ExecContext ctx{storage_, this, snapshot};
  auto rows = planned.root->Execute(ctx);
  if (!rows.ok()) return rows.status();
  result.rows = rows.TakeValue();
  return result;
}

Result<std::vector<Value>> Executor::EvaluateSubquery(
    const SelectStatement& stmt, Ts snapshot) {
  auto result = ExecuteSelect(stmt, snapshot);
  if (!result.ok()) return result.status();
  if (result->column_names.size() != 1) {
    return Status::InvalidArgument(
        "IN subquery must produce exactly one column");
  }
  std::vector<Value> out;
  out.reserve(result->rows.size());
  for (const Tuple& row : result->rows) {
    out.push_back(row.at(0));
  }
  return out;
}

Result<bool> Executor::AnswerContains(const std::string& relation,
                                      const Tuple& probe, Ts snapshot) {
  auto info = storage_->catalog().GetTable(relation);
  if (!info.ok()) {
    return Status::NotFound("answer relation " + relation +
                            " does not exist");
  }
  if (probe.size() != info->schema.num_columns()) {
    return Status::InvalidArgument(StringPrintf(
        "IN ANSWER %s probe has %zu values, relation has %zu columns",
        relation.c_str(), probe.size(), info->schema.num_columns()));
  }
  auto rows = snapshot != 0 ? storage_->ScanSnapshot(relation, snapshot)
                            : storage_->Scan(relation);
  if (!rows.ok()) return rows.status();
  for (const auto& [rid, tuple] : *rows) {
    if (tuple == probe) return true;
  }
  return false;
}

Result<QueryResult> Executor::ExecuteCreateTable(
    const CreateTableStatement& stmt) {
  std::vector<Column> columns;
  columns.reserve(stmt.columns.size());
  for (const auto& def : stmt.columns) {
    auto type = DataTypeFromString(def.type_name);
    if (!type.ok()) return type.status();
    columns.push_back({def.name, type.value(), !def.not_null});
  }
  auto schema = Schema::Create(std::move(columns));
  if (!schema.ok()) return schema.status();
  YOUTOPIA_RETURN_IF_ERROR(
      storage_->CreateTable(stmt.table, schema.TakeValue()));
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteCreateIndex(
    const CreateIndexStatement& stmt) {
  YOUTOPIA_RETURN_IF_ERROR(storage_->CreateIndex(stmt.table, stmt.column));
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteDropTable(
    const DropTableStatement& stmt) {
  YOUTOPIA_RETURN_IF_ERROR(storage_->DropTable(stmt.table));
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteInsert(const InsertStatement& stmt,
                                            TxnId txn) {
  QueryResult result;
  for (const auto& row_exprs : stmt.rows) {
    Tuple row;
    for (const auto& e : row_exprs) {
      auto v = EvaluateConstant(*e);
      if (!v.ok()) return v.status();
      row.Append(v.TakeValue());
    }
    auto rid = storage_->Insert(stmt.table, row, txn);
    if (!rid.ok()) return rid.status();
    ++result.affected_rows;
  }
  return result;
}

Result<std::vector<std::pair<RowId, Tuple>>> Executor::CandidateRows(
    const std::string& table, const Schema& schema, const Expr* where) {
  auto probe = ChooseIndexProbe(*storage_, table, table, schema, where);
  if (!probe.has_value()) return storage_->Scan(table);
  auto rids = storage_->IndexLookup(table, probe->column, probe->key);
  if (!rids.ok()) return rids.status();
  // Rid order, as a scan writes.
  std::sort(rids->begin(), rids->end());
  std::vector<std::pair<RowId, Tuple>> rows;
  rows.reserve(rids->size());
  for (RowId rid : *rids) {
    auto tuple = storage_->Get(table, rid);
    if (tuple.ok()) rows.emplace_back(rid, tuple.TakeValue());
  }
  return rows;
}

Result<QueryResult> Executor::ExecuteDelete(const DeleteStatement& stmt,
                                            TxnId txn) {
  auto info = storage_->catalog().GetTable(stmt.table);
  if (!info.ok()) return info.status();
  BoundColumns columns;
  columns.AddSource(stmt.table, info->schema, 0);
  ExpressionEvaluator eval(&columns, this);

  auto rows = CandidateRows(stmt.table, info->schema, stmt.where.get());
  if (!rows.ok()) return rows.status();
  QueryResult result;
  for (const auto& [rid, tuple] : *rows) {
    bool match = true;
    if (stmt.where) {
      auto keep = eval.EvaluatePredicate(*stmt.where, &tuple);
      if (!keep.ok()) return keep.status();
      match = keep.value();
    }
    if (match) {
      YOUTOPIA_RETURN_IF_ERROR(storage_->Delete(stmt.table, rid, txn));
      ++result.affected_rows;
    }
  }
  return result;
}

Result<QueryResult> Executor::ExecuteUpdate(const UpdateStatement& stmt,
                                            TxnId txn) {
  auto info = storage_->catalog().GetTable(stmt.table);
  if (!info.ok()) return info.status();
  BoundColumns columns;
  columns.AddSource(stmt.table, info->schema, 0);
  ExpressionEvaluator eval(&columns, this);

  // Resolve assignment targets once.
  std::vector<size_t> targets;
  for (const auto& [col, expr] : stmt.assignments) {
    auto idx = info->schema.ColumnIndex(col);
    if (!idx.ok()) return idx.status();
    targets.push_back(idx.value());
  }

  auto rows = CandidateRows(stmt.table, info->schema, stmt.where.get());
  if (!rows.ok()) return rows.status();
  QueryResult result;
  for (const auto& [rid, tuple] : *rows) {
    bool match = true;
    if (stmt.where) {
      auto keep = eval.EvaluatePredicate(*stmt.where, &tuple);
      if (!keep.ok()) return keep.status();
      match = keep.value();
    }
    if (!match) continue;
    Tuple updated = tuple;
    for (size_t i = 0; i < stmt.assignments.size(); ++i) {
      auto v = eval.Evaluate(*stmt.assignments[i].second, &tuple);
      if (!v.ok()) return v.status();
      updated.at(targets[i]) = v.TakeValue();
    }
    YOUTOPIA_RETURN_IF_ERROR(storage_->Update(stmt.table, rid, updated, txn));
    ++result.affected_rows;
  }
  return result;
}

}  // namespace youtopia
