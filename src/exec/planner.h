#ifndef YOUTOPIA_EXEC_PLANNER_H_
#define YOUTOPIA_EXEC_PLANNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/plan.h"
#include "sql/ast.h"

namespace youtopia {

/// A planned regular SELECT: the physical tree plus the name-resolution
/// table it references and the output column names. The plan borrows
/// expression nodes from the statement, so the SelectStatement must
/// outlive execution.
struct PlannedSelect {
  std::unique_ptr<PlanNode> root;
  std::unique_ptr<BoundColumns> columns;
  std::vector<std::string> column_names;
};

/// An index probe chosen for one table: read the rows whose `column`
/// equals `key` instead of scanning. `conjunct` is the WHERE conjunct
/// the probe answers exactly (borrowed from the statement).
struct IndexProbe {
  std::string column;
  Value key;
  const Expr* conjunct = nullptr;
};

/// The access-path chooser shared by SELECT, UPDATE and DELETE: the
/// first top-level conjunct of `where` of the form `col = literal`
/// (either side) whose column belongs to `scope`, is indexed on
/// `table`, and whose literal the index can answer exactly — non-NULL,
/// and either of the column's type or an INT on a DOUBLE column (the
/// only lossless coercion); the probe carries the coerced key. nullopt
/// means "scan". Any other literal (NULL, 1.0 on an INT column, text on
/// a number) would probe differently from how the predicate evaluates,
/// so it stays in the filter.
std::optional<IndexProbe> ChooseIndexProbe(const StorageEngine& storage,
                                           const std::string& table,
                                           const std::string& scope,
                                           const Schema& schema,
                                           const Expr* where);

/// Translates regular SELECT ASTs to physical plans. A single FROM
/// table is read through ChooseIndexProbe's index probe when it finds
/// one; everything else becomes scan → cross join → filter → project.
class Planner {
 public:
  explicit Planner(const StorageEngine* storage) : storage_(storage) {}

  /// Fails with InvalidArgument for entangled statements — those go to
  /// the coordination component, not the executor.
  Result<PlannedSelect> PlanSelect(const SelectStatement& stmt) const;

 private:
  const StorageEngine* storage_;
};

/// Splits a predicate into top-level AND conjuncts (borrowed pointers).
std::vector<const Expr*> SplitConjuncts(const Expr* predicate);

}  // namespace youtopia

#endif  // YOUTOPIA_EXEC_PLANNER_H_
