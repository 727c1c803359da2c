// Correctness checks of the benchmark: every response and the final
// tables are compared against what the generated inputs imply. Any
// violation fails the run.
#ifndef YTBENCH_CHECKER_H_
#define YTBENCH_CHECKER_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace ytbench {

enum class Outcome : uint8_t { kNone, kOk, kShed, kTimeout, kAborted, kError };

/// What the client observed for one op of a leg. Times are seconds from
/// the leg's start; -1 when the event never happened.
struct OpResult {
  /// When the generator issued the op (a submission may then wait for
  /// its connection) and when it went on the wire.
  double issued_s = -1;
  double sent_s = -1;
  /// Statement response, or a submission's registration ack.
  double ack_s = -1;
  /// Statement response, or a submission's completion (push, or the
  /// ack itself when the submission closed its group); -1 when it came
  /// after the leg's drain.
  double done_s = -1;
  Outcome ack = Outcome::kNone;
  /// A submission whose registration closed its group (its answer came
  /// with the ack; the other members' came as pushes).
  bool closed_group = false;
  /// Final outcome: a statement's status; for a submission, its
  /// handle's outcome once the leg's leftovers were cancelled, however
  /// late it completed.
  Outcome final = Outcome::kNone;
  uint32_t rows = 0;
  int64_t fno = -1;
  int64_t hid = -1;
};

/// Contents of the answer relations and the seat counters at one point.
struct TableState {
  std::vector<std::pair<std::string, int64_t>> reservations;
  std::vector<std::pair<std::string, int64_t>> hotel_reservations;
  int64_t seats_sum = 0;
};

class Checker {
 public:
  explicit Checker(const Dataset* data) : data_(data) {}

  /// Checks one leg's responses and records what the final tables must
  /// (and must not) hold.
  void CheckLeg(const Leg& leg, const std::vector<OpResult>& results);

  /// Checks the tables against everything acknowledged so far.
  void CheckState(const TableState& state, const std::string& when);

  bool ok() const { return count_ == 0; }
  size_t violation_count() const { return count_; }
  /// The first violations found (capped).
  const std::vector<std::string>& violations() const { return messages_; }

 private:
  void Fail(const std::string& message);

  const Dataset* data_;
  size_t count_ = 0;
  std::vector<std::string> messages_;
  std::set<std::pair<std::string, int64_t>> reservations_;
  std::set<std::pair<std::string, int64_t>> hotel_reservations_;
  /// Users of groups that never closed: none of their rows may exist.
  std::set<std::string> absent_;
  int64_t acked_decrements_ = 0;
  /// Decrements whose outcome the client never learned.
  int64_t unknown_decrements_ = 0;
};

}  // namespace ytbench

#endif  // YTBENCH_CHECKER_H_
