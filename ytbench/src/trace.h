// In-memory spans recorded by the benchmark around its calls into each
// layer, written out when the run ends.
#ifndef YTBENCH_TRACE_H_
#define YTBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "latency.h"

namespace ytbench {

/// One timed interval. Spans of one op share `op`; `parent` is the id
/// of the span that caused this one (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t op = 0;
  /// A string literal.
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
};

/// Span ids are derived, not allocated: op * kSpanSlots + slot.
inline constexpr uint64_t kSpanSlots = 32;
inline uint64_t SpanId(uint32_t op, uint64_t slot) {
  return (static_cast<uint64_t>(op) + 1) * kSpanSlots + slot;
}

/// Owns one span buffer per recording thread, so recording takes no
/// lock; only handing out a buffer does.
class Tracer {
 public:
  /// A buffer for the calling thread's exclusive use, valid for the
  /// tracer's lifetime.
  std::vector<Span>* NewBuffer(size_t reserve);

  std::vector<Span> All() const;

  /// Writes every span as CSV; false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::deque<std::vector<Span>> buffers_;
};

/// Durations and self times (duration minus the time covered by the
/// span's children), in microseconds, grouped by span name.
struct SpanTimes {
  Samples duration_us;
  Samples self_us;
};
std::map<std::string, SpanTimes> TimesByName(const std::vector<Span>& spans);

}  // namespace ytbench

#endif  // YTBENCH_TRACE_H_
