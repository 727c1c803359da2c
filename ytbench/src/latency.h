// Exact latency capture for the benchmark: every sample is kept, so a
// percentile is the sample at its nearest rank, not a bucket edge.
#ifndef YTBENCH_LATENCY_H_
#define YTBENCH_LATENCY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ytbench {

/// A set of samples (any unit) with nearest-rank percentiles.
class Samples {
 public:
  void Reserve(size_t n) { values_.reserve(n); }
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Merge(const Samples& other);
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
  /// least p% of the samples at or below it. 0 when there are none.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Mean() const;

  /// Samples strictly above the nearest-rank position of `p`.
  size_t CountBeyond(double p) const;

  /// The highest of 50, 90, 99, 99.9, 99.99 and 99.999 with at least
  /// ten samples beyond it; 0 when even the median has fewer.
  double HighestSupportedPercentile() const;

 private:
  void Sort() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Median of a small vector of values (copies; 0 when empty).
double MedianOf(std::vector<double> values);

/// "p50=... p90=... p99=... (n=..., highest supported pX=...)".
std::string Describe(const Samples& s, const char* unit);

}  // namespace ytbench

#endif  // YTBENCH_LATENCY_H_
