#include "latency.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ytbench {

namespace {

constexpr double kLadder[] = {50, 90, 99, 99.9, 99.99, 99.999};

/// 1-based nearest rank of percentile p among n samples.
size_t Rank(double p, size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  Sort();
  return values_[Rank(p, values_.size()) - 1];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

size_t Samples::CountBeyond(double p) const {
  if (values_.empty()) return 0;
  return values_.size() - Rank(p, values_.size());
}

double Samples::HighestSupportedPercentile() const {
  double best = 0;
  for (double p : kLadder) {
    if (CountBeyond(p) >= 10) best = p;
  }
  return best;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string Describe(const Samples& s, const char* unit) {
  const double top = s.HighestSupportedPercentile();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "p50=%.1f%s p90=%.1f%s p99=%.1f%s (n=%zu, highest supported "
                "p%g=%.1f%s)",
                s.Percentile(50), unit, s.Percentile(90), unit,
                s.Percentile(99), unit, s.count(), top,
                top > 0 ? s.Percentile(top) : 0.0, unit);
  return buf;
}

}  // namespace ytbench
