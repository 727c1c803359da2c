#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace ytbench {

std::vector<Span>* Tracer::NewBuffer(size_t reserve) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back();
  buffers_.back().reserve(reserve);
  return &buffers_.back();
}

std::vector<Span> Tracer::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  return all;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "op,id,parent,name,start_us,end_us\n");
  for (const Span& s : All()) {
    std::fprintf(out, "%u,%llu,%llu,%s,%.3f,%.3f\n", s.op,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 s.start_us, s.end_us);
  }
  return std::fclose(out) == 0;
}

std::map<std::string, SpanTimes> TimesByName(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, SpanTimes> out;
  for (const Span& s : spans) {
    const double duration = s.end_us - s.start_us;
    const auto it = child_us.find(s.id);
    SpanTimes& t = out[s.name];
    t.duration_us.Add(duration);
    t.self_us.Add(duration - (it == child_us.end() ? 0.0 : it->second));
  }
  return out;
}

}  // namespace ytbench
