#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%d\t%lld\t%lld\n", i, s.name,
                 static_cast<long long>(s.op), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = lo;  // end of the union of the children seen so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace perfbench
