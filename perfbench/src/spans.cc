#include "perfbench/src/spans.h"

#include <cstdio>

#include "perfbench/src/wrappers.h"

namespace perfbench {

int SpanLog::open(std::string_view name, int parent) {
  return add(name, parent, now_ns(), 0);
}

void SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_ns = now_ns() - s.start_ns;
}

int SpanLog::add(std::string_view name, int parent, std::int64_t start_ns,
                 std::int64_t dur_ns, long count) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, parent, name, start_ns, dur_ns, count});
  return id;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "id,parent,name,start_ns,dur_ns,count\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%d,%d,%.*s,%lld,%lld,%ld\n", s.id, s.parent,
                 static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.dur_ns), s.count);
  }
  const bool wrote = !std::ferror(f);
  return std::fclose(f) == 0 && wrote;
}

}  // namespace perfbench
