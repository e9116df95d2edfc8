// In-memory span log for the traced run. Spans are recorded at the layer
// boundaries the benchmark can see from outside (run, set-up, each
// simulation, each pass, and each pass's context calls aggregated per
// kind) and written out once, when the benchmark ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  std::string_view name;  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  // Calls the span aggregates (1 for a plain span). An aggregate span of
  // context calls covers `count` calls whose times add up to `dur_ns`;
  // `start_ns` is then the start of its parent pass.
  long count = 1;
};

class SpanLog {
 public:
  // Opens a span starting now; close it with close().
  int open(std::string_view name, int parent);
  void close(int id);
  // Records a finished span.
  int add(std::string_view name, int parent, std::int64_t start_ns,
          std::int64_t dur_ns, long count = 1);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one CSV line per span (id,parent,name,start_ns,dur_ns,count),
  // start times relative to the first span. Returns false on an I/O error.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
