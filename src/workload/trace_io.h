// Plain-text (de)serialization of workloads, so generated traces can be
// saved, inspected, diffed and replayed — the "trace-driven" part of the
// evaluation harness.
//
// Format (one record per line, '#' comments ignored):
//   job <arrival> <template_id> <queue> <name>
//   stage <name> [dep ...]
//   task <cpu_cycles> <cores> <mem> <out_bytes> <io_bw> <nsplits>
//   split <bytes> <from_stage> [replica ...]
// Stages belong to the most recent job, tasks to the most recent stage,
// splits to the most recent task; `nsplits` split lines follow each task.
// Names are single tokens, "-" standing for an empty name. The writer
// starts with a `# tetris trace v1: N jobs, S stages, M tasks` header
// comment and ends every line with a newline; the reader also accepts the
// older `N jobs, M tasks` header, which cannot catch a lost stage line.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/spec.h"

namespace tetris::workload {

// Throws std::invalid_argument for a job or stage name the reader could
// not read back (one containing whitespace, or "-").
void write_trace(std::ostream& os, const sim::Workload& workload);
std::string trace_to_string(const sim::Workload& workload);

// Throws std::runtime_error with a line number on malformed input: a
// missing, extra or unparsable field, a non-finite number, an empty trace,
// a last line without its newline, or job/stage/task counts that disagree
// with the header when one is present (a trace cut at a line boundary, or
// a lost record line).
sim::Workload read_trace(std::istream& is);
sim::Workload trace_from_string(const std::string& text);

bool write_trace_file(const std::string& path, const sim::Workload& workload);
sim::Workload read_trace_file(const std::string& path);

}  // namespace tetris::workload
