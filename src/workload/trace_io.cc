#include "workload/trace_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tetris::workload {

namespace {

constexpr std::string_view kHeaderPrefix = "# tetris trace v1:";

// Names are single whitespace-free tokens ("-" for empty), so a record's
// field count is fixed and the reader can reject trailing tokens.
const std::string& checked_name(const std::string& name, const char* what) {
  static const std::string kEmpty = "-";
  if (name.empty()) return kEmpty;
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  if (name == "-" || std::any_of(name.begin(), name.end(), space))
    throw std::invalid_argument(std::string("cannot write ") + what +
                                " name '" + name + "' to a text trace");
  return name;
}

long total_stages(const sim::Workload& workload) {
  long n = 0;
  for (const auto& job : workload.jobs)
    n += static_cast<long>(job.stages.size());
  return n;
}

}  // namespace

void write_trace(std::ostream& os, const sim::Workload& workload) {
  // Shortest round-trippable representation: replaying a written trace
  // must reproduce bit-identical simulations.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kHeaderPrefix << " " << workload.jobs.size() << " jobs, "
     << total_stages(workload) << " stages, " << workload.total_tasks()
     << " tasks\n";
  for (const auto& job : workload.jobs) {
    os << "job " << job.arrival << " " << job.template_id << " "
       << job.queue << " " << checked_name(job.name, "job") << "\n";
    for (const auto& stage : job.stages) {
      os << "stage " << checked_name(stage.name, "stage");
      for (int d : stage.deps) os << " " << d;
      os << "\n";
      for (const auto& task : stage.tasks) {
        os << "task " << task.cpu_cycles << " " << task.peak_cores << " "
           << task.peak_mem << " " << task.output_bytes << " "
           << task.max_io_bw << " " << task.inputs.size() << "\n";
        for (const auto& split : task.inputs) {
          os << "split " << split.bytes << " " << split.from_stage;
          for (auto r : split.replicas) os << " " << r;
          os << "\n";
        }
      }
    }
  }
}

std::string trace_to_string(const sim::Workload& workload) {
  std::ostringstream os;
  write_trace(os, workload);
  return os.str();
}

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line) + ": " + what);
}

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  const auto space = [&](std::size_t k) {
    return std::isspace(static_cast<unsigned char>(line[k])) != 0;
  };
  while (i < line.size()) {
    while (i < line.size() && space(i)) ++i;
    const std::size_t begin = i;
    while (i < line.size() && !space(i)) ++i;
    if (i > begin) out.push_back(line.substr(begin, i - begin));
  }
  return out;
}

// Strict field parser: the whole token must be one in-range number, and
// a finite one for doubles (unlike operator>>, std::from_chars reads no
// "+", no leading space and no partial token).
template <typename T>
T parse(std::string_view tok, int line, const char* field) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok)
    fail(line, std::string("bad ") + field + " '" + std::string(tok) + "'");
  return v;
}

void expect_fields(const std::vector<std::string_view>& tok, std::size_t n,
                   int line, const char* kind) {
  if (tok.size() < n) fail(line, std::string("malformed ") + kind + " line");
  if (tok.size() > n)
    fail(line, std::string("trailing tokens on ") + kind + " line");
}

}  // namespace

sim::Workload read_trace(std::istream& is) {
  sim::Workload workload;
  sim::JobSpec* job = nullptr;
  sim::StageSpec* stage = nullptr;
  sim::TaskSpec* task = nullptr;
  std::size_t pending_splits = 0;
  // Counts declared by the writer's header, when present (the stage count
  // only in headers that carry it).
  long header_jobs = -1;
  long header_stages = -1;
  long header_tasks = -1;

  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // The writer ends every line with a newline: a last line without one
    // is a cut in the middle of a record.
    if (is.eof()) fail(lineno, "trace truncated: last line has no newline");
    if (line.rfind(kHeaderPrefix, 0) == 0) {
      const auto tok =
          tokenize(std::string_view(line).substr(kHeaderPrefix.size()));
      // "N jobs, M tasks", or "N jobs, S stages, M tasks".
      const bool with_stages = tok.size() == 6;
      if ((tok.size() != 4 && !with_stages) || tok[1] != "jobs," ||
          (with_stages && tok[3] != "stages,") || tok.back() != "tasks")
        fail(lineno, "malformed trace header");
      header_jobs = parse<long>(tok[0], lineno, "header job count");
      if (with_stages)
        header_stages = parse<long>(tok[2], lineno, "header stage count");
      header_tasks =
          parse<long>(tok[tok.size() - 2], lineno, "header task count");
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const auto tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string_view kind = tok[0];

    if (kind == "job") {
      if (pending_splits > 0) fail(lineno, "job before all splits were read");
      expect_fields(tok, 5, lineno, "job");
      sim::JobSpec j;
      j.arrival = parse<double>(tok[1], lineno, "arrival");
      j.template_id = parse<int>(tok[2], lineno, "template id");
      j.queue = parse<int>(tok[3], lineno, "queue");
      if (tok[4] != "-") j.name = std::string(tok[4]);
      workload.jobs.push_back(std::move(j));
      job = &workload.jobs.back();
      stage = nullptr;
      task = nullptr;
    } else if (kind == "stage") {
      if (job == nullptr) fail(lineno, "stage before any job");
      if (pending_splits > 0)
        fail(lineno, "stage before all splits were read");
      if (tok.size() < 2) fail(lineno, "malformed stage line");
      sim::StageSpec s;
      if (tok[1] != "-") s.name = std::string(tok[1]);
      for (std::size_t i = 2; i < tok.size(); ++i)
        s.deps.push_back(parse<int>(tok[i], lineno, "stage dependency"));
      job->stages.push_back(std::move(s));
      stage = &job->stages.back();
      task = nullptr;
    } else if (kind == "task") {
      if (stage == nullptr) fail(lineno, "task before any stage");
      if (pending_splits > 0) fail(lineno, "task before all splits were read");
      expect_fields(tok, 7, lineno, "task");
      sim::TaskSpec t;
      t.cpu_cycles = parse<double>(tok[1], lineno, "cpu cycles");
      t.peak_cores = parse<double>(tok[2], lineno, "cores");
      t.peak_mem = parse<double>(tok[3], lineno, "memory");
      t.output_bytes = parse<double>(tok[4], lineno, "output bytes");
      t.max_io_bw = parse<double>(tok[5], lineno, "io bandwidth");
      pending_splits = parse<std::size_t>(tok[6], lineno, "split count");
      stage->tasks.push_back(std::move(t));
      task = &stage->tasks.back();
    } else if (kind == "split") {
      if (task == nullptr || pending_splits == 0)
        fail(lineno, "unexpected split line");
      if (tok.size() < 3) fail(lineno, "malformed split line");
      sim::InputSplit split;
      split.bytes = parse<double>(tok[1], lineno, "split bytes");
      split.from_stage = parse<int>(tok[2], lineno, "source stage");
      for (std::size_t i = 3; i < tok.size(); ++i)
        split.replicas.push_back(
            parse<sim::MachineId>(tok[i], lineno, "replica"));
      task->inputs.push_back(std::move(split));
      --pending_splits;
    } else {
      fail(lineno, "unknown record '" + std::string(kind) + "'");
    }
  }
  if (pending_splits > 0)
    fail(lineno, "trace truncated: splits missing for last task");
  if (workload.jobs.empty()) fail(lineno, "empty trace: no jobs");
  const long stages = total_stages(workload);
  if (header_jobs >= 0 &&
      (header_jobs != static_cast<long>(workload.jobs.size()) ||
       (header_stages >= 0 && header_stages != stages) ||
       header_tasks != static_cast<long>(workload.total_tasks()))) {
    const std::string declared_stages =
        header_stages >= 0 ? std::to_string(header_stages) + " stages, " : "";
    fail(lineno, "trace truncated or corrupt: header declares " +
                     std::to_string(header_jobs) + " jobs, " +
                     declared_stages + std::to_string(header_tasks) +
                     " tasks; read " + std::to_string(workload.jobs.size()) +
                     " jobs, " + std::to_string(stages) + " stages, " +
                     std::to_string(workload.total_tasks()) + " tasks");
  }
  if (auto msg = sim::validate(workload); !msg.empty())
    throw std::runtime_error("trace semantic error: " + msg);
  return workload;
}

sim::Workload trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

bool write_trace_file(const std::string& path,
                      const sim::Workload& workload) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_trace(out, workload);
  return static_cast<bool>(out);
}

sim::Workload read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

}  // namespace tetris::workload
