#include "perfbench/src/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <tuple>

namespace perfbench {

namespace {

// FNV-1a over the raw bytes of each value.
class Fnv {
 public:
  template <class T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Equal up to accumulated rounding in the simulator's clock arithmetic.
bool nearly_equal(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

std::uint64_t schedule_digest(std::vector<tetris::sim::TaskRecord> tasks) {
  std::sort(tasks.begin(), tasks.end(), [](const auto& a, const auto& b) {
    return std::tie(a.job, a.stage, a.index) <
           std::tie(b.job, b.stage, b.index);
  });
  Fnv h;
  for (const auto& t : tasks) {
    h.add(t.job);
    h.add(t.stage);
    h.add(t.index);
    h.add(t.host);
    h.add(t.start);
    h.add(t.finish);
  }
  return h.value();
}

std::uint64_t jobs_digest(const std::vector<tetris::sim::JobRecord>& jobs,
                          double makespan) {
  Fnv h;
  for (const auto& j : jobs) {
    h.add(j.id);
    h.add(j.arrival);
    h.add(j.finish);
  }
  h.add(makespan);
  return h.value();
}

std::vector<std::string> check_schedule(
    const tetris::sim::Workload& workload,
    const std::vector<tetris::sim::TaskRecord>& tasks,
    const std::vector<tetris::sim::JobRecord>& jobs, double makespan,
    int num_machines, std::size_t max_errors) {
  std::vector<std::string> errors;
  auto fail = [&](const std::string& what) {
    if (errors.size() < max_errors) errors.push_back(what);
  };
  const auto& specs = workload.jobs;
  const long num_jobs = static_cast<long>(specs.size());

  // Offsets of each (job, stage) in one flat per-stage table.
  std::vector<std::size_t> stage_base(specs.size() + 1, 0);
  for (std::size_t j = 0; j < specs.size(); ++j)
    stage_base[j + 1] = stage_base[j] + specs[j].stages.size();
  const std::size_t num_stages = stage_base.back();
  std::vector<std::size_t> task_base(num_stages + 1, 0);
  for (std::size_t j = 0; j < specs.size(); ++j) {
    for (std::size_t s = 0; s < specs[j].stages.size(); ++s) {
      const std::size_t k = stage_base[j] + s;
      task_base[k + 1] = task_base[k] + specs[j].stages[s].tasks.size();
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<char> seen(task_base.back(), 0);
  std::vector<double> stage_first_start(num_stages, inf);
  std::vector<double> stage_last_finish(num_stages, -inf);
  std::vector<double> job_last_finish(specs.size(), -inf);

  for (const auto& t : tasks) {
    auto where = [&t] {
      std::ostringstream out;
      out << "task (" << t.job << "," << t.stage << "," << t.index << ")";
      return out;
    };
    if (t.job < 0 || t.job >= num_jobs || t.stage < 0 ||
        t.stage >= static_cast<int>(specs[t.job].stages.size()) ||
        t.index < 0 ||
        t.index >= static_cast<int>(
                       specs[t.job].stages[t.stage].tasks.size())) {
      fail(where().str() + " is not in the workload");
      continue;
    }
    const std::size_t k = stage_base[t.job] + t.stage;
    const std::size_t slot = task_base[k] + t.index;
    if (seen[slot]++) fail(where().str() + " recorded twice");
    if (t.host < 0 || t.host >= num_machines)
      fail(where().str() + " ran on machine " + std::to_string(t.host));
    if (t.start < specs[t.job].arrival)
      fail(where().str() + " started before its job arrived");
    if (t.finish - t.start < t.natural_duration * (1 - 1e-9) - 1e-9)
      fail(where().str() + " ran faster than its natural duration");
    stage_first_start[k] = std::min(stage_first_start[k], t.start);
    stage_last_finish[k] = std::max(stage_last_finish[k], t.finish);
    job_last_finish[t.job] = std::max(job_last_finish[t.job], t.finish);
  }
  const long missing = std::count(seen.begin(), seen.end(), 0);
  if (missing > 0)
    fail(std::to_string(missing) + " of " + std::to_string(seen.size()) +
         " tasks never finished");

  for (std::size_t j = 0; j < specs.size(); ++j) {
    for (std::size_t s = 0; s < specs[j].stages.size(); ++s) {
      const std::size_t k = stage_base[j] + s;
      for (int dep : specs[j].stages[s].deps) {
        const std::size_t d = stage_base[j] + static_cast<std::size_t>(dep);
        if (stage_first_start[k] < stage_last_finish[d] &&
            !nearly_equal(stage_first_start[k], stage_last_finish[d])) {
          fail("job " + std::to_string(j) + " stage " + std::to_string(s) +
               " started before its dependency stage " +
               std::to_string(dep) + " finished");
        }
      }
    }
  }

  if (static_cast<long>(jobs.size()) != num_jobs) {
    fail(std::to_string(jobs.size()) + " job records for " +
         std::to_string(num_jobs) + " jobs");
    return errors;
  }
  double first_arrival = inf;
  double last_finish = 0;
  for (const auto& rec : jobs) {
    if (rec.id < 0 || rec.id >= num_jobs) {
      fail("job record with id " + std::to_string(rec.id));
      continue;
    }
    first_arrival = std::min(first_arrival, specs[rec.id].arrival);
    if (rec.finish < 0) {
      fail("job " + std::to_string(rec.id) + " did not finish");
      continue;
    }
    last_finish = std::max(last_finish, rec.finish);
    if (!nearly_equal(rec.finish, job_last_finish[rec.id]))
      fail("job " + std::to_string(rec.id) +
           " finish does not match its last task");
  }
  if (num_jobs > 0 && !nearly_equal(makespan, last_finish - first_arrival))
    fail("makespan does not span first arrival to last finish");
  return errors;
}

}  // namespace perfbench
