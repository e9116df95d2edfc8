#include "perfbench/src/yardstick.h"

#include <array>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "perfbench/src/wrappers.h"

namespace perfbench {

namespace {

constexpr int kSteps = 200;        // timed steps per loop
constexpr int kTasksPerStep = 48;  // placements per step
constexpr int kMachines = 64;
constexpr int kDims = 4;
// Enough jobs that the hash map, like the simulator's state, outgrows L2.
constexpr std::uint32_t kJobs = 1 << 16;

using Vec = std::array<double, kDims>;

struct Departure {
  double time;
  int machine;
  Vec demand;
  bool operator>(const Departure& o) const { return time > o.time; }
};

struct Record {
  std::uint32_t job;
  int machine;
  double start;
};

// Tasks with 4-d demands arrive one by one; each goes to the machine with
// the largest dot product of free resources and demand among those it
// fits, like a Tetris alignment score, and leaves at a drawn time. The
// scan, the heap, the hash map and the growing record list are the kinds
// of work the simulator does per pass and per event.
class PackingLoop {
 public:
  void step() {
    for (int t = 0; t < kTasksPerStep; ++t) {
      Vec demand;
      for (auto& d : demand) d = 0.02 + 0.2 * uniform();
      const auto job = static_cast<std::uint32_t>(next() % kJobs);
      ++per_job_[job];
      now_ += 0.05 * uniform();
      release(now_);
      int best = -1;
      while ((best = best_fit(demand)) < 0) release(departures_.top().time);
      for (int d = 0; d < kDims; ++d) free_[best][d] -= demand[d];
      departures_.push({now_ + 1.0 + 4.0 * uniform(), best, demand});
      records_.push_back({job, best, now_});
    }
  }

 private:
  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  void release(double until) {
    while (!departures_.empty() && departures_.top().time <= until) {
      const Departure& d = departures_.top();
      for (int k = 0; k < kDims; ++k) free_[d.machine][k] += d.demand[k];
      departures_.pop();
    }
  }

  int best_fit(const Vec& demand) const {
    int best = -1;
    double best_score = -1;
    for (int m = 0; m < kMachines; ++m) {
      bool fits = true;
      double score = 0;
      for (int d = 0; d < kDims; ++d) {
        fits = fits && demand[d] <= free_[m][d];
        score += demand[d] * free_[m][d];
      }
      if (fits && score > best_score) {
        best = m;
        best_score = score;
      }
    }
    return best;
  }

  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  double now_ = 0;
  std::array<Vec, kMachines> free_ = [] {
    std::array<Vec, kMachines> f;
    for (auto& m : f) m.fill(1.0);
    return f;
  }();
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures_;
  std::unordered_map<std::uint32_t, int> per_job_;
  std::vector<Record> records_;
};

}  // namespace

double Yardstick::measure() {
  PackingLoop loop;
  steps_.start();
  std::int64_t total = 0;
  for (int s = 0; s < kSteps; ++s) {
    const std::int64_t t0 = now_ns();
    loop.step();
    const std::int64_t dt = now_ns() - t0;
    steps_.add(dt);
    total += dt;
  }
  steps_.finish();
  return static_cast<double>(total) * 1e-9;
}

double Yardstick::best_seconds() const {
  return static_cast<double>(steps_.sum()) * 1e-9;
}

double Yardstick::scale() const {
  const double best = best_seconds();
  return best > 0 ? kNominalSeconds / best : 0;
}

}  // namespace perfbench
