// Fastest of N identical executions, kept element by element. A
// simulation is deterministic: the k-th pass of every simulation of one
// input does the same work, and so does the stretch of event processing
// between two passes. The host's speed drifts by 15-25% within and
// between simulations, so each element's minimum over the run's
// simulations is a far steadier estimate of the program's own cost than
// any one simulation's time (perfbench/README.md gives the measurements).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

class MinSeries {
 public:
  // Call before each simulation.
  void start() { next_ = 0; }

  // The next element of this simulation's series.
  void add(std::int64_t v) {
    if (first_) {
      values_.push_back(v);
    } else if (next_ < values_.size()) {
      values_[next_] = std::min(values_[next_], v);
    }
    ++next_;
  }

  // Call after each simulation. False when its series had a different
  // length than the first one's: the simulations did not repeat exactly.
  bool finish() {
    const bool same = first_ || next_ == values_.size();
    first_ = false;
    return same;
  }

  const std::vector<std::int64_t>& values() const { return values_; }
  std::int64_t sum() const {
    return std::accumulate(values_.begin(), values_.end(), std::int64_t{0});
  }

 private:
  std::vector<std::int64_t> values_;
  std::size_t next_ = 0;
  bool first_ = true;
};

}  // namespace perfbench
