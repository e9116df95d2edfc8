// A fixed reference computation that gauges how fast the host runs at the
// moment, so that host times can be reported in nominal seconds.
//
// The host the benchmark runs on is a share of a machine that others use
// too, and its speed changes in phases that last minutes: a fixed loop
// runs 30-50% slower in one phase than in the next (perfbench/README.md,
// "Steadiness"). No statistic of one run can remove such a phase, so each
// run also times this yardstick, interleaved with its simulations and
// reduced the same way (every step at its fastest of N), and scales its
// times by nominal / measured yardstick time. The yardstick is a small
// packing loop written here, independent of src/: a change to the
// simulator cannot change it, so the scaled figures still move one for one
// with the simulator's own speed.
#pragma once

#include "perfbench/src/best_times.h"

namespace perfbench {

class Yardstick {
 public:
  // The yardstick's best-of-N time on a nominal host: this defines the
  // nominal second. It is the time measured on the 4-vCPU VM the benchmark
  // was tuned on, in a calm phase, rounded.
  static constexpr double kNominalSeconds = 0.004;

  // Runs the reference loop once from its fixed start, timing each step.
  // Returns the loop's time in seconds.
  double measure();

  // Seconds of one loop with every step at its fastest over the calls of
  // measure() so far; 0 before the first.
  double best_seconds() const;

  // Host seconds -> nominal seconds: kNominalSeconds / best_seconds().
  double scale() const;

 private:
  MinSeries steps_;
};

}  // namespace perfbench
