// The incrementally kept best-locality slot of a stage's locality window
// (DESIGN.md §12.5) against an independent from-scratch scan. A seeded
// property test drives the window the way the simulator's add_runnable /
// remove_runnable and a churn epoch do — appends, swap-with-last
// removals, rewrites by a task from past the window, viability flips —
// with fractions drawn from a small set so ties and fully local rows are
// common, and checks every machine after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "sim/locality_window.h"
#include "util/rng.h"

namespace tetris::sim {
namespace {

constexpr std::size_t kWindow = 24;  // the simulator's kMaxLocalityScan

struct Task {
  std::vector<double> fracs;  // one per machine
  bool viable = true;
};

// The naive per-probe scan: first strict improvement over -1 among
// viable rows, stopping at the first fully local one.
int reference_best(const std::vector<Task>& window, std::size_t m) {
  int best = -1;
  double best_frac = -1;
  for (std::size_t c = 0; c < window.size(); ++c) {
    if (!window[c].viable) continue;
    if (window[c].fracs[m] > best_frac) {
      best_frac = window[c].fracs[m];
      best = static_cast<int>(c);
    }
    if (best_frac >= 1.0) break;
  }
  return best;
}

Task random_task(Rng& rng, std::size_t machines) {
  static const double kFracs[] = {0.0, 0.0, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 1.0};
  Task t;
  t.fracs.resize(machines);
  for (double& f : t.fracs)
    f = kFracs[rng.uniform_int(0, std::ssize(kFracs) - 1)];
  t.viable = rng.uniform_int(0, 9) != 0;
  return t;
}

void expect_matches(LocalityWindow& w, const std::vector<Task>& runnable,
                    std::size_t machines, std::size_t step_parity,
                    const std::string& where) {
  const std::size_t rows = std::min(runnable.size(), kWindow);
  ASSERT_EQ(w.rows(), rows) << where;
  const std::vector<Task> window(runnable.begin(),
                                 runnable.begin() + static_cast<long>(rows));
  for (std::size_t m = 0; m < machines; ++m) {
    const int want = reference_best(window, m);
    ASSERT_EQ(w.scan(m), want) << where << " machine " << m;
    // Reading a machine settles its kept row; skip some, so later steps
    // also update rows left unknown for a while.
    if (m % 3 == step_parity) continue;
    double frac = 0;
    ASSERT_EQ(w.best_row(m, &frac), want) << where << " machine " << m;
    const double want_frac =
        want < 0 ? -1.0 : window[static_cast<std::size_t>(want)].fracs[m];
    ASSERT_EQ(frac, want_frac) << where << " machine " << m;
  }
}

TEST(LocalityWindow, KeptBestEqualsFromScratchScan) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto machines = static_cast<std::size_t>(rng.uniform_int(1, 12));
    LocalityWindow w;
    w.init(machines);
    std::vector<Task> runnable;
    for (int step = 0; step < 400; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const auto op = rng.uniform_int(0, 9);
      if (op < 4 || runnable.empty()) {
        // add_runnable: the task lands at the end of the runnable set.
        runnable.push_back(random_task(rng, machines));
        const std::size_t pos = runnable.size() - 1;
        if (pos < kWindow)
          w.set_row(pos, runnable[pos].fracs.data(), runnable[pos].viable);
      } else if (op < 9) {
        // remove_runnable: swap-with-last.
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(runnable.size()) - 1));
        const std::size_t last = runnable.size() - 1;
        runnable[pos] = runnable[last];
        runnable.pop_back();
        if (pos < w.rows()) {
          if (last < w.rows())
            w.remove_row(pos);
          else
            w.set_row(pos, runnable[pos].fracs.data(), runnable[pos].viable);
        }
      } else {
        // A churn epoch: any task's inputs may go offline or come back.
        for (Task& t : runnable) t.viable = rng.uniform_int(0, 2) != 0;
        for (std::size_t c = 0; c < w.rows(); ++c)
          w.viable[c] = runnable[c].viable ? 1 : 0;
        w.rebuild();
      }
      expect_matches(w, runnable, machines,
                     static_cast<std::size_t>(step) % 4, where);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LocalityWindow, RewrittenBestRowKeepsFirstPlaceUnlessItFalls) {
  LocalityWindow w;
  w.init(1);
  const double a = 0.5, b = 0.5, c = 1.0, lower = 0.25;
  double frac = 0;
  w.set_row(0, &a, true);
  w.set_row(1, &b, true);
  ASSERT_EQ(w.best_row(0, &frac), 0);  // the first of two equal rows
  w.set_row(0, &c, true);
  EXPECT_EQ(w.best_row(0, &frac), 0);
  EXPECT_EQ(frac, 1.0);
  w.set_row(0, &lower, true);  // fell below row 1: rescanned
  EXPECT_EQ(w.best_row(0, &frac), 1);
  w.set_row(1, &lower, false);  // the best turns non-viable
  EXPECT_EQ(w.best_row(0, &frac), 0);
  EXPECT_EQ(frac, 0.25);
  w.remove_row(0);  // row 1 (non-viable) moves down: nothing is viable
  EXPECT_EQ(w.best_row(0, &frac), -1);
  EXPECT_EQ(frac, -1.0);
}

}  // namespace
}  // namespace tetris::sim
