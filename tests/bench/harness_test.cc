// Command-line parsing of the bench binaries' "[jobs] [machines] [seed]"
// arguments (bench::Scale::from_args): well-formed arguments override the
// defaults, leftover flags are skipped, and anything malformed exits with
// status 2 and a usage message instead of running a degenerate cluster.
#include "bench/harness.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace tetris::bench {
namespace {

Scale parse(std::initializer_list<const char*> args) {
  std::vector<std::string> storage{"bench_test"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Scale::from_args(static_cast<int>(argv.size()), argv.data(),
                          Scale{12, 3, 5});
}

TEST(ScaleFromArgs, PositionalArgumentsOverrideDefaults) {
  const Scale s = parse({"40", "10", "7"});
  EXPECT_EQ(s.jobs, 40);
  EXPECT_EQ(s.machines, 10);
  EXPECT_EQ(s.seed, 7u);

  const Scale partial = parse({"40"});
  EXPECT_EQ(partial.jobs, 40);
  EXPECT_EQ(partial.machines, 3);
  EXPECT_EQ(partial.seed, 5u);
}

TEST(ScaleFromArgs, FlagsAreSkippedAndSeedZeroIsValid) {
  const Scale s = parse({"--benchmark_filter=^$", "40", "--cells=2", "16",
                         "0"});
  EXPECT_EQ(s.jobs, 40);
  EXPECT_EQ(s.machines, 16);
  EXPECT_EQ(s.seed, 0u);
}

TEST(ScaleFromArgsDeathTest, RejectsNonNumericArguments) {
  EXPECT_EXIT(parse({"abc"}), ::testing::ExitedWithCode(2),
              "usage: .*jobs must be a positive integer, got 'abc'");
  EXPECT_EXIT(parse({"40", "12x"}), ::testing::ExitedWithCode(2),
              "machines must be a positive integer, got '12x'");
  EXPECT_EXIT(parse({"40", "10", "seven"}), ::testing::ExitedWithCode(2),
              "seed must be a non-negative integer, got 'seven'");
  EXPECT_EXIT(parse({""}), ::testing::ExitedWithCode(2), "usage: ");
}

TEST(ScaleFromArgsDeathTest, RejectsNonPositiveCounts) {
  EXPECT_EXIT(parse({"0"}), ::testing::ExitedWithCode(2),
              "jobs must be a positive integer, got '0'");
  EXPECT_EXIT(parse({"40", "-5"}), ::testing::ExitedWithCode(2),
              "machines must be a positive integer, got '-5'");
  EXPECT_EXIT(parse({"40", "10", "-1"}), ::testing::ExitedWithCode(2),
              "seed must be a non-negative integer, got '-1'");
  EXPECT_EXIT(parse({"99999999999"}), ::testing::ExitedWithCode(2),
              "jobs must be a positive integer");
}

}  // namespace
}  // namespace tetris::bench
