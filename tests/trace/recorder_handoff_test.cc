// The recorder's single-writer contract under the federated driver's
// threading (DESIGN.md §10.2, §14.5): a cell's recorder is written by
// whichever pool thread steps the cell in a driver interval, and
// util::ThreadPool::run_barrier orders each hand-off. Labeled tsan, so
// ThreadSanitizer checks that the barrier alone orders the unsynchronized
// chunk ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "trace/recorder.h"
#include "util/thread_pool.h"

namespace tetris::trace {
namespace {

TEST(RecorderHandoff, TwoThreadsInTurnDrainInRecordOrder) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.chunk_bytes = 256;  // chunk boundaries fall inside intervals
  cfg.max_chunks = 1024;  // nothing is dropped
  Recorder rec(cfg);
  util::ThreadPool pool(2);

  constexpr int kIntervals = 8;
  constexpr int kPerInterval = 100;
  std::vector<std::thread::id> writers;
  std::int64_t next = 0;
  for (int k = 0; k < kIntervals; ++k) {
    // Both indices block on the latch until the other arrives, so they
    // run on two distinct threads; the writer is the one of the two that
    // did not write the previous interval, which forces a hand-off.
    std::thread::id ran_on[2];
    std::latch both(2);
    const std::thread::id previous =
        writers.empty() ? std::thread::id{} : writers.back();
    util::ThreadPool::run_barrier(&pool, 2, [&](int i) {
      ran_on[i] = std::this_thread::get_id();
      both.arrive_and_wait();
      const int writer = ran_on[0] != previous ? 0 : 1;
      if (i != writer) return;
      for (int r = 0; r < kPerInterval; ++r) {
        Event ev;
        ev.kind = EventKind::kJobArrival;
        ev.a = next++;
        rec.record(ev);
      }
    });
    ASSERT_NE(ran_on[0], ran_on[1]);
    writers.push_back(ran_on[ran_on[0] != previous ? 0 : 1]);
  }
  for (std::size_t k = 1; k < writers.size(); ++k)
    EXPECT_NE(writers[k], writers[k - 1]) << "interval " << k;

  EXPECT_EQ(rec.recorded(), std::uint64_t{kIntervals * kPerInterval});
  const TraceLog log = rec.take_log();
  EXPECT_EQ(log.dropped, 0u);
  ASSERT_EQ(log.events.size(),
            static_cast<std::size_t>(kIntervals * kPerInterval));
  for (std::size_t i = 0; i < log.events.size(); ++i)
    EXPECT_EQ(log.events[i].a, static_cast<std::int64_t>(i)) << i;
}

}  // namespace
}  // namespace tetris::trace
