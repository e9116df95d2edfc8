// The streaming admission gate (DESIGN.md §11.2): it asks its JobSource
// for the next job's metadata once per job, not once per processed event,
// and a source that answered "nothing yet" is asked again, so a push-queue
// source that refills between steps (a federation cell's) still admits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "workload/profiles.h"
#include "workload/stream_gen.h"

namespace tetris {
namespace {

// Forwards to another source, counting peeks and consumed jobs.
class CountingJobSource final : public sim::JobSource {
 public:
  explicit CountingJobSource(sim::JobSource& inner) : inner_(inner) {}

  long total_jobs() const override { return inner_.total_jobs(); }
  bool peek(sim::JobPeek& out) override {
    peeks++;
    return inner_.peek(out);
  }
  bool next(sim::JobSpec& out) override {
    const bool got = inner_.next(out);
    taken += got ? 1 : 0;
    return got;
  }

  long peeks = 0;
  long taken = 0;

 private:
  sim::JobSource& inner_;
};

// FNV-1a over placements, finish times and the makespan, doubles by bit
// pattern (the event-core golden digest in one value).
std::string digest(const sim::SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](const auto& v) {
    unsigned char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& t : r.tasks) {
    add(t.job);
    add(t.stage);
    add(t.index);
    add(t.host);
    add(t.start);
    add(t.attempts);
    add(t.finish);
  }
  for (const auto& j : r.jobs) add(j.finish);
  add(r.makespan);
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

sim::SimConfig cluster(int machines) {
  sim::SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity = workload::facebook_machine();
  return cfg;
}

TEST(Admission, PeeksOncePerJobOnACappedStream) {
  workload::StreamGenConfig gen;
  gen.num_jobs = 200;
  gen.tasks_per_job = 20;
  gen.num_machines = 8;
  gen.arrival_spacing = 1.5;
  gen.seed = 3;
  workload::SyntheticJobSource inner(gen);
  CountingJobSource source(inner);
  sim::SimConfig cfg = cluster(8);
  cfg.collect_task_records = true;
  // A resident ceiling holds due jobs back across many events, each of
  // which re-runs the admission gate against the same head job.
  cfg.stream.max_resident_jobs = 6;
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate_stream(cfg, source, sched);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.perf.stream_deferrals, 0);
  EXPECT_EQ(source.taken, gen.num_jobs);
  EXPECT_LE(source.peeks, gen.num_jobs + 1);
  EXPECT_EQ(digest(r), "0xee2d27623c147a6b");
}

TEST(Admission, EngineAdmitsJobsPushedAfterAnEmptyPeek) {
  // The engine's queue is empty at construction and again once its first
  // job finished: both times its source answers "nothing yet", and both
  // later submissions must still be admitted and run.
  sim::SimConfig cfg = cluster(2);
  cfg.max_time = 2000;  // a lost admission ends the run incomplete
  core::TetrisScheduler sched;
  sim::SimEngine engine(cfg, sched, /*expected_jobs=*/2);
  workload::StreamGenConfig gen;
  gen.num_jobs = 2;
  gen.tasks_per_job = 4;
  gen.num_machines = 2;
  sim::JobSpec first = workload::make_stream_job(gen, 0);
  sim::JobSpec second = workload::make_stream_job(gen, 1);
  first.arrival = 10;
  second.arrival = 600;

  engine.advance_before(first.arrival);
  engine.submit(first);
  engine.advance_through(first.arrival);
  const sim::EngineLoad load = engine.load();
  EXPECT_GT(load.running_tasks + load.runnable_tasks, 0);

  engine.advance_before(second.arrival);
  EXPECT_EQ(engine.load().active_jobs, 0);  // the first job retired
  engine.submit(second);
  const sim::SimResult r = engine.finish();
  EXPECT_TRUE(r.completed);
  ASSERT_EQ(r.jobs.size(), 2u);
  for (const auto& j : r.jobs) EXPECT_GE(j.finish, j.arrival);
}

}  // namespace
}  // namespace tetris
