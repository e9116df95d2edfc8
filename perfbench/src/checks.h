// Correctness gate: every run's schedule is checked against its input
// before any of its figures count, and reduced to a digest that must
// repeat exactly across runs of the same seed (traced or not, parent or
// change, for a pure speed-up).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/result.h"
#include "sim/spec.h"

namespace perfbench {

// Digest of a batch schedule: (job, stage, index, host, start, finish) of
// every task, in (job, stage, index) order, times compared bit for bit.
std::uint64_t schedule_digest(std::vector<tetris::sim::TaskRecord> tasks);

// Digest of a run that keeps no task records: (job, arrival, finish) of
// every job record in id order, then the makespan.
std::uint64_t jobs_digest(const std::vector<tetris::sim::JobRecord>& jobs,
                          double makespan);

// Checks a batch schedule against the workload it ran (job ids are
// positions in `workload`): every task ran exactly once, on a real
// machine, no earlier than its job's arrival, no faster than its natural
// duration and only after every stage it depends on had finished; every
// job record finishes with its last task; `makespan` spans the first
// arrival to the last finish. Returns one line per problem, at most
// `max_errors` of them.
std::vector<std::string> check_schedule(
    const tetris::sim::Workload& workload,
    const std::vector<tetris::sim::TaskRecord>& tasks,
    const std::vector<tetris::sim::JobRecord>& jobs, double makespan,
    int num_machines, std::size_t max_errors = 8);

}  // namespace perfbench
