#include "sim/placement.h"

#include <algorithm>
#include <stdexcept>

namespace tetris::sim {

namespace {

// SplitMix64: cheap, well-distributed hash for deterministic replica picks.
unsigned long long mix(unsigned long long x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

namespace {

bool is_up(const std::vector<char>* machine_up, MachineId m) {
  return machine_up == nullptr ||
         m >= static_cast<MachineId>(machine_up->size()) ||
         (*machine_up)[static_cast<std::size_t>(m)];
}

}  // namespace

namespace {

// Shared body of resolve_splits: appends into `out` so the hot caller
// (compute_placement on a probe miss) can reuse one buffer per thread
// instead of allocating a fresh vector per call.
void resolve_splits_into(const std::vector<InputSplit>& splits, MachineId host,
                         unsigned long long salt,
                         const std::vector<char>* machine_up,
                         std::vector<ResolvedSplit>& out,
                         std::vector<MachineId>& live) {
  out.clear();
  out.reserve(splits.size());
  unsigned long long h = mix(salt ^ (static_cast<unsigned long long>(host) +
                                     0x517cc1b727220a95ull));
  for (const auto& split : splits) {
    if (split.from_stage >= 0) {
      throw std::logic_error(
          "resolve_splits: shuffle split not materialized; the simulator "
          "must rewrite from_stage splits before tasks become runnable");
    }
    ResolvedSplit r;
    r.bytes = split.bytes;
    if (split.replicas.empty()) {
      r.source = kGeneratedSource;
    } else if (std::find(split.replicas.begin(), split.replicas.end(),
                         host) != split.replicas.end() &&
               is_up(machine_up, host)) {
      r.source = host;
    } else {
      live.clear();
      for (MachineId m : split.replicas) {
        if (is_up(machine_up, m)) live.push_back(m);
      }
      if (live.empty()) {
        throw std::logic_error(
            "resolve_splits: every replica of a split is down; callers "
            "must gate on inputs_available()");
      }
      h = mix(h);
      r.source = live[h % live.size()];
    }
    out.push_back(r);
  }
}

}  // namespace

std::vector<ResolvedSplit> resolve_splits(
    const std::vector<InputSplit>& splits, MachineId host,
    unsigned long long salt, const std::vector<char>* machine_up) {
  std::vector<ResolvedSplit> out;
  std::vector<MachineId> live;
  resolve_splits_into(splits, host, salt, machine_up, out, live);
  return out;
}

bool inputs_available(const TaskSpec& task,
                      const std::vector<char>& machine_up) {
  for (const auto& split : task.inputs) {
    if (split.replicas.empty() || split.bytes <= 0) continue;
    bool any_up = false;
    for (MachineId m : split.replicas) {
      if (is_up(&machine_up, m)) {
        any_up = true;
        break;
      }
    }
    if (!any_up) return false;
  }
  return true;
}

void compute_placement_into(const TaskSpec& task, MachineId host,
                            const std::vector<ResolvedSplit>& splits,
                            PlacementDemand* out) {
  PlacementDemand& pd = *out;
  pd.host = host;
  pd.remote.clear();

  // Aggregate bytes per source machine. One call per probe miss: the
  // aggregation buffer is reused per thread rather than reallocated.
  double local_bytes = 0;
  thread_local std::vector<std::pair<MachineId, double>> remote_bytes;
  remote_bytes.clear();
  for (const auto& split : splits) {
    if (split.source == kGeneratedSource || split.bytes <= 0) continue;
    if (split.source == host) {
      local_bytes += split.bytes;
      continue;
    }
    auto it = std::find_if(remote_bytes.begin(), remote_bytes.end(),
                           [&](const auto& p) { return p.first == split.source; });
    if (it == remote_bytes.end()) {
      remote_bytes.emplace_back(split.source, split.bytes);
    } else {
      it->second += split.bytes;
    }
  }
  double total_remote = 0;
  for (const auto& [m, b] : remote_bytes) total_remote += b;

  // Natural duration: max over the Eq. 5 legs. max_io_bw caps the task's
  // *total* ingest rate (the task's read pipeline merges local and remote
  // streams), and separately its write rate.
  double duration = kMinTaskDuration;
  if (task.peak_cores > 0)
    duration = std::max(duration, task.cpu_cycles / task.peak_cores);
  duration = std::max(duration, task.output_bytes / task.max_io_bw);
  duration =
      std::max(duration, (local_bytes + total_remote) / task.max_io_bw);

  // Demand rates follow: a leg with `bytes` of work over `duration` needs
  // bytes/duration of bandwidth to not become the bottleneck.
  pd.duration = duration;
  pd.local_bytes = local_bytes;
  pd.remote_bytes = total_remote;
  pd.local[Resource::kCpu] = task.peak_cores;
  pd.local[Resource::kMem] = task.peak_mem;
  pd.local[Resource::kDiskRead] = local_bytes / duration;
  pd.local[Resource::kDiskWrite] = task.output_bytes / duration;
  pd.local[Resource::kNetIn] = total_remote / duration;
  pd.local[Resource::kNetOut] = 0;
  pd.remote.reserve(remote_bytes.size());
  for (const auto& [m, b] : remote_bytes) {
    pd.remote.push_back({m, b / duration, b / duration});
  }
}

PlacementDemand compute_placement(const TaskSpec& task, MachineId host,
                                  unsigned long long salt,
                                  const std::vector<char>* machine_up) {
  PlacementDemand pd;
  compute_placement_into(task, host, salt, machine_up, &pd);
  return pd;
}

void compute_placement_into(const TaskSpec& task, MachineId host,
                            unsigned long long salt,
                            const std::vector<char>* machine_up,
                            PlacementDemand* out) {
  thread_local std::vector<ResolvedSplit> resolved;
  thread_local std::vector<MachineId> live;
  resolve_splits_into(task.inputs, host, salt, machine_up, resolved, live);
  compute_placement_into(task, host, resolved, out);
}

PlacementDemand compute_local_placement(const TaskSpec& task) {
  PlacementDemand pd;
  pd.host = -1;
  double bytes = 0;
  for (const auto& split : task.inputs) {
    // Generated inputs (no replicas, not a shuffle) cost no read anywhere.
    if (split.replicas.empty() && split.from_stage < 0) continue;
    bytes += std::max(0.0, split.bytes);
  }

  double duration = kMinTaskDuration;
  if (task.peak_cores > 0)
    duration = std::max(duration, task.cpu_cycles / task.peak_cores);
  duration = std::max(duration, task.output_bytes / task.max_io_bw);
  duration = std::max(duration, bytes / task.max_io_bw);

  pd.duration = duration;
  pd.local_bytes = bytes;
  pd.local[Resource::kCpu] = task.peak_cores;
  pd.local[Resource::kMem] = task.peak_mem;
  pd.local[Resource::kDiskRead] = bytes / duration;
  pd.local[Resource::kDiskWrite] = task.output_bytes / duration;
  return pd;
}

double local_fraction(const TaskSpec& task, MachineId host) {
  double total = 0;
  double local = 0;
  for (const auto& split : task.inputs) {
    if (split.bytes <= 0) continue;
    // Generated inputs count as local: they never cost remote bandwidth.
    const bool is_local =
        split.replicas.empty() ||
        std::find(split.replicas.begin(), split.replicas.end(), host) !=
            split.replicas.end();
    total += split.bytes;
    if (is_local) local += split.bytes;
  }
  return total > 0 ? local / total : 1.0;
}

}  // namespace tetris::sim
