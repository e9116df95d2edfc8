// Lightweight hot-path instrumentation for the scheduling pass (paper
// §5.5, Table 8): plain counters bumped by the scheduler and by the
// simulator's context caches, aggregated into SimResult so benches can
// report *why* a pass was fast (cache hits, index skips) next to how fast
// it was. Counting is observation only — no counter may influence a
// scheduling decision, or the naive/optimized equivalence oracle breaks.
#pragma once

namespace tetris::util {

struct PerfCounters {
  // Scheduler-side (per candidate <group, machine> cell):
  long score_evals = 0;      // alignment scores computed (kernel runs)
  // Stale cells whose |a| was replayed from this pass's earlier score of
  // the same probe on the same column (DESIGN.md §8.2); score_evals +
  // score_replays is the number of eps-normalizer contributions.
  long score_replays = 0;
  long probes_issued = 0;    // ctx.probe() calls made by the scheduler
  long probe_reuses = 0;     // stale cells rescored from a kept probe
  long sticky_rejects = 0;   // stale cells skipped: rejection is monotone
  long fit_index_skips = 0;  // cells skipped by the free-capacity index
  long row_skips = 0;        // cells skipped: whole row fresh-and-rejected

  // SIMD scoring kernel (DESIGN.md §12): how the batched cells split
  // into full vector blocks and scalar-lane evaluations, which depends on
  // the build's lane width.
  long simd_blocks = 0;        // full-width vector blocks evaluated
  long scalar_tail_evals = 0;  // batch lanes evaluated on the scalar tail

  // Simulator-side (SchedulerContext caches):
  long probe_cache_hits = 0;       // probes answered from the cross-pass memo
  long probe_cache_misses = 0;     // probes computed and memoized
  // Memo hits whose caller already held the slot's stamp: nothing copied.
  long probe_copy_skips = 0;
  long estimate_cache_hits = 0;    // group-estimate memo hits
  long estimate_cache_misses = 0;  // group-estimate recomputes
  long avail_cache_hits = 0;       // machines whose availability was reused
  long avail_recomputes = 0;       // machines rescanned by the tracker

  // Event-core rate refresh (DESIGN.md §8.6): walks of the dirty
  // machines, the walks that found a share ratio moved since the last
  // one, the task speeds actually recomputed (all others kept their
  // prediction), and the walks whose finish events tied in time and were
  // pushed in the order-exact fallback.
  long rate_refreshes = 0;
  long share_change_refreshes = 0;
  long speed_recomputes = 0;
  long tie_fallback_refreshes = 0;

  // Streaming-ingestion bookkeeping (DESIGN.md §11); all zero in batch
  // mode. Peaks merge with max under +=, so aggregated counters report
  // the worst resident footprint any run reached.
  long jobs_admitted = 0;        // jobs ingested from the JobSource
  long jobs_retired = 0;         // completed jobs folded into records
  long peak_resident_jobs = 0;   // high-water mark of admitted - retired
  long peak_resident_tasks = 0;  // high-water mark of resident task count
  // Due arrivals held back because admission would cross a resident
  // ceiling. Streaming runs are bit-identical to batch only while this
  // stays 0 — a deferral shifts the job's effective arrival.
  long stream_deferrals = 0;

  // Federated driver bookkeeping (DESIGN.md §14.5); all zero outside
  // simulate_federated. cell_advance_nanos is wall clock inside the
  // per-event advance fan-out (serial loop or pool barrier), so it is the
  // one counter that varies between repeated runs; idle_cell_skips —
  // live cells whose advance was skipped because they were quiescent up
  // to the event time with an empty admission queue — is deterministic
  // for a fixed configuration and identical at every cell_threads count.
  long cell_advance_nanos = 0;  // wall clock advancing cells per event
  long idle_cell_skips = 0;     // quiescent cells skipped by the driver

  PerfCounters& operator+=(const PerfCounters& o) {
    score_evals += o.score_evals;
    score_replays += o.score_replays;
    probes_issued += o.probes_issued;
    probe_reuses += o.probe_reuses;
    sticky_rejects += o.sticky_rejects;
    fit_index_skips += o.fit_index_skips;
    row_skips += o.row_skips;
    simd_blocks += o.simd_blocks;
    scalar_tail_evals += o.scalar_tail_evals;
    probe_cache_hits += o.probe_cache_hits;
    probe_cache_misses += o.probe_cache_misses;
    probe_copy_skips += o.probe_copy_skips;
    estimate_cache_hits += o.estimate_cache_hits;
    estimate_cache_misses += o.estimate_cache_misses;
    avail_cache_hits += o.avail_cache_hits;
    avail_recomputes += o.avail_recomputes;
    rate_refreshes += o.rate_refreshes;
    share_change_refreshes += o.share_change_refreshes;
    speed_recomputes += o.speed_recomputes;
    tie_fallback_refreshes += o.tie_fallback_refreshes;
    jobs_admitted += o.jobs_admitted;
    jobs_retired += o.jobs_retired;
    peak_resident_jobs = peak_resident_jobs > o.peak_resident_jobs
                             ? peak_resident_jobs
                             : o.peak_resident_jobs;
    peak_resident_tasks = peak_resident_tasks > o.peak_resident_tasks
                              ? peak_resident_tasks
                              : o.peak_resident_tasks;
    stream_deferrals += o.stream_deferrals;
    cell_advance_nanos += o.cell_advance_nanos;
    idle_cell_skips += o.idle_cell_skips;
    return *this;
  }
};

}  // namespace tetris::util
