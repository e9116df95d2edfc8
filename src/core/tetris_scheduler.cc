#include "core/tetris_scheduler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/score_kernel.h"
#include "sched/common.h"
#include "util/soa_planes.h"

namespace tetris::core {

TetrisScheduler::TetrisScheduler(TetrisConfig config)
    : config_(std::move(config)) {
  policy::validate(config_);
}

// The scan's per-pass working lists, kept across passes so steady-state
// passes reuse their capacity instead of allocating (and regrowing) them.
struct TetrisScheduler::PassScratch {
  // One scored cell: |alignment| destined for the eps normalizer. Records
  // append in (row, column) order within a wave; waves of different
  // tiers interleave rows, so a stable sort by row restores the row-major
  // accumulation order of the oracle (NaiveTetrisScheduler).
  struct ScoreRecord {
    std::size_t g;
    double abs_a;
  };
  // One cell whose fused fit + score evaluation is deferred to a batch
  // flush, and one cell to revisit in the post-flush candidate scan;
  // both lists keep the (row, column) scan order. A pending cell's score
  // record is reserved at its scan position (`rec`, into `records`) and
  // filled by the flush, so replayed cells — recorded on the spot —
  // interleave with kernel-scored ones in scan order.
  struct PendingCell {
    std::size_t g;
    int m;
    std::size_t rec;
  };
  struct VisitCell {
    std::size_t g;
    int m;
    double rem;  // the row's SRTF remaining-work term
  };
  struct ScanRow {
    std::size_t g;
    double rem;  // the job's remaining work, for the SRTF term
  };
  // Fairness-cut sort key of one schedulable job.
  struct EligKey {
    double share;
    SimTime arrival;
    sim::JobId id;
    std::uint32_t idx;
  };

  std::vector<std::pair<sim::JobId, std::size_t>> job_slots;
  std::vector<Resources> extra;
  std::vector<int> placed_from;
  std::vector<EligKey> elig_keys;
  std::vector<unsigned char> eligible_job;
  std::vector<double> share_val;
  std::vector<unsigned char> share_fresh;
  std::vector<int> row_rejected;
  util::ResourcePlanes group_demand;
  std::vector<unsigned char> row_fit;
  std::vector<int> tier_by_row;
  std::vector<std::uint32_t> row_job;
  std::vector<ScoreRecord> records;
  std::vector<PendingCell> pending;
  std::vector<VisitCell> visit;
  std::vector<ScanRow> scan_rows;
  std::array<std::vector<std::size_t>, 3> tier_rows;
};

TetrisScheduler::~TetrisScheduler() = default;
TetrisScheduler::TetrisScheduler(TetrisScheduler&&) noexcept = default;
TetrisScheduler& TetrisScheduler::operator=(TetrisScheduler&&) noexcept =
    default;

void TetrisScheduler::schedule(sim::SchedulerContext& ctx) {
  // Keep the report stream drained (a real deployment feeds the demand
  // estimator from it; the simulation's estimation model already reflects
  // that behaviour, see sim/config.h).
  (void)ctx.take_reports();

  // Pass-local instrumentation, folded into the lifetime counters and the
  // context's sink (SimResult::perf) on every exit path. Observation
  // only: nothing below may branch on these.
  util::PerfCounters pc;
  struct CounterFlush {
    sim::SchedulerContext& ctx;
    util::PerfCounters& pass;
    util::PerfCounters& lifetime;
    ~CounterFlush() {
      lifetime += pass;
      if (auto* sink = ctx.perf_counters()) *sink += pass;
    }
  } counter_flush{ctx, pc, perf_};

  service_.prune(ctx.retired_before());

  auto jobs = ctx.active_jobs();
  auto groups = ctx.runnable_groups();
  if (jobs.empty() || groups.empty()) return;

  // Per-pass buffers kept across passes (see PassScratch).
  if (!scratch_) scratch_ = std::make_unique<PassScratch>();
  PassScratch& scratch = *scratch_;

  // Job id -> index into `jobs`: a sorted flat table (active_jobs()
  // usually arrives sorted, so the sort is a check), no per-pass hashing.
  auto& job_slots = scratch.job_slots;
  job_slots.clear();
  for (std::size_t i = 0; i < jobs.size(); ++i)
    job_slots.emplace_back(jobs[i].id, i);
  if (!std::is_sorted(job_slots.begin(), job_slots.end()))
    std::sort(job_slots.begin(), job_slots.end());
  const auto job_index = [&](sim::JobId id) {
    const auto it = std::lower_bound(
        job_slots.begin(), job_slots.end(),
        std::pair<sim::JobId, std::size_t>{id, 0});
    if (it == job_slots.end() || it->first != id)
      throw std::out_of_range("group of a job missing from active_jobs()");
    return it->second;
  };

  const int num_machines = ctx.num_machines();
  const std::size_t num_groups = groups.size();
  const double p_bar = policy::mean_remaining_work(jobs);

  // Extra allocation / placements committed during this pass, so the
  // fairness ordering tracks our own placements.
  std::vector<Resources>& extra = scratch.extra;
  std::vector<int>& placed_from = scratch.placed_from;
  extra.assign(jobs.size(), Resources{});
  placed_from.assign(jobs.size(), 0);

  // The fairness cut of policy::eligible_jobs as a byte mask. The
  // comparator is a total order — share, then arrival, then id — so the
  // set of jobs ahead of the cut is unique no matter how it is computed:
  // an nth_element partition plus a mask fill gives the policy's answer
  // without the per-round JobView copies, the full sort or the hash-set
  // build. At 10K-task backlogs this runs once per placement round.
  using EligKey = PassScratch::EligKey;
  std::vector<EligKey>& elig_keys = scratch.elig_keys;
  std::vector<unsigned char>& eligible_job = scratch.eligible_job;
  eligible_job.assign(jobs.size(), 0);
  std::size_t eligible_count = 0;
  sim::JobView share_scratch;  // job_share reads only current_alloc
  // Per-job share cache: `jobs` is a pass-long snapshot and extra[i]
  // moves only for the job a round places, so every other job's share is
  // the same double at the next refresh — recompute just the stale one.
  std::vector<double>& share_val = scratch.share_val;
  std::vector<unsigned char>& share_fresh = scratch.share_fresh;
  share_val.assign(jobs.size(), 0.0);
  share_fresh.assign(jobs.size(), 0);
  const auto refresh_eligible = [&] {
    std::fill(eligible_job.begin(), eligible_job.end(), 0);
    eligible_count = 0;
    if (config_.fairness_knob > 0 && config_.fairness_over_queues) {
      // Queue granularity aggregates shares across jobs; it is rare and
      // off the hot path, so project the policy's set onto the mask.
      const auto out =
          policy::eligible_jobs(config_, ctx, jobs, extra, placed_from);
      for (const sim::JobId id : out) eligible_job[job_index(id)] = 1;
      eligible_count = out.size();
      return;
    }
    elig_keys.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].runnable_tasks - placed_from[i] <= 0) continue;
      if (config_.fairness_knob <= 0) {
        eligible_job[i] = 1;
        eligible_count++;
        continue;
      }
      // Same arithmetic as policy::eligible_jobs: copy, then +=, so the
      // share key is the identical double.
      if (!share_fresh[i]) {
        share_scratch.current_alloc = jobs[i].current_alloc;
        share_scratch.current_alloc += extra[i];
        share_val[i] =
            sched::job_share(config_.fairness_policy, share_scratch,
                             ctx.cluster_capacity(), config_.slot_mem);
        share_fresh[i] = 1;
      }
      elig_keys.push_back({share_val[i], jobs[i].arrival, jobs[i].id,
                           static_cast<std::uint32_t>(i)});
    }
    if (config_.fairness_knob <= 0) return;
    const auto cut = static_cast<std::size_t>(std::max(
        1.0, std::ceil((1.0 - config_.fairness_knob) *
                       static_cast<double>(elig_keys.size()))));
    const std::size_t take = std::min(cut, elig_keys.size());
    if (take < elig_keys.size()) {
      std::nth_element(elig_keys.begin(),
                       elig_keys.begin() + static_cast<long>(take),
                       elig_keys.end(),
                       [](const EligKey& x, const EligKey& y) {
                         if (x.share != y.share) return x.share < y.share;
                         if (x.arrival != y.arrival)
                           return x.arrival < y.arrival;
                         return x.id < y.id;
                       });
    }
    for (std::size_t k = 0; k < take; ++k)
      eligible_job[elig_keys[k].idx] = 1;
    eligible_count = take;
  };

  const int reserved_machine =
      policy::reserved_machine(config_, ctx, groups, service_);
  refresh_eligible();

  // Globally greedy rounds over all <task-group, machine> pairs: the paper
  // "picks the <task, machine> pair with the highest dot product value".
  // Probes and alignment scores are cached per pair; a placement only
  // invalidates its machine's column (availability changed), the source
  // machines of its remote legs, and its group's row (the best-locality
  // candidate task changed).
  //
  // Four shortcuts exploit that availability only falls within a pass —
  // place() subtracts, and preemption runs only after the rounds
  // (DESIGN.md §8):
  //   * sticky rejection: a cell rejected for fit reasons stays rejected
  //     under lower availability, so a column invalidation need not
  //     re-evaluate it;
  //   * probe reuse: a column invalidation leaves the group's candidate
  //     set untouched, so the kept probe is bit-identical to a re-probe
  //     and only fits + alignment need recomputing;
  //   * free-capacity index: a group whose cpu/mem estimate exceeds the
  //     component-wise max availability over up machines would cheap-
  //     reject everywhere — skip its whole row before any dot product;
  //   * alignment replay: a cell whose probe and column are unchanged
  //     since its last score replays that score.
  // None of them changes which cells contribute to the eps normalizer,
  // or in what order, so every placement matches the oracle bit for
  // bit.
  const util::ResourcePlanes& avail_planes = *ctx.availability_planes();
  const util::ResourcePlanes& cap_planes = *ctx.capacity_planes();
  // Persistent SoA cell matrix (members, see tetris_scheduler.h): ensure
  // capacity, then reset only the per-pass scan flags. Slots keep their
  // probes' heap buffers; flags are four byte-plane fills instead of a
  // full matrix reconstruction per pass.
  const std::size_t num_cells =
      num_groups * static_cast<std::size_t>(num_machines);
  if (cell_probes_.size() < num_cells) {
    cell_probes_.resize(num_cells);
    cell_alignment_.resize(num_cells);
    cell_scored_epoch_.resize(num_cells);
    cell_fresh_.resize(num_cells);
    cell_rejected_.resize(num_cells);
    cell_probe_ok_.resize(num_cells);
    cell_sticky_.resize(num_cells);
  }
  std::fill_n(cell_fresh_.begin(), num_cells, 0);
  std::fill_n(cell_rejected_.begin(), num_cells, 0);
  std::fill_n(cell_probe_ok_.begin(), num_cells, 0);
  std::fill_n(cell_sticky_.begin(), num_cells, 0);
  column_epoch_.resize(static_cast<std::size_t>(num_machines));
  for (auto& epoch : column_epoch_) epoch = ++next_column_epoch_;
  const auto cidx = [num_machines](std::size_t g, int m) {
    return g * static_cast<std::size_t>(num_machines) +
           static_cast<std::size_t>(m);
  };

  // Count of fresh-and-rejected cells per row. When it reaches
  // num_machines the row scan would do nothing at all (every cell is up
  // to date and skipped), so the round loop jumps the whole row. On a
  // saturated cluster most backlogged rows sit in this state, turning the
  // per-round cost from O(groups * machines) into O(groups).
  std::vector<int>& row_rejected = scratch.row_rejected;
  row_rejected.assign(num_groups, 0);
  const auto invalidate_column_cell = [&](std::size_t g, int m) {
    const std::size_t ci = cidx(g, m);
    if (cell_fresh_[ci] && cell_rejected_[ci]) row_rejected[g]--;
    cell_fresh_[ci] = 0;
  };

  // Alignment replay: the cell's probe is the one its alignment was
  // computed from (same nonzero stamp, so the same demand and local
  // fraction), and its column was scored at the current version earlier
  // in this pass (same availability and capacity). The kernel would
  // recompute the same double from the same inputs.
  const auto mark_scored = [&](std::size_t ci, int m, double a) {
    cell_alignment_[ci] = a;
    cell_scored_epoch_[ci] = column_epoch_[static_cast<std::size_t>(m)];
  };

  // Phase-A refresh of a stale cell: the sticky shortcut, rejected-until-
  // proven marking, runnable/up/constraint checks, the cheap cpu/mem
  // reject, the probe and the full admission test. Returns whether the
  // cell passed admission and, if so, whether its alignment must come
  // from the score batch or is replayed from its earlier score. Gating
  // on the scalar admission here keeps the batch dense: a cell rejected
  // with a component compare never pays the gather + vector-lane cost.
  enum class Prepared { kRejected, kScore, kReplay };
  const auto prepare_cell = [&](std::size_t g, int m) -> Prepared {
    constexpr Prepared kRejected = Prepared::kRejected;
    const std::size_t ci = cidx(g, m);
    sim::Probe& probe = cell_probes_[ci];
    auto& group = groups[g];
    if (cell_rejected_[ci] && cell_sticky_[ci]) {
      // The rejection was a fit test against availability that has only
      // fallen since (or a pass-constant condition): still rejected.
      cell_fresh_[ci] = 1;
      pc.sticky_rejects++;
      return kRejected;
    }
    cell_fresh_[ci] = 1;
    cell_rejected_[ci] = 1;
    cell_sticky_[ci] = 1;
    if (group.runnable <= 0) return kRejected;
    // A down machine admits nothing; bail before probing — an invalid
    // probe below means "group drained", which a churn outage is not.
    // Constraint-inadmissible machines bail the same way, for the same
    // reason: both rejections are pass-constant (or monotone), so the
    // sticky flag set above may stand.
    if (!ctx.machine_up(m)) return kRejected;
    if (!ctx.constraints_admit(group.ref, m)) return kRejected;
    const Resources avail = ctx.available(m);
    // Cheap exact reject on the placement-independent dimensions.
    if (!sched::fits_cpu_mem(group.est_demand, avail)) return kRejected;
    if (!cell_probe_ok_[ci]) {
      // Re-probe in place (the remote-leg buffer keeps its capacity); a
      // probe whose stamp moved, or that has none, may differ from the
      // one the cell's alignment was computed from.
      const std::uint64_t held = probe.stamp;
      ctx.probe_into(group.ref, m, &probe);
      if (held == 0 || probe.stamp != held) cell_scored_epoch_[ci] = 0;
      pc.probes_issued++;
      if (!probe.valid) {
        group.runnable = 0;  // drained: the rest of the row bails above
        return kRejected;
      }
      cell_probe_ok_[ci] = 1;
    } else {
      pc.probe_reuses++;
    }
    // Admission always re-runs: a remote leg's source may have lost
    // availability without this column moving. A failing cell stays
    // rejected-and-sticky and never reaches the kernel.
    if (!policy::admits(config_, ctx, probe, avail)) return kRejected;
    return cell_scored_epoch_[ci] ==
                   column_epoch_[static_cast<std::size_t>(m)]
               ? Prepared::kReplay
               : Prepared::kScore;
  };

  // Free-capacity index: component-wise max availability over up
  // machines. fits_cpu_mem failing against it implies the same failure
  // against every individual machine (the predicate is monotone per
  // component), so skipping a row only ever skips would-be rejections.
  // Fresh non-rejected cells cannot hide behind a skip: their machine's
  // availability is unchanged since they were scored (place() invalidates
  // the columns it drains), and the index dominates it. The row fit mask
  // evaluates fits_cpu_mem of every row against the index in one vector
  // sweep per recompute; est_demand is pass-constant, so the demand
  // planes are built once.
  util::ResourcePlanes& group_demand = scratch.group_demand;
  std::vector<unsigned char>& row_fit = scratch.row_fit;
  group_demand.reset(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g)
    group_demand.set(g, groups[g].est_demand);
  row_fit.assign(group_demand.padded_lanes(), 0);
  const auto recompute_fit_index = [&]() {
    // Down machines hold zero in the availability planes and every plane
    // value is >= 0 (max_zero'd), so folding them in is exact; lanes past
    // num_machines are rack uplinks and stay excluded.
    const Resources max_avail = simd::cwise_max_lanes(
        avail_planes, static_cast<std::size_t>(num_machines));
    simd::fits_cpu_mem_mask(group_demand, max_avail, row_fit.data());
  };
  recompute_fit_index();

  const std::vector<policy::ImminentDemand> imminent =
      policy::imminent_demands(config_, ctx);

  // Row metadata, flat arrays instead of per-row hash probes: tiers move
  // only through placements (the service log / runnable), so they are
  // computed once per pass and refreshed just for the placed row.
  std::vector<int>& tier_by_row = scratch.tier_by_row;
  std::vector<std::uint32_t>& row_job = scratch.row_job;
  tier_by_row.resize(num_groups);
  row_job.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    tier_by_row[g] = service_.tier(config_, groups[g], ctx.now());
    row_job[g] = static_cast<std::uint32_t>(job_index(groups[g].ref.job));
  }

  using ScoreRecord = PassScratch::ScoreRecord;
  using VisitCell = PassScratch::VisitCell;
  std::vector<ScoreRecord>& records = scratch.records;
  auto& pending = scratch.pending;
  std::vector<VisitCell>& visit = scratch.visit;
  auto& scan_rows = scratch.scan_rows;
  auto& tier_rows = scratch.tier_rows;
  // Abs-alignment placeholder of a reserved record; every real |a| is
  // >= 0 (or NaN), so the flush can drop records it never filled.
  constexpr double kUnscored = -1.0;

  // Drains the pending cells through the vector kernel in scan order,
  // lane_width() lanes per block. Every pending cell already passed the
  // full scalar admission in Phase A, so each lane scores exactly as the
  // scalar formula would: same counter bump, same |a| in the record
  // reserved at its scan position, same cell writeback — and its
  // provisional rejection is undone. The kernel's fused fit mask is a
  // no-op on this input by the lane-for-lane identity with the scalar
  // predicates (unit-tested); it stays as a guard, whose unfilled
  // records are dropped.
  const auto flush_pending = [&] {
    const auto width = static_cast<std::size_t>(simd::lane_width());
    simd::ScoreBlock block;
    simd::ScoreOut res;
    bool unfilled = false;
    std::size_t i = 0;
    while (i < pending.size()) {
      const std::size_t n = std::min(width, pending.size() - i);
      for (std::size_t l = 0; l < n; ++l) {
        const auto [g, m, rec] = pending[i + l];
        const sim::Probe& probe = cell_probes_[cidx(g, m)];
        const auto lane = static_cast<std::size_t>(m);
        for (std::size_t r = 0; r < kNumResources; ++r) {
          block.demand[r][l] = probe.demand.at(r);
          block.avail[r][l] = avail_planes.plane(r)[lane];
          block.cap[r][l] = cap_planes.plane(r)[lane];
        }
        block.local_fraction[l] = probe.local_fraction;
      }
      block.n = n;
      simd::score_block(config_.alignment, config_.remote_penalty,
                        config_.only_cpu_mem, block, &res, &pc.simd_blocks,
                        &pc.scalar_tail_evals);
      for (std::size_t l = 0; l < n; ++l) {
        const auto [g, m, rec] = pending[i + l];
        if (!res.fit[l]) {
          unfilled = true;
          continue;
        }
        const std::size_t ci = cidx(g, m);
        const double a = res.score[l];
        pc.score_evals++;
        records[rec].abs_a = std::abs(a);
        mark_scored(ci, m, a);
        cell_rejected_[ci] = 0;
        cell_sticky_[ci] = 0;
        row_rejected[g]--;  // provisional rejection undone
      }
      i += n;
    }
    pending.clear();
    if (unfilled) {
      std::erase_if(records, [](const ScoreRecord& r) {
        return r.abs_a == kUnscored;
      });
    }
  };

  while (true) {
    // eps is frozen for this round so all candidates are compared under
    // the same SRTF weight; the running a_bar only feeds later rounds.
    const double round_eps = alignment_.eps(config_, p_bar);

    // Per-round hold-back claims (availability changes between rounds).
    policy::Claims claims;
    if (!imminent.empty())
      claims = policy::future_claims(config_, ctx, imminent);

    std::ptrdiff_t best_ci = -1;  // cell index, -1 = none
    std::size_t best_group = 0;
    double best_score = 0;
    int best_tier = -1;

    // The round scans in tier-descending waves. In the oracle's row-major
    // loop a running best tier skips a row exactly when a candidate-
    // producing row of a strictly higher tier precedes it, so each wave
    // scans its tier's rows up to `cutoff` — the first candidate-
    // producing row of any higher wave — and the scanned set (hence every
    // refresh, score and eps contribution) matches the oracle's exactly.
    // One O(G) sweep buckets the runnable rows by (cached) tier; a wave
    // can zero `runnable` only for rows of its own tier, so checking it
    // here, once per round, is exact.
    records.clear();
    for (auto& rows : tier_rows) rows.clear();
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (groups[g].runnable <= 0) continue;
      tier_rows[static_cast<std::size_t>(tier_by_row[g])].push_back(g);
    }
    std::size_t cutoff = num_groups;
    for (int tier = 2; tier >= 0; --tier) {
      // Row filters: priority (barrier/starved) rows bypass the fairness
      // cut — they take only a small amount of resources (§3.5) — then
      // the free-capacity index and the whole-row skip (every cell fresh
      // and rejected, so the row would do nothing).
      scan_rows.clear();
      for (const std::size_t g : tier_rows[static_cast<std::size_t>(tier)]) {
        if (tier == 0 && !eligible_job[row_job[g]]) continue;
        if (g >= cutoff) continue;
        if (!row_fit[g]) {
          pc.fit_index_skips += num_machines;
          continue;
        }
        if (row_rejected[g] == num_machines) {
          pc.row_skips += num_machines;
          continue;
        }
        const double rem = config_.srtf_weight > 0
                               ? jobs[row_job[g]].remaining_work
                               : 0.0;
        scan_rows.push_back({g, rem});
      }
      if (scan_rows.empty()) continue;

      // Phase A walks the wave's cells in scan order and does the
      // Phase-A half of each stale cell's refresh. A replayed cell is
      // final on the spot; one whose fit + score is pending is
      // provisionally counted rejected, reserves its score record and
      // joins the batch list; every potentially live cell joins the
      // revisit list — all in walk order.
      visit.clear();
      for (const auto& row : scan_rows) {
        const std::size_t g = row.g;
        for (int m = 0; m < num_machines; ++m) {
          // A reserved machine only accepts the starved tier.
          if (m == reserved_machine && tier < 2) continue;
          const std::size_t ci = cidx(g, m);
          if (!cell_fresh_[ci]) {
            const Prepared prep = prepare_cell(g, m);
            if (prep == Prepared::kReplay) {
              pc.score_replays++;
              records.push_back({g, std::abs(cell_alignment_[ci])});
              cell_rejected_[ci] = 0;
              cell_sticky_[ci] = 0;
              visit.push_back({g, m, row.rem});
              continue;
            }
            row_rejected[g]++;  // provisional; the flush undoes it
            if (prep == Prepared::kScore) {
              pending.push_back({g, m, records.size()});
              records.push_back({g, kUnscored});
              visit.push_back({g, m, row.rem});
            }
          } else if (!cell_rejected_[ci]) {
            visit.push_back({g, m, row.rem});
          }
        }
      }
      // Phase B: fused fit + alignment over the batch, filling the eps
      // contributions reserved in scan order.
      flush_pending();
      // Phase C: candidate scan over the surviving cells. Waves run
      // highest tier first, so only the first wave that yields a
      // candidate may set the round's winner: the highest-scoring cell,
      // ties broken by scan order (strict >), exactly the first-
      // encountered rule of the row-major loop.
      const bool open = best_ci < 0;
      std::size_t first_candidate_row = num_groups;
      for (const VisitCell& v : visit) {
        const std::size_t ci = cidx(v.g, v.m);
        if (cell_rejected_[ci]) continue;
        const double alignment = cell_alignment_[ci];
        // Future hold-back: a better-aligned stage unblocks here before
        // this (longer) candidate would release the resources.
        if (tier == 0 && !claims.empty() &&
            policy::held_back(claims, v.m, alignment,
                              cell_probes_[ci].duration))
          continue;
        const double score = alignment - round_eps * v.rem;
        if (first_candidate_row == num_groups) first_candidate_row = v.g;
        if (open && (best_ci < 0 || score > best_score)) {
          best_ci = static_cast<std::ptrdiff_t>(ci);
          best_group = v.g;
          best_score = score;
          best_tier = tier;
        }
      }
      cutoff = std::min(cutoff, first_candidate_row);
    }

    // Ordered eps accumulation: the oracle adds |a| in row-major order
    // over the scanned rows. Within a wave records are already row-major,
    // and rows of different waves are disjoint, so a stable sort by row
    // restores the exact order — FP addition is not associative, and eps
    // feeds every later round's scores. A single wave needs no sort.
    const auto by_row = [](const ScoreRecord& a, const ScoreRecord& b) {
      return a.g < b.g;
    };
    if (!std::is_sorted(records.begin(), records.end(), by_row))
      std::stable_sort(records.begin(), records.end(), by_row);
    for (const auto& r : records) alignment_.add(r.abs_a);

    if (best_ci < 0) break;
    const auto best_cell = static_cast<std::size_t>(best_ci);
    // The cell's probe is only rewritten by next round's refresh, so the
    // placement can read it in place.
    const sim::Probe& placed = cell_probes_[best_cell];
    // Re-validate against live availability: a cached probe's *remote*
    // legs may have been consumed by a placement on a third machine whose
    // column this cell does not share.
    if (!policy::admits(config_, ctx, placed, ctx.available(placed.machine))) {
      cell_rejected_[best_cell] = 1;
      row_rejected[best_group]++;
      continue;
    }
    if (!ctx.place(placed)) {
      // Stale probe: the candidate set changed under us. Not an
      // availability-monotone rejection — leave sticky unset and drop the
      // probe so the next refresh recomputes from scratch, as the oracle
      // does.
      cell_rejected_[best_cell] = 1;
      cell_probe_ok_[best_cell] = 0;
      row_rejected[best_group]++;
      continue;
    }
    groups[best_group].runnable--;
    stats_.placements++;
    if (best_tier == 1) stats_.priority_placements++;
    if (best_tier == 2) stats_.starved_placements++;
    // Recorded before the fairness cut refreshes below: the eligible-job
    // count is the one this decision was made under.
    policy::record_placement(ctx, placed, best_tier, eligible_count,
                             cell_alignment_[best_cell], best_score);
    service_.record(placed.group, ctx.now());
    const auto ji = job_index(placed.group.job);
    extra[ji] += placed.demand;
    placed_from[ji]++;
    share_fresh[ji] = 0;  // its share key just moved
    if (config_.fairness_knob > 0) refresh_eligible();
    // Only the placed row's tier can have moved (its service stamp just
    // did); the cached tiers of every other row stand.
    tier_by_row[best_group] =
        service_.tier(config_, groups[best_group], ctx.now());

    // Invalidate what the placement changed: the group's candidate task,
    // the host machine's availability, and the remote sources' budgets.
    // The placed group's row loses everything — its candidate set changed,
    // so cached probes and rejections are void. Column invalidations only
    // reflect fallen availability: cached probes stay valid (the probe is
    // availability-independent) and rejections stay sticky.
    for (int m = 0; m < num_machines; ++m) {
      const std::size_t ci = cidx(best_group, m);
      cell_fresh_[ci] = 0;
      cell_probe_ok_[ci] = 0;
      cell_rejected_[ci] = 0;
      cell_sticky_[ci] = 0;
    }
    row_rejected[best_group] = 0;
    column_epoch_[static_cast<std::size_t>(placed.machine)] =
        ++next_column_epoch_;
    for (const auto& leg : placed.remote) {
      if (leg.machine < num_machines)
        column_epoch_[static_cast<std::size_t>(leg.machine)] =
            ++next_column_epoch_;
    }
    for (std::size_t g = 0; g < num_groups; ++g) {
      invalidate_column_cell(g, placed.machine);
      for (const auto& leg : placed.remote) {
        // Rack uplinks carry ids past the placement machines; they have no
        // cell column (the pre-place re-validation catches staleness).
        if (leg.machine < num_machines) invalidate_column_cell(g, leg.machine);
      }
    }
    recompute_fit_index();
  }

  if (policy::preempt_for_fairness(config_, ctx, jobs, extra, placed_from))
    stats_.preemptions++;
}

}  // namespace tetris::core
