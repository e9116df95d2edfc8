// Knobs of the Tetris scheduler (paper §3 plus the extensions documented
// per field), shared by the optimized scan (tetris_scheduler.h) and the
// naive oracle (naive_tetris_scheduler.h).
#pragma once

#include <limits>
#include <string>

#include "core/alignment.h"
#include "sched/fairness.h"
#include "util/units.h"

namespace tetris::core {

struct TetrisConfig {
  AlignmentKind alignment = AlignmentKind::kCosine;

  // Score multiplier (1 - remote_penalty * remote_fraction); 0.1 in the
  // paper, flat between ~0.05 and ~0.4 per §5.3.3.
  double remote_penalty = 0.10;

  // The m knob of §5.3.3: eps = srtf_weight * mean|a| / mean p. 0 disables
  // the SRTF term (pure packing, the epsilon=0 ablation).
  double srtf_weight = 1.0;

  // Fairness knob f in [0, 1). 0 = most efficient, -> 1 = most fair.
  double fairness_knob = 0.25;
  sched::FairnessPolicy fairness_policy = sched::FairnessPolicy::kDrf;
  double slot_mem = 2 * kGB;  // for the kSlots fairness policy
  // Apply the knob at queue granularity (paper §3.4: "jobs (or groups of
  // jobs)"): the first ceil((1-f)·Q) queues furthest below their share are
  // eligible, and any job inside them may be served.
  bool fairness_over_queues = false;

  // Barrier knob b in [0, 1]; stages preceding a barrier whose finished
  // fraction reaches b get priority. 1 disables the hint.
  double barrier_knob = 0.9;

  // Fairness preemption (extension; paper §3.1 excludes preemption "for
  // simplicity" — YARN's Capacity scheduler enforces queue fairness by
  // killing over-share containers). When enabled, if the furthest-below
  // schedulable job's dominant share trails fair share by more than
  // preemption_deficit AND none of its tasks fit anywhere, Tetris kills
  // the most-recently-started task (least work lost) of the most
  // over-share job — at most one kill per pass, so enforcement stays
  // gentle and cannot thrash.
  bool preempt_for_fairness = false;
  double preemption_deficit = 0.25;

  // Starvation reservation (extension; paper §3.5 notes the risk that
  // large tasks never see enough free resources at once and leaves a
  // principled reservation to future work). A task runnable for longer
  // than this threshold marks its group *starved*: starved groups outrank
  // everything else, and while one cannot be placed anywhere, the
  // emptiest machine is reserved — no non-starved task may take it — so
  // resources accumulate there until the starved task fits. Infinity
  // disables the mechanism (the paper's deployed behaviour, which relies
  // on heartbeat batching).
  double starvation_threshold = std::numeric_limits<double>::infinity();

  // Future-demand lookahead in seconds (extension; paper §3.5 "Future
  // Demands" notes that job managers know their DAGs and task finish
  // times can be predicted, and leaves exploiting that to future work).
  // When > 0: a machine's resources are withheld from a candidate if a
  // stage predicted to unblock within the lookahead would align strictly
  // better there — mimicking the offline schedule instead of greedily
  // backfilling with long poorly-aligned work. 0 disables (the paper's
  // deployed behaviour).
  double future_lookahead = 0;

  // Ablation switch (§5.3.1): consider only CPU and memory, like the
  // baselines — reintroduces disk/network over-allocation.
  bool only_cpu_mem = false;

  std::string name = "tetris";
};

}  // namespace tetris::core
