#include "sched/common.h"

#include "trace/event.h"
#include "trace/recorder.h"

namespace tetris::sched {

bool fits_cpu_mem(const Resources& demand, const Resources& avail) {
  constexpr double kSlack = 1e-9;
  return demand[Resource::kCpu] <=
             avail[Resource::kCpu] * (1 + kSlack) + kSlack &&
         demand[Resource::kMem] <= avail[Resource::kMem] * (1 + kSlack) + 1;
}

bool fits_all_local(const Resources& demand, const Resources& avail) {
  return demand.fits_within(avail);
}

bool remote_legs_fit(const sim::SchedulerContext& ctx, const sim::Probe& p) {
  for (const auto& leg : p.remote) {
    const Resources avail = ctx.available(leg.machine);
    if (leg.disk_read > avail[Resource::kDiskRead] * (1 + 1e-9) ||
        leg.net_out > avail[Resource::kNetOut] * (1 + 1e-9) ||
        leg.net_in > avail[Resource::kNetIn] * (1 + 1e-9)) {
      return false;
    }
  }
  return true;
}

void record_group_scan(sim::SchedulerContext& ctx, const sim::GroupView& group,
                       const sim::Probe* best, int scanned) {
  auto* tracer = ctx.tracer();
  if (tracer == nullptr) return;
  trace::Event ev;
  ev.kind = trace::EventKind::kGroupScan;
  ev.time = ctx.now();
  ev.a = group.ref.job;
  ev.b = group.ref.stage;
  ev.c = best ? best->machine : -1;
  ev.d = scanned;
  ev.x = best ? best->local_fraction : 0.0;
  tracer->record(ev);
}

}  // namespace tetris::sched
