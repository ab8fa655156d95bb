// Parti communication schedules — shared inspector/executor machinery.
// See src/sched/schedule.h (data structures) and src/sched/executor.h
// (execution) for the implementation; Parti re-exports the names so its API
// reads as a self-contained library.
#pragma once

#include "sched/executor.h"
#include "sched/schedule.h"

namespace mc::parti {

using sched::Executor;
using sched::OffsetPlan;
using sched::Schedule;
using sched::execute;
using sched::executeAdd;

}  // namespace mc::parti
