// The benchmark's workloads. Each builds its inputs from the run's seed,
// measures for the run's duration, checks the answers, and returns its
// metrics: the end-to-end set untraced, the per-layer set traced.
#pragma once

#include "common.h"
#include "trace.h"

namespace m3perf {

RunResult RunPaperCold(const RunArgs& args, Tracer& tracer);
RunResult RunToyServe(const RunArgs& args, Tracer& tracer);
RunResult RunFleetReuse(const RunArgs& args, Tracer& tracer);

}  // namespace m3perf
