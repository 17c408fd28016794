// Test-only reference implementations of the estimator's cold path: the
// straightforward code the production versions replaced, kept as
// differential oracles in the role src/ml/kernels_naive.cc plays for the
// SIMD kernels. Only tests link them; none is a second production path.
#pragma once

#include <cstddef>
#include <vector>

#include "flowsim/flowsim.h"
#include "pathdecomp/decompose.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "workload/flow.h"

namespace m3::reference {

/// flowSim as first written: every arrival and completion regathers the
/// used links and allocates the whole waterfill state afresh.
std::vector<FlowResult> RunFlowSim(const Topology& topo, const std::vector<Flow>& flows,
                                   const FlowSimOptions& opts = {});

/// The paths of `flows`, grouped by a std::map keyed on whole routes and
/// numbered in order of first appearance; flows by position.
std::vector<PathInfo> Paths(const std::vector<Flow>& flows);

/// Background segments of the path `links` by a full scan: a hop bitmask
/// for every flow in `flows`, then one segment per contiguous run.
std::vector<BgFlowOnPath> BackgroundFlows(const std::vector<Flow>& flows, const Route& links);

/// The sequential weighted draw: subtracts the weights in order from
/// u * total and returns the first one the remainder falls below.
std::size_t WeightedIndex(const std::vector<double>& weights, Rng& rng);

}  // namespace m3::reference
