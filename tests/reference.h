// Test-only reference implementations of the estimator's cold path: the
// straightforward code the production versions replaced, kept as
// differential oracles in the role src/ml/kernels_naive.cc plays for the
// SIMD kernels. Only tests link them; none is a second production path.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/net_config.h"
#include "flowsim/flowsim.h"
#include "pathdecomp/decompose.h"
#include "topo/parking_lot.h"
#include "topo/topology.h"
#include "util/hash.h"
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

/// A path scenario as first built: a ParkingLot whose hosts are attached
/// while the flows are read, and one routed Flow (local id = position) per
/// scenario flow.
struct LotScenario {
  std::unique_ptr<ParkingLot> lot;
  std::vector<Flow> flows;
  std::vector<char> is_fg;
  std::vector<FlowId> orig_id;
  std::vector<int> entry_hop;
  std::vector<int> exit_hop;
  int num_links = 0;
};

/// BuildPathScenario over a ParkingLot: foreground flows first, then
/// background segments, each in ascending flow position.
LotScenario BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                              const PathDecomposition& decomp, std::size_t path_idx);

/// ComputePathSpec reading the lot's chain links and their reverse links.
PathSpecInfo ComputePathSpec(const LotScenario& scenario, const NetConfig& cfg);

/// ExtractFeatures over a LotScenario's flows and spans.
ScenarioFeatures ExtractFeatures(const LotScenario& scenario,
                                 const std::vector<FlowResult>& flowsim_results);

/// The scenario part of the v1 path cache key ("m3d/path-key/v1"): chain
/// length, every lot link (src, dst, rate, delay) and every flow's
/// endpoints, size, arrival, priority, fg flag, span and route. The model
/// digest, use_context and NetConfig terms are left out; callers hold them
/// fixed.
Hash128 PathKeyV1(const LotScenario& scenario);

/// The sequential weighted draw: subtracts the weights in order from
/// u * total and returns the first one the remainder falls below.
std::size_t WeightedIndex(const std::vector<double>& weights, Rng& rng);

}  // namespace m3::reference
