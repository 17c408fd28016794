// Path-level decomposition (§3.2): groups flows by their exact route and,
// for a given path, classifies every other flow sharing at least one link
// as background traffic with its entry/exit hop along the path.
//
// Flows are referred to by their position in the input vector, never by
// Flow::id: ids come from the client and need not be dense or 0-based.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topo/topology.h"
#include "workload/flow.h"

namespace m3 {

/// A populated path: a full host-to-host route and the foreground flows
/// that traverse every one of its links (Eq. 1), as ascending positions in
/// the decomposed flow vector.
struct PathInfo {
  Route links;
  std::vector<FlowId> fg_flows;
};

/// A background segment on a specific path (Eq. 2): the flow at position
/// `flow` traverses the path's links [entry_hop, exit_hop). A flow that
/// intersects the path non-contiguously (possible for ECMP siblings of the
/// foreground flows) contributes one segment per maximal contiguous run.
struct BgFlowOnPath {
  FlowId flow = 0;
  int entry_hop = 0;
  int exit_hop = 0;  // exclusive
};

class PathDecomposition {
 public:
  /// Indexes `flows` (which must carry valid paths in `topo`). Paths are
  /// numbered in order of first appearance in `flows`; path sampling
  /// depends on that order.
  PathDecomposition(const Topology& topo, const std::vector<Flow>& flows);

  std::size_t num_paths() const { return paths_.size(); }
  const PathInfo& path(std::size_t i) const { return paths_[i]; }

  /// All background segments of path `i`, per Eq. 2, with their hop spans,
  /// in ascending flow position.
  std::vector<BgFlowOnPath> BackgroundFlows(std::size_t i) const;

  /// Sampling weights: number of foreground flows per path.
  std::vector<double> ForegroundWeights() const;

 private:
  std::vector<PathInfo> paths_;
  // Flows on each link, CSR: link l carries the flows at positions
  // link_flow_[link_off_[l] .. link_off_[l + 1]), in ascending order.
  std::vector<std::uint32_t> link_off_;
  std::vector<FlowId> link_flow_;
};

}  // namespace m3
