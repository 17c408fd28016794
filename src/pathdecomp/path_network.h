// A path scenario as a packet-level network: the chain as a ParkingLot with
// one host per access link and one routed Flow per scenario flow. Only the
// packet simulator needs it (ns-3-path and training ground truth).
#pragma once

#include <vector>

#include "pathdecomp/path_topology.h"
#include "topo/parking_lot.h"
#include "workload/flow.h"

namespace m3 {

struct PathNetwork {
  ParkingLot lot;
  std::vector<Flow> flows;  // local ids 0..N-1, routed in lot.topo()
};

/// Builds the chain with hosts at both ends and attaches access hosts in
/// access-index order, so node and link ids are those the scenario's
/// first-seen AttachHost calls would have made.
PathNetwork BuildPathNetwork(const PathScenario& scenario);

}  // namespace m3
