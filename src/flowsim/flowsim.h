// flowSim: the max-min fair fluid flow-level simulator (paper Algorithm 1).
//
// Flows are fluids served at their instantaneous max-min fair share across
// the links of their static route; rates are recomputed on every flow
// arrival or completion. flowSim does not model queueing, packet loss, or
// congestion control -- that is the point: it is a fast, coarse featurizer
// whose output m3's ML model corrects (§3.3).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.h"
#include "workload/flow.h"

namespace m3 {

struct FlowSimOptions {
  // Framing used to align fluid goodput with the packet simulator: fluid
  // link capacity is scaled by mtu/(mtu+hdr).
  Bytes mtu = 1000;
  Bytes hdr = 48;
};

/// The compact input flowSim runs on: link rates and delays by dense link
/// index, and every flow's route as a CSR span of those indices. The run
/// numbers the links it meets by first use along the active flows' routes,
/// so relabelling links changes no result.
struct FlowSimInput {
  struct FlowSpec {
    FlowId id = 0;  // copied into FlowResult::id
    Bytes size = 0;
    Ns arrival = 0;
    std::uint8_t priority = 0;
  };
  std::vector<Bpns> link_rate;
  std::vector<Ns> link_delay;
  std::vector<FlowSpec> flows;
  // Flow i's route, in order: route_links[route_begin[i], route_begin[i + 1]).
  std::vector<std::uint32_t> route_begin{0};
  std::vector<std::int32_t> route_links;
};

/// Runs flowSim over `in`. Returns one result per flow, in input order.
/// Each flow must have a non-empty route and a positive size.
///
/// FCT model: fluid completion time plus a path-specific base-latency term
/// chosen so that a flow alone on its path gets exactly IdealFct (hence
/// slowdown exactly 1 when unloaded).
std::vector<FlowResult> RunFlowSim(const FlowSimInput& in, const FlowSimOptions& opts = {});

/// flowSim over `flows` routed in `topo` (links keep their LinkId).
std::vector<FlowResult> RunFlowSim(const Topology& topo, const std::vector<Flow>& flows,
                                   const FlowSimOptions& opts = {});

}  // namespace m3
