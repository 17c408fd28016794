// A path-level simulation (§3.2) as flat columns: the sampled path becomes a
// parking-lot chain whose ends are the original source/destination hosts;
// background flows enter and leave through synthetic access links sized to
// their original endpoint capacities. flowSim, the features and the cache
// key read the columns directly; only the packet simulator needs the chain
// as a network (pathdecomp/path_network.h builds it).
#pragma once

#include <cstdint>
#include <vector>

#include "flowsim/flowsim.h"
#include "pathdecomp/decompose.h"
#include "pktsim/config.h"
#include "workload/flow.h"

namespace m3 {

/// Propagation delay of every synthetic access link (ParkingLot::AttachHost's
/// default).
constexpr Ns kAccessLinkDelay = 1000;

/// One flow of a path scenario.
struct ChainFlow {
  Bytes size = 0;
  Ns arrival = 0;
  std::uint8_t priority = 0;
  // Access link the flow enters (src) or leaves (dst) the chain through, as
  // an index into PathScenario::access_*; -1 at a chain end.
  std::int32_t src_access = -1;
  std::int32_t dst_access = -1;
};

struct PathScenario {
  int num_links = 0;
  // Per chain hop h (chain node h -> h + 1): rate and propagation delay. The
  // reverse (ACK) direction has the same rate and delay.
  std::vector<Bpns> hop_rate;
  std::vector<Ns> hop_delay;
  // Per access link: the chain node it attaches to (in (0, num_links)) and
  // its rate in both directions; numbered in first-seen order.
  std::vector<int> access_hop;
  std::vector<Bpns> access_rate;
  // Per flow; flow i has local id i.
  std::vector<ChainFlow> flows;
  std::vector<char> is_fg;
  std::vector<FlowId> orig_id;  // original Flow::id (a label), or -1 for synthetic
  // Hop span of each flow on the chain: [entry, exit) over path links.
  std::vector<int> entry_hop;
  std::vector<int> exit_hop;

  std::size_t num_fg() const {
    std::size_t n = 0;
    for (char c : is_fg) n += (c != 0);
    return n;
  }
};

/// Numbers a scenario's access links by (endpoint, chain node) in first-seen
/// order, so flows from the same original endpoint share their NIC, as they
/// would in the full network (and as ParkingLot::AttachHost numbers hosts).
class AccessLinkTable {
 public:
  /// Room for up to `max_links` distinct access links.
  explicit AccessLinkTable(std::size_t max_links);

  /// The access link of `endpoint` at chain node `hop`, appended to `sc`
  /// with `rate` on first sight.
  std::int32_t Attach(PathScenario& sc, int hop, Bpns rate, std::uint64_t endpoint);

 private:
  std::vector<std::int32_t> table_;     // open addressing: access index or -1
  std::vector<std::uint64_t> endpoint_;  // by access index
};

/// Builds the path-level scenario for `decomp.path(path_idx)` from the full
/// topology and the flow set `decomp` was built from. Foreground flows come
/// first, then background segments, each in ascending flow position.
PathScenario BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                               const PathDecomposition& decomp, std::size_t path_idx);

/// Runs flowSim on a path scenario (all flows). Links are numbered 0..n-1
/// along the chain, then each access link's up and down direction.
std::vector<FlowResult> RunPathFlowSim(const PathScenario& scenario);

/// Runs the packet simulator on a path scenario; this is "ns-3-path" (§2.1).
std::vector<FlowResult> RunPathPktSim(const PathScenario& scenario, const NetConfig& cfg);

/// Extracts (size, slowdown) pairs of the scenario's foreground flows from
/// a result vector aligned with scenario.flows.
struct SizedSlowdown {
  Bytes size;
  double slowdown;
};
std::vector<SizedSlowdown> ForegroundSlowdowns(const PathScenario& scenario,
                                               const std::vector<FlowResult>& results);

}  // namespace m3
