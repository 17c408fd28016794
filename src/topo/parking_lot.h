// Parking-lot (linear) topologies: the building block of m3's path-level
// simulations. A chain of switches s0 - s1 - ... - sn connected by the
// "original" path links; foreground and background endpoints attach to the
// chain through dedicated "synthetic" access links so that flows only
// contend on the original links (§3.2).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "topo/topology.h"

namespace m3 {

class ParkingLot {
 public:
  /// Builds a chain of `num_links` forward links, all with rate `link_rate`
  /// and per-hop `delay`. If `hosts_at_ends` is set, the first and last
  /// chain nodes are hosts (the path's original source/destination
  /// endpoints); interior nodes are always switches.
  ParkingLot(int num_links, Bpns link_rate, Ns delay, bool hosts_at_ends = false);

  /// Builds a chain with per-link rates/delays (e.g. copied from a sampled
  /// path in a full topology).
  ParkingLot(const std::vector<Bpns>& rates, const std::vector<Ns>& delays,
             bool hosts_at_ends = false);

  Topology& topo() { return topo_; }
  const Topology& topo() const { return topo_; }

  int num_links() const { return static_cast<int>(path_links_.size()); }

  /// i-th original link of the chain (s_i -> s_{i+1}).
  LinkId path_link(int i) const { return path_links_[static_cast<std::size_t>(i)]; }

  /// Switch s_i (i in [0, num_links]).
  NodeId switch_at(int i) const { return switches_[static_cast<std::size_t>(i)]; }

  /// Attaches (or reuses) a host at chain node `i` with an access link of
  /// rate `access_rate` in both directions. Hosts are deduplicated by
  /// (`endpoint_key`, i) so flows from the same original endpoint share
  /// their NIC, as they would in the full network. The host's access-link
  /// pair is recorded, so RouteBetween finds it without a search.
  NodeId AttachHost(int i, Bpns access_rate, std::uint64_t endpoint_key,
                    Ns access_delay = 1000);

  /// Route from `src_host` joining the chain at node `i` to `dst_host`
  /// leaving at node `j` (i < j). If `src_host` IS chain node `i` (a
  /// hosts_at_ends endpoint) no ingress access link is used; likewise for
  /// the egress side. Any other endpoint must be a host AttachHost made at
  /// that node; otherwise its access hop is kInvalidLink.
  Route RouteBetween(NodeId src_host, int i, NodeId dst_host, int j) const;

 private:
  // Access links of a host made by AttachHost: host -> chain node `at`
  // (`up`) and back (`down`). `at` is -1 for every other node.
  struct AccessLinks {
    int at = -1;
    LinkId up = kInvalidLink;
    LinkId down = kInvalidLink;
  };

  // The access link `host` -> chain node `i` (`up`) or back; kInvalidLink
  // unless AttachHost made `host` at node `i`.
  LinkId AccessLink(NodeId host, int i, bool up) const;

  Topology topo_;
  std::vector<NodeId> switches_;
  std::vector<LinkId> path_links_;
  std::map<std::pair<std::uint64_t, int>, NodeId> attached_;
  std::vector<AccessLinks> access_;  // by NodeId
};

}  // namespace m3
