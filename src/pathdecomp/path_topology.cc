#include "pathdecomp/path_topology.h"

#include "pathdecomp/path_network.h"
#include "pktsim/simulator.h"
#include "util/fault.h"

namespace m3 {
namespace {

std::uint64_t MixKey(std::uint64_t endpoint, int hop) {
  // splitmix64 finalizer over (endpoint, hop).
  std::uint64_t z = endpoint * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(hop);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

AccessLinkTable::AccessLinkTable(std::size_t max_links) {
  std::size_t buckets = 8;
  while (buckets < 2 * max_links) buckets <<= 1;
  table_.assign(buckets, -1);
  endpoint_.reserve(max_links);
}

std::int32_t AccessLinkTable::Attach(PathScenario& sc, int hop, Bpns rate,
                                     std::uint64_t endpoint) {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t b = MixKey(endpoint, hop) & mask;; b = (b + 1) & mask) {
    const std::int32_t a = table_[b];
    if (a < 0) {
      const auto fresh = static_cast<std::int32_t>(sc.access_hop.size());
      table_[b] = fresh;
      endpoint_.push_back(endpoint);
      sc.access_hop.push_back(hop);
      sc.access_rate.push_back(rate);
      return fresh;
    }
    const auto i = static_cast<std::size_t>(a);
    if (endpoint_[i] == endpoint && sc.access_hop[i] == hop) return a;
  }
}

PathScenario BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                               const PathDecomposition& decomp, std::size_t path_idx) {
  const PathInfo& info = decomp.path(path_idx);
  const int n = static_cast<int>(info.links.size());

  PathScenario sc;
  sc.num_links = n;
  sc.hop_rate.reserve(info.links.size());
  sc.hop_delay.reserve(info.links.size());
  for (LinkId l : info.links) {
    sc.hop_rate.push_back(topo.link(l).rate);
    sc.hop_delay.push_back(topo.link(l).delay);
  }

  const std::vector<BgFlowOnPath> background = decomp.BackgroundFlows(path_idx);
  const std::size_t total = info.fg_flows.size() + background.size();
  sc.flows.reserve(total);
  sc.is_fg.reserve(total);
  sc.orig_id.reserve(total);
  sc.entry_hop.reserve(total);
  sc.exit_hop.reserve(total);

  // Known gap: Flow::priority is not carried into the scenario, so every
  // scenario flow runs in class 0.
  for (FlowId pos : info.fg_flows) {
    const Flow& orig = flows[static_cast<std::size_t>(pos)];
    sc.flows.push_back(ChainFlow{orig.size, orig.arrival, 0, -1, -1});
    sc.is_fg.push_back(1);
    sc.orig_id.push_back(orig.id);
    sc.entry_hop.push_back(0);
    sc.exit_hop.push_back(n);
  }

  AccessLinkTable access(2 * background.size());
  for (const BgFlowOnPath& bg : background) {
    const Flow& orig = flows[static_cast<std::size_t>(bg.flow)];
    // Access capacities: the flow's original source/destination capacity
    // (its first/last link rates), per §3.2.
    ChainFlow f{orig.size, orig.arrival, 0, -1, -1};
    if (bg.entry_hop != 0) {
      f.src_access = access.Attach(sc, bg.entry_hop, topo.link(orig.path.front()).rate,
                                   static_cast<std::uint64_t>(orig.src));
    }
    if (bg.exit_hop != n) {
      f.dst_access = access.Attach(sc, bg.exit_hop, topo.link(orig.path.back()).rate,
                                   static_cast<std::uint64_t>(orig.dst));
    }
    sc.flows.push_back(f);
    sc.is_fg.push_back(0);
    sc.orig_id.push_back(orig.id);
    sc.entry_hop.push_back(bg.entry_hop);
    sc.exit_hop.push_back(bg.exit_hop);
  }
  return sc;
}

std::vector<FlowResult> RunPathFlowSim(const PathScenario& scenario) {
  M3_FAULT_POINT("estimator/path_flowsim");
  const int n = scenario.num_links;
  const std::size_t num_flows = scenario.flows.size();
  // Rebuilt for every scenario; the buffers are kept per thread, so once
  // they have grown a run allocates nothing for its input.
  thread_local FlowSimInput in;
  // Links: chain hop h is h; access link a is n + 2a going up into the
  // chain and n + 2a + 1 coming down from it.
  in.link_rate.assign(scenario.hop_rate.begin(), scenario.hop_rate.end());
  in.link_delay.assign(scenario.hop_delay.begin(), scenario.hop_delay.end());
  for (Bpns rate : scenario.access_rate) {
    in.link_rate.insert(in.link_rate.end(), 2, rate);
    in.link_delay.insert(in.link_delay.end(), 2, kAccessLinkDelay);
  }

  // Route order: up the source access link, along the chain, down the
  // destination access link.
  in.flows.clear();
  in.route_links.clear();
  in.route_begin.assign(1, 0);
  for (std::size_t i = 0; i < num_flows; ++i) {
    const ChainFlow& f = scenario.flows[i];
    in.flows.push_back(
        FlowSimInput::FlowSpec{static_cast<FlowId>(i), f.size, f.arrival, f.priority});
    if (f.src_access >= 0) in.route_links.push_back(n + 2 * f.src_access);
    for (int h = scenario.entry_hop[i]; h < scenario.exit_hop[i]; ++h) {
      in.route_links.push_back(h);
    }
    if (f.dst_access >= 0) in.route_links.push_back(n + 2 * f.dst_access + 1);
    in.route_begin.push_back(static_cast<std::uint32_t>(in.route_links.size()));
  }
  return RunFlowSim(in);
}

PathNetwork BuildPathNetwork(const PathScenario& scenario) {
  PathNetwork net{ParkingLot(scenario.hop_rate, scenario.hop_delay, /*hosts_at_ends=*/true),
                  {}};
  ParkingLot& lot = net.lot;
  std::vector<NodeId> access_host;
  access_host.reserve(scenario.access_rate.size());
  for (std::size_t a = 0; a < scenario.access_rate.size(); ++a) {
    access_host.push_back(lot.AttachHost(scenario.access_hop[a], scenario.access_rate[a],
                                         /*endpoint_key=*/a, kAccessLinkDelay));
  }
  net.flows.reserve(scenario.flows.size());
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const ChainFlow& cf = scenario.flows[i];
    const int entry = scenario.entry_hop[i];
    const int exit = scenario.exit_hop[i];
    Flow f;
    f.id = static_cast<FlowId>(i);
    f.src = cf.src_access < 0 ? lot.switch_at(entry)
                              : access_host[static_cast<std::size_t>(cf.src_access)];
    f.dst = cf.dst_access < 0 ? lot.switch_at(exit)
                              : access_host[static_cast<std::size_t>(cf.dst_access)];
    f.size = cf.size;
    f.arrival = cf.arrival;
    f.priority = cf.priority;
    f.path = lot.RouteBetween(f.src, entry, f.dst, exit);
    net.flows.push_back(std::move(f));
  }
  return net;
}

std::vector<FlowResult> RunPathPktSim(const PathScenario& scenario, const NetConfig& cfg) {
  const PathNetwork net = BuildPathNetwork(scenario);
  return RunPacketSim(net.lot.topo(), net.flows, cfg);
}

std::vector<SizedSlowdown> ForegroundSlowdowns(const PathScenario& scenario,
                                               const std::vector<FlowResult>& results) {
  std::vector<SizedSlowdown> out;
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    if (scenario.is_fg[i]) out.push_back({results[i].size, results[i].slowdown});
  }
  return out;
}

}  // namespace m3
