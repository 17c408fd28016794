#include "reference.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

namespace m3::reference {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ActiveFlow {
  std::size_t flow_idx;
  double remaining;
  double rate = 0.0;
};

void WaterfillGroup(std::vector<ActiveFlow>& active, const std::vector<Route>& paths,
                    const std::vector<std::size_t>& group,
                    const std::vector<std::int32_t>& link_slot, std::vector<double>& cap) {
  if (group.empty()) return;
  std::vector<std::vector<std::size_t>> members(cap.size());
  std::vector<int> unfrozen(cap.size(), 0);
  for (std::size_t a : group) {
    for (LinkId l : paths[active[a].flow_idx]) {
      const auto s = static_cast<std::size_t>(link_slot[static_cast<std::size_t>(l)]);
      members[s].push_back(a);
      ++unfrozen[s];
    }
  }

  std::vector<char> frozen_flag(active.size(), 0);
  std::size_t num_frozen = 0;
  while (num_frozen < group.size()) {
    double best_share = kInf;
    std::size_t best = 0;
    bool found = false;
    for (std::size_t s = 0; s < cap.size(); ++s) {
      if (unfrozen[s] <= 0) continue;
      const double share = cap[s] / unfrozen[s];
      if (share < best_share) {
        best_share = share;
        best = s;
        found = true;
      }
    }
    if (!found) break;

    for (std::size_t a : members[best]) {
      if (frozen_flag[a]) continue;
      frozen_flag[a] = 1;
      ++num_frozen;
      active[a].rate = best_share;
      for (LinkId l : paths[active[a].flow_idx]) {
        const auto s = static_cast<std::size_t>(link_slot[static_cast<std::size_t>(l)]);
        cap[s] -= best_share;
        if (cap[s] < 0.0) cap[s] = 0.0;
        unfrozen[s] -= 1;
      }
    }
  }
}

void ComputeMaxMinRates(const Topology& topo, std::vector<ActiveFlow>& active,
                        const std::vector<Route>& paths,
                        const std::vector<std::uint8_t>& priorities, double efficiency) {
  if (active.empty()) return;
  std::vector<LinkId> used_links;
  std::vector<std::int32_t> link_slot(topo.num_links(), -1);
  for (const ActiveFlow& af : active) {
    for (LinkId l : paths[af.flow_idx]) {
      if (link_slot[static_cast<std::size_t>(l)] < 0) {
        link_slot[static_cast<std::size_t>(l)] = static_cast<std::int32_t>(used_links.size());
        used_links.push_back(l);
      }
    }
  }
  std::vector<double> cap(used_links.size());
  for (std::size_t s = 0; s < used_links.size(); ++s) {
    cap[s] = topo.link(used_links[s]).rate * efficiency;
  }

  std::array<std::vector<std::size_t>, kNumPriorities> groups;
  for (std::size_t a = 0; a < active.size(); ++a) {
    const std::size_t prio = std::min<std::size_t>(priorities[active[a].flow_idx],
                                                   kNumPriorities - 1);
    groups[prio].push_back(a);
  }
  for (auto& group : groups) WaterfillGroup(active, paths, group, link_slot, cap);
}

}  // namespace

std::vector<FlowResult> RunFlowSim(const Topology& topo, const std::vector<Flow>& flows,
                                   const FlowSimOptions& opts) {
  const double efficiency =
      static_cast<double>(opts.mtu) / static_cast<double>(opts.mtu + opts.hdr);

  std::vector<FlowResult> results(flows.size());
  std::vector<Route> paths(flows.size());
  std::vector<std::uint8_t> priorities(flows.size(), 0);
  std::vector<double> base_latency(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (f.path.empty() || f.size <= 0) {
      throw std::invalid_argument("RunFlowSim: every flow needs a path and positive size");
    }
    paths[i] = f.path;
    priorities[i] = f.priority;
    results[i].id = f.id;
    results[i].size = f.size;
    results[i].ideal_fct = IdealFct(topo, f.path, f.size, opts.mtu, opts.hdr);
    const double min_rate = topo.RouteMinRate(f.path) * efficiency;
    const double fluid_unloaded = static_cast<double>(f.size) / min_rate;
    base_latency[i] =
        std::max(0.0, static_cast<double>(results[i].ideal_fct) - fluid_unloaded);
  }

  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&flows](std::size_t a, std::size_t b) {
    return flows[a].arrival < flows[b].arrival;
  });

  std::vector<ActiveFlow> active;
  std::size_t next_arrival = 0;
  double now = flows.empty() ? 0.0 : static_cast<double>(flows[order[0]].arrival);

  while (next_arrival < order.size() || !active.empty()) {
    double completion_at = kInf;
    std::size_t completion_idx = 0;
    for (std::size_t a = 0; a < active.size(); ++a) {
      if (active[a].rate <= 0.0) continue;
      const double t = now + active[a].remaining / active[a].rate;
      if (t < completion_at) {
        completion_at = t;
        completion_idx = a;
      }
    }
    const double arrival_at =
        next_arrival < order.size()
            ? static_cast<double>(flows[order[next_arrival]].arrival)
            : kInf;

    const bool is_arrival = arrival_at <= completion_at;
    const double t_event = is_arrival ? arrival_at : completion_at;

    const double dt = t_event - now;
    if (dt > 0.0) {
      for (ActiveFlow& a : active) a.remaining -= a.rate * dt;
    }
    now = t_event;

    if (is_arrival) {
      const std::size_t idx = order[next_arrival++];
      active.push_back(ActiveFlow{idx, static_cast<double>(flows[idx].size), 0.0});
    } else {
      const std::size_t idx = active[completion_idx].flow_idx;
      const Flow& f = flows[idx];
      const double fct = (now - static_cast<double>(f.arrival)) + base_latency[idx];
      results[idx].fct = static_cast<Ns>(std::llround(fct));
      results[idx].slowdown =
          results[idx].ideal_fct > 0
              ? fct / static_cast<double>(results[idx].ideal_fct)
              : 1.0;
      active[completion_idx] = active.back();
      active.pop_back();
    }

    ComputeMaxMinRates(topo, active, paths, priorities, efficiency);
  }

  return results;
}

std::vector<PathInfo> Paths(const std::vector<Flow>& flows) {
  std::map<Route, std::size_t> index;
  std::vector<PathInfo> paths;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto [it, inserted] = index.emplace(flows[i].path, paths.size());
    if (inserted) paths.push_back(PathInfo{flows[i].path, {}});
    paths[it->second].fg_flows.push_back(static_cast<FlowId>(i));
  }
  return paths;
}

std::vector<BgFlowOnPath> BackgroundFlows(const std::vector<Flow>& flows, const Route& links) {
  const int n = static_cast<int>(links.size());
  if (n > 32) throw std::invalid_argument("BackgroundFlows: path too long (> 32 hops)");
  const std::uint32_t full = n == 32 ? ~0u : ((1u << n) - 1u);
  std::vector<BgFlowOnPath> bg;
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    std::uint32_t mask = 0;
    for (int hop = 0; hop < n; ++hop) {
      const LinkId l = links[static_cast<std::size_t>(hop)];
      const Route& route = flows[fi].path;
      if (std::find(route.begin(), route.end(), l) != route.end()) mask |= 1u << hop;
    }
    if (mask == 0 || mask == full) continue;
    int hop = 0;
    while (hop < n) {
      if (!(mask & (1u << hop))) {
        ++hop;
        continue;
      }
      int end = hop;
      while (end < n && (mask & (1u << end))) ++end;
      bg.push_back(BgFlowOnPath{static_cast<FlowId>(fi), hop, end});
      hop = end;
    }
  }
  return bg;
}

std::size_t WeightedIndex(const std::vector<double>& weights, Rng& rng) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  double target = rng.NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return 0;
}

LotScenario BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                              const PathDecomposition& decomp, std::size_t path_idx) {
  const PathInfo& info = decomp.path(path_idx);
  const int n = static_cast<int>(info.links.size());

  std::vector<Bpns> rates;
  std::vector<Ns> delays;
  for (LinkId l : info.links) {
    rates.push_back(topo.link(l).rate);
    delays.push_back(topo.link(l).delay);
  }

  LotScenario sc;
  sc.num_links = n;
  sc.lot = std::make_unique<ParkingLot>(rates, delays, /*hosts_at_ends=*/true);
  ParkingLot& lot = *sc.lot;
  const NodeId head = lot.switch_at(0);
  const NodeId tail = lot.switch_at(n);

  const Route fg_route = lot.RouteBetween(head, 0, tail, n);
  for (FlowId pos : info.fg_flows) {
    const Flow& orig = flows[static_cast<std::size_t>(pos)];
    Flow f;
    f.id = static_cast<FlowId>(sc.flows.size());
    f.src = head;
    f.dst = tail;
    f.size = orig.size;
    f.arrival = orig.arrival;
    f.path = fg_route;
    sc.flows.push_back(std::move(f));
    sc.is_fg.push_back(1);
    sc.orig_id.push_back(orig.id);
    sc.entry_hop.push_back(0);
    sc.exit_hop.push_back(n);
  }

  for (const BgFlowOnPath& bg : decomp.BackgroundFlows(path_idx)) {
    const Flow& orig = flows[static_cast<std::size_t>(bg.flow)];
    const Bpns src_rate = topo.link(orig.path.front()).rate;
    const Bpns dst_rate = topo.link(orig.path.back()).rate;
    const NodeId src =
        bg.entry_hop == 0
            ? head
            : lot.AttachHost(bg.entry_hop, src_rate, static_cast<std::uint64_t>(orig.src));
    const NodeId dst =
        bg.exit_hop == n
            ? tail
            : lot.AttachHost(bg.exit_hop, dst_rate, static_cast<std::uint64_t>(orig.dst));
    Flow f;
    f.id = static_cast<FlowId>(sc.flows.size());
    f.src = src;
    f.dst = dst;
    f.size = orig.size;
    f.arrival = orig.arrival;
    f.path = lot.RouteBetween(src, bg.entry_hop, dst, bg.exit_hop);
    sc.flows.push_back(std::move(f));
    sc.is_fg.push_back(0);
    sc.orig_id.push_back(orig.id);
    sc.entry_hop.push_back(bg.entry_hop);
    sc.exit_hop.push_back(bg.exit_hop);
  }
  return sc;
}

PathSpecInfo ComputePathSpec(const LotScenario& scenario, const NetConfig& cfg) {
  PathSpecInfo info;
  info.num_links = scenario.num_links;
  const Topology& topo = scenario.lot->topo();
  Route fg_route;
  for (int i = 0; i < scenario.num_links; ++i) fg_route.push_back(scenario.lot->path_link(i));
  Ns rtt = 0;
  for (LinkId l : fg_route) {
    const Link& lk = topo.link(l);
    rtt += lk.delay + TransmissionTime(cfg.mtu + cfg.hdr, lk.rate);
    const Link& rlk = topo.link(topo.ReverseLink(l));
    rtt += rlk.delay + TransmissionTime(cfg.hdr, rlk.rate);
  }
  info.base_rtt = rtt;
  info.min_rate = topo.RouteMinRate(fg_route);
  info.bdp = static_cast<Bytes>(topo.link(fg_route.front()).rate * static_cast<double>(rtt));
  std::size_t num_fg = 0;
  for (char c : scenario.is_fg) num_fg += (c != 0);
  info.num_fg = static_cast<double>(num_fg);
  return info;
}

ScenarioFeatures ExtractFeatures(const LotScenario& scenario,
                                 const std::vector<FlowResult>& flowsim_results) {
  const int n = scenario.num_links;
  std::vector<SizedSlowdown> fg;
  std::vector<std::vector<SizedSlowdown>> bg_per_link(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const SizedSlowdown s{flowsim_results[i].size, flowsim_results[i].slowdown};
    if (scenario.is_fg[i]) {
      fg.push_back(s);
    } else {
      for (int h = scenario.entry_hop[i]; h < scenario.exit_hop[i]; ++h) {
        bg_per_link[static_cast<std::size_t>(h)].push_back(s);
      }
    }
  }
  ScenarioFeatures out;
  out.fg_feat = FlattenFeature(BuildFeatureMap(fg));
  out.flowsim_fg = BuildTarget(fg);
  out.bg_seq = ml::Tensor(n, kFeatureDim);
  for (int h = 0; h < n; ++h) {
    const ml::Tensor row = FlattenFeature(BuildFeatureMap(bg_per_link[static_cast<std::size_t>(h)]));
    for (int j = 0; j < kFeatureDim; ++j) out.bg_seq.at(h, j) = row.at(0, j);
  }
  return out;
}

Hash128 PathKeyV1(const LotScenario& scenario) {
  Hasher h;
  h.Str("m3d/path-key/v1");
  h.I32(scenario.num_links);
  const Topology& topo = scenario.lot->topo();
  h.U64(topo.num_links());
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    h.I32(link.src).I32(link.dst).F64(link.rate).I64(link.delay);
  }
  h.U64(scenario.flows.size());
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const Flow& f = scenario.flows[i];
    h.I32(f.src).I32(f.dst).I64(f.size).I64(f.arrival).U8(f.priority);
    h.Bool(scenario.is_fg[i] != 0);
    h.I32(scenario.entry_hop[i]).I32(scenario.exit_hop[i]);
    h.U64(f.path.size());
    for (LinkId l : f.path) h.I32(l);
  }
  return h.Finish();
}

}  // namespace m3::reference
