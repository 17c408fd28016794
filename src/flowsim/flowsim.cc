#include "flowsim/flowsim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace m3 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ActiveFlow {
  std::size_t flow_idx;    // index into the input vector
  double remaining;        // fluid bytes left
  double rate = 0.0;       // current max-min rate (effective bytes/ns)
};

// Buffers of the rate computation, owned by one RunFlowSim call and reused
// on every event: once they have grown to the run's peak, an arrival or
// completion allocates nothing.
struct RateScratch {
  std::vector<std::int32_t> link_slot;  // LinkId -> slot in `cap`; -1 between events
  std::vector<LinkId> used_links;       // slot -> LinkId
  std::vector<double> cap;              // remaining capacity per slot
  std::array<std::vector<std::size_t>, kNumPriorities> groups;  // `active` indices per class
  std::vector<std::vector<std::size_t>> members;  // per slot: the group's flows on it
  std::vector<int> unfrozen;                      // per slot: the group's unfrozen flows
  std::vector<char> frozen;                       // per `active` index
};

// Waterfills one priority class of flows against the remaining capacities
// in `s.cap`, consuming capacity as flows freeze. `group` holds indices into
// `active`.
void WaterfillGroup(std::vector<ActiveFlow>& active, const std::vector<Flow>& flows,
                    const std::vector<std::size_t>& group, RateScratch& s) {
  if (group.empty()) return;
  const std::size_t slots = s.cap.size();
  // Per-slot unfrozen counts and membership limited to this group.
  if (s.members.size() < slots) s.members.resize(slots);
  for (std::size_t k = 0; k < slots; ++k) s.members[k].clear();
  s.unfrozen.assign(slots, 0);
  for (std::size_t a : group) {
    for (LinkId l : flows[active[a].flow_idx].path) {
      const auto k = static_cast<std::size_t>(s.link_slot[static_cast<std::size_t>(l)]);
      s.members[k].push_back(a);
      ++s.unfrozen[k];
    }
  }

  std::size_t num_frozen = 0;
  while (num_frozen < group.size()) {
    double best_share = kInf;
    std::size_t best = 0;
    bool found = false;
    for (std::size_t k = 0; k < slots; ++k) {
      if (s.unfrozen[k] <= 0) continue;
      const double share = s.cap[k] / s.unfrozen[k];
      if (share < best_share) {
        best_share = share;
        best = k;
        found = true;
      }
    }
    if (!found) break;  // defensive; cannot happen while flows remain

    for (std::size_t a : s.members[best]) {
      if (s.frozen[a]) continue;
      s.frozen[a] = 1;
      ++num_frozen;
      active[a].rate = best_share;
      for (LinkId l : flows[active[a].flow_idx].path) {
        const auto k = static_cast<std::size_t>(s.link_slot[static_cast<std::size_t>(l)]);
        s.cap[k] -= best_share;
        if (s.cap[k] < 0.0) s.cap[k] = 0.0;
        s.unfrozen[k] -= 1;
      }
    }
  }
}

// Computes rates for the active flows: strict-priority layered max-min.
// Class 0 is waterfilled first; each lower class only sees the leftover
// capacity (fluid analogue of strict-priority queueing).
void ComputeMaxMinRates(const Topology& topo, std::vector<ActiveFlow>& active,
                        const std::vector<Flow>& flows, double efficiency, RateScratch& s) {
  if (active.empty()) return;

  // Gather the set of links in use, numbered by first use.
  s.used_links.clear();
  for (const ActiveFlow& af : active) {
    for (LinkId l : flows[af.flow_idx].path) {
      if (s.link_slot[static_cast<std::size_t>(l)] < 0) {
        s.link_slot[static_cast<std::size_t>(l)] = static_cast<std::int32_t>(s.used_links.size());
        s.used_links.push_back(l);
      }
    }
  }
  s.cap.resize(s.used_links.size());
  for (std::size_t k = 0; k < s.used_links.size(); ++k) {
    s.cap[k] = topo.link(s.used_links[k]).rate * efficiency;
  }

  for (auto& group : s.groups) group.clear();
  for (std::size_t a = 0; a < active.size(); ++a) {
    const std::size_t prio = std::min<std::size_t>(flows[active[a].flow_idx].priority,
                                                   kNumPriorities - 1);
    s.groups[prio].push_back(a);
  }
  // Each flow is in exactly one class, so one reset serves every class.
  s.frozen.assign(active.size(), 0);
  for (const auto& group : s.groups) WaterfillGroup(active, flows, group, s);

  for (LinkId l : s.used_links) s.link_slot[static_cast<std::size_t>(l)] = -1;
}

}  // namespace

std::vector<FlowResult> RunFlowSim(const Topology& topo, const std::vector<Flow>& flows,
                                   const FlowSimOptions& opts) {
  const double efficiency =
      static_cast<double>(opts.mtu) / static_cast<double>(opts.mtu + opts.hdr);

  std::vector<FlowResult> results(flows.size());
  std::vector<double> base_latency(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (f.path.empty() || f.size <= 0) {
      throw std::invalid_argument("RunFlowSim: every flow needs a path and positive size");
    }
    results[i].id = f.id;
    results[i].size = f.size;
    results[i].ideal_fct = IdealFct(topo, f.path, f.size, opts.mtu, opts.hdr);
    const double min_rate = topo.RouteMinRate(f.path) * efficiency;
    const double fluid_unloaded = static_cast<double>(f.size) / min_rate;
    base_latency[i] =
        std::max(0.0, static_cast<double>(results[i].ideal_fct) - fluid_unloaded);
  }

  // Flows ordered by arrival.
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&flows](std::size_t a, std::size_t b) {
    return flows[a].arrival < flows[b].arrival;
  });

  RateScratch scratch;
  scratch.link_slot.assign(topo.num_links(), -1);
  std::vector<ActiveFlow> active;
  std::size_t next_arrival = 0;
  double now = flows.empty() ? 0.0 : static_cast<double>(flows[order[0]].arrival);

  while (next_arrival < order.size() || !active.empty()) {
    // Next completion under current rates.
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

    // Serve all active flows up to the event time.
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

    ComputeMaxMinRates(topo, active, flows, efficiency, scratch);
  }

  return results;
}

}  // namespace m3
