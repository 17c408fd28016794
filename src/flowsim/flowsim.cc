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

// Buffers of the rate computation, reused on every event and, per thread,
// across runs: once they have grown to the peak, an arrival or completion
// allocates nothing.
struct RateScratch {
  std::vector<std::int32_t> link_slot;  // link index -> slot in `cap`; -1 between events
  std::vector<std::int32_t> used_links;  // slot -> link index
  std::vector<double> cap;              // remaining capacity per slot
  std::array<std::vector<std::size_t>, kNumPriorities> groups;  // `active` indices per class
  std::vector<std::vector<std::size_t>> members;  // per slot: the group's flows on it
  std::vector<int> unfrozen;                      // per slot: the group's unfrozen flows
  std::vector<char> frozen;                       // per `active` index
};

// Everything a run keeps besides its results, kept per thread.
struct RunScratch {
  std::vector<double> base_latency;  // per input flow
  std::vector<std::size_t> order;    // input flows by arrival
  std::vector<ActiveFlow> active;
  RateScratch rate;
};

// The route of input flow `i`, as a span of link indices.
struct RouteSpan {
  const std::int32_t* first;
  const std::int32_t* last;
  const std::int32_t* begin() const { return first; }
  const std::int32_t* end() const { return last; }
};
RouteSpan RouteOf(const FlowSimInput& in, std::size_t i) {
  const std::int32_t* links = in.route_links.data();
  return RouteSpan{links + in.route_begin[i], links + in.route_begin[i + 1]};
}

// Waterfills one priority class of flows against the remaining capacities
// in `s.cap`, consuming capacity as flows freeze. `group` holds indices into
// `active`.
void WaterfillGroup(std::vector<ActiveFlow>& active, const FlowSimInput& in,
                    const std::vector<std::size_t>& group, RateScratch& s) {
  if (group.empty()) return;
  const std::size_t slots = s.cap.size();
  // Per-slot unfrozen counts and membership limited to this group.
  if (s.members.size() < slots) s.members.resize(slots);
  for (std::size_t k = 0; k < slots; ++k) s.members[k].clear();
  s.unfrozen.assign(slots, 0);
  for (std::size_t a : group) {
    for (std::int32_t l : RouteOf(in, active[a].flow_idx)) {
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
      for (std::int32_t l : RouteOf(in, active[a].flow_idx)) {
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
void ComputeMaxMinRates(const FlowSimInput& in, std::vector<ActiveFlow>& active,
                        double efficiency, RateScratch& s) {
  if (active.empty()) return;

  // Gather the set of links in use, numbered by first use.
  s.used_links.clear();
  for (const ActiveFlow& af : active) {
    for (std::int32_t l : RouteOf(in, af.flow_idx)) {
      if (s.link_slot[static_cast<std::size_t>(l)] < 0) {
        s.link_slot[static_cast<std::size_t>(l)] = static_cast<std::int32_t>(s.used_links.size());
        s.used_links.push_back(l);
      }
    }
  }
  s.cap.resize(s.used_links.size());
  for (std::size_t k = 0; k < s.used_links.size(); ++k) {
    s.cap[k] = in.link_rate[static_cast<std::size_t>(s.used_links[k])] * efficiency;
  }

  for (auto& group : s.groups) group.clear();
  for (std::size_t a = 0; a < active.size(); ++a) {
    const std::size_t prio = std::min<std::size_t>(in.flows[active[a].flow_idx].priority,
                                                   kNumPriorities - 1);
    s.groups[prio].push_back(a);
  }
  // Each flow is in exactly one class, so one reset serves every class.
  s.frozen.assign(active.size(), 0);
  for (const auto& group : s.groups) WaterfillGroup(active, in, group, s);

  for (std::int32_t l : s.used_links) s.link_slot[static_cast<std::size_t>(l)] = -1;
}

}  // namespace

std::vector<FlowResult> RunFlowSim(const FlowSimInput& in, const FlowSimOptions& opts) {
  const double efficiency =
      static_cast<double>(opts.mtu) / static_cast<double>(opts.mtu + opts.hdr);
  const std::vector<FlowSimInput::FlowSpec>& flows = in.flows;
  const std::size_t num_links = in.link_rate.size();
  if (in.link_delay.size() != num_links || in.route_begin.size() != flows.size() + 1 ||
      in.route_begin.front() != 0 || in.route_begin.back() != in.route_links.size()) {
    throw std::invalid_argument("RunFlowSim: link or route arrays disagree on their sizes");
  }

  thread_local RunScratch run;
  std::vector<FlowResult> results(flows.size());
  std::vector<double>& base_latency = run.base_latency;
  base_latency.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSimInput::FlowSpec& f = flows[i];
    if (in.route_begin[i] >= in.route_begin[i + 1] ||
        in.route_begin[i + 1] > in.route_links.size() || f.size <= 0) {
      throw std::invalid_argument("RunFlowSim: every flow needs a path and positive size");
    }
    const RouteSpan route = RouteOf(in, i);
    for (std::int32_t l : route) {
      if (l < 0 || static_cast<std::size_t>(l) >= num_links) {
        throw std::invalid_argument("RunFlowSim: route link out of range");
      }
    }
    const auto rate_at = [&](std::size_t k) {
      return in.link_rate[static_cast<std::size_t>(route.first[k])];
    };
    const auto delay_at = [&](std::size_t k) {
      return in.link_delay[static_cast<std::size_t>(route.first[k])];
    };
    const auto hops = static_cast<std::size_t>(route.last - route.first);
    results[i].id = f.id;
    results[i].size = f.size;
    results[i].ideal_fct = IdealFctOver(hops, rate_at, delay_at, f.size, opts.mtu, opts.hdr);
    Bpns route_min = rate_at(0);
    for (std::size_t k = 1; k < hops; ++k) route_min = std::min(route_min, rate_at(k));
    const double min_rate = route_min * efficiency;
    const double fluid_unloaded = static_cast<double>(f.size) / min_rate;
    base_latency[i] =
        std::max(0.0, static_cast<double>(results[i].ideal_fct) - fluid_unloaded);
  }

  // Flows ordered by arrival.
  std::vector<std::size_t>& order = run.order;
  order.resize(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&flows](std::size_t a, std::size_t b) {
    return flows[a].arrival < flows[b].arrival;
  });

  RateScratch& scratch = run.rate;
  scratch.link_slot.assign(in.link_rate.size(), -1);
  std::vector<ActiveFlow>& active = run.active;
  active.clear();
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
      const double fct = (now - static_cast<double>(flows[idx].arrival)) + base_latency[idx];
      results[idx].fct = static_cast<Ns>(std::llround(fct));
      results[idx].slowdown =
          results[idx].ideal_fct > 0
              ? fct / static_cast<double>(results[idx].ideal_fct)
              : 1.0;
      active[completion_idx] = active.back();
      active.pop_back();
    }

    ComputeMaxMinRates(in, active, efficiency, scratch);
  }

  return results;
}

std::vector<FlowResult> RunFlowSim(const Topology& topo, const std::vector<Flow>& flows,
                                   const FlowSimOptions& opts) {
  FlowSimInput in;
  in.link_rate.reserve(topo.num_links());
  in.link_delay.reserve(topo.num_links());
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const Link& lk = topo.link(static_cast<LinkId>(l));
    in.link_rate.push_back(lk.rate);
    in.link_delay.push_back(lk.delay);
  }
  in.flows.reserve(flows.size());
  in.route_begin.reserve(flows.size() + 1);
  for (const Flow& f : flows) {
    in.flows.push_back(FlowSimInput::FlowSpec{f.id, f.size, f.arrival, f.priority});
    in.route_links.insert(in.route_links.end(), f.path.begin(), f.path.end());
    in.route_begin.push_back(static_cast<std::uint32_t>(in.route_links.size()));
  }
  return RunFlowSim(in, opts);
}

}  // namespace m3
