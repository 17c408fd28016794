#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workload/arrivals.h"

namespace m3 {

SyntheticSpec SyntheticSpec::Sample(Rng& rng, int num_fg) {
  SyntheticSpec s;
  const int lengths[3] = {2, 4, 6};
  s.num_links = lengths[rng.NextBounded(3)];
  s.family = static_cast<ParametricFamily>(rng.NextBounded(4));
  s.theta = rng.Uniform(5e3, 50e3);
  s.sigma = rng.Uniform(1.0, 2.0);
  s.max_load = rng.Uniform(0.2, 0.8);
  // Real decomposed paths carry anywhere from a handful to thousands of
  // foreground flows (Fig. 2d); vary the count log-uniformly so the model
  // sees sparse paths too (the paper notes degradation on few-flow paths).
  const double lo = std::log(std::max(10.0, num_fg / 20.0));
  const double hi = std::log(2.0 * num_fg);
  s.num_fg = static_cast<int>(std::exp(rng.Uniform(lo, hi)));
  s.bg_ratio = rng.Uniform(0.5, 4.0);
  s.seed = rng.NextU64();
  return s;
}

PathScenario BuildSyntheticScenario(const SyntheticSpec& spec) {
  if (spec.num_links < 1 || spec.num_fg < 1) {
    throw std::invalid_argument("BuildSyntheticScenario: bad spec");
  }
  Rng rng(spec.seed);
  Rng size_rng = rng.Fork(1);
  Rng span_rng = rng.Fork(2);
  Rng arrival_rng = rng.Fork(3);
  Rng shape_rng = rng.Fork(4);

  const int n = spec.num_links;
  // Link rates: ends are host-like 10G; with probability 1/2 the interior
  // runs at 40G (core links), else the whole chain is 10G.
  const Bpns host_rate = GbpsToBpns(10.0);
  const bool fast_core = n > 2 && shape_rng.NextDouble() < 0.5;
  std::vector<Bpns> rates(static_cast<std::size_t>(n), host_rate);
  if (fast_core) {
    for (int i = 1; i + 1 < n; ++i) rates[static_cast<std::size_t>(i)] = GbpsToBpns(40.0);
  }

  PathScenario sc;
  sc.num_links = n;
  sc.hop_rate = rates;
  sc.hop_delay.assign(static_cast<std::size_t>(n), 1000);

  const auto sizes = MakeParametric(spec.family, spec.theta);

  // Foreground flows.
  for (int i = 0; i < spec.num_fg; ++i) {
    sc.flows.push_back(ChainFlow{sizes->Sample(size_rng), 0, 0, -1, -1});
    sc.is_fg.push_back(1);
    sc.orig_id.push_back(-1);
    sc.entry_hop.push_back(0);
    sc.exit_hop.push_back(n);
  }

  // Background flows over random non-full spans.
  const int num_bg = static_cast<int>(spec.bg_ratio * spec.num_fg);
  AccessLinkTable access(2 * static_cast<std::size_t>(num_bg));
  for (int i = 0; i < num_bg; ++i) {
    int entry = 0, exit = n;
    // Rejection-sample a span that is not the full path. Always succeeds
    // for n >= 2 (e.g. (0,1)).
    do {
      entry = static_cast<int>(span_rng.NextBounded(static_cast<std::uint64_t>(n)));
      exit = entry + 1 +
             static_cast<int>(span_rng.NextBounded(static_cast<std::uint64_t>(n - entry)));
    } while (entry == 0 && exit == n);

    const std::uint64_t src_key = 1000 + span_rng.NextBounded(64);  // a pool of
    const std::uint64_t dst_key = 2000 + span_rng.NextBounded(64);  // 64 endpoints
    ChainFlow f{0, 0, 0, -1, -1};
    if (entry != 0) f.src_access = access.Attach(sc, entry, host_rate, src_key);
    if (exit != n) f.dst_access = access.Attach(sc, exit, host_rate, dst_key);
    f.size = sizes->Sample(size_rng);
    sc.flows.push_back(f);
    sc.is_fg.push_back(0);
    sc.orig_id.push_back(-1);
    sc.entry_hop.push_back(entry);
    sc.exit_hop.push_back(exit);
  }

  // Arrival times: joint log-normal process scaled so the busiest chain
  // link hits max_load.
  std::vector<double> chain_bytes(static_cast<std::size_t>(n), 0.0);
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    for (int h = sc.entry_hop[i]; h < sc.exit_hop[i]; ++h) {
      chain_bytes[static_cast<std::size_t>(h)] += static_cast<double>(sc.flows[i].size);
    }
  }
  double max_drain = 0.0;
  for (int h = 0; h < n; ++h) {
    max_drain = std::max(max_drain, chain_bytes[static_cast<std::size_t>(h)] /
                                        rates[static_cast<std::size_t>(h)]);
  }
  const Ns duration = static_cast<Ns>(max_drain / spec.max_load) + 1;
  const auto normalized = NormalizedLogNormalArrivals(
      static_cast<int>(sc.flows.size()), spec.sigma, arrival_rng);
  const auto arrivals = ScaleArrivals(normalized, duration);
  // Shuffle assignment so fg/bg arrivals interleave (flows were pushed fg
  // first, but the arrival process is a single joint stream).
  std::vector<std::size_t> order(sc.flows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[arrival_rng.NextBounded(i)]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    sc.flows[order[i]].arrival = arrivals[i];
  }
  return sc;
}

}  // namespace m3
