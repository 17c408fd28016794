#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/estimator.h"
#include "core/net_config.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/path_network.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "topo/fat_tree.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3 {
namespace {

GeneratedWorkload SmallWorkload(int flows = 800, std::uint64_t seed = 5) {
  static const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec spec;
  spec.num_flows = flows;
  spec.seed = seed;
  return GenerateWorkload(ft, tm, *sizes, spec);
}

const FatTree& SmallTree() {
  static const FatTree ft(FatTreeConfig::Small(2.0));
  return ft;
}

TEST(Decompose, EveryFlowIsForegroundOnExactlyItsOwnPath) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  std::size_t total_fg = 0;
  for (std::size_t i = 0; i < decomp.num_paths(); ++i) {
    const PathInfo& p = decomp.path(i);
    total_fg += p.fg_flows.size();
    for (FlowId f : p.fg_flows) {
      EXPECT_EQ(wl.flows[static_cast<std::size_t>(f)].path, p.links);
    }
  }
  EXPECT_EQ(total_fg, wl.flows.size());
}

TEST(Decompose, BackgroundFlowsShareButDoNotCoverPath) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  // Check a handful of paths thoroughly.
  for (std::size_t i = 0; i < std::min<std::size_t>(decomp.num_paths(), 20); ++i) {
    const PathInfo& p = decomp.path(i);
    const std::set<LinkId> path_links(p.links.begin(), p.links.end());
    const std::set<FlowId> fg(p.fg_flows.begin(), p.fg_flows.end());
    std::map<FlowId, int> segment_hops;  // total hops covered per flow
    for (const BgFlowOnPath& bg : decomp.BackgroundFlows(i)) {
      EXPECT_FALSE(fg.count(bg.flow));
      const Flow& f = wl.flows[static_cast<std::size_t>(bg.flow)];
      EXPECT_LT(bg.entry_hop, bg.exit_hop);
      // Every hop inside the segment is genuinely traversed by the flow.
      const std::set<LinkId> flow_links(f.path.begin(), f.path.end());
      for (int h = bg.entry_hop; h < bg.exit_hop; ++h) {
        EXPECT_TRUE(flow_links.count(p.links[static_cast<std::size_t>(h)]));
      }
      segment_hops[bg.flow] += bg.exit_hop - bg.entry_hop;
    }
    // Per flow: segments jointly cover exactly the shared links, and never
    // the whole path.
    for (const auto& [flow_id, covered] : segment_hops) {
      const Flow& f = wl.flows[static_cast<std::size_t>(flow_id)];
      int shared = 0;
      for (LinkId l : f.path) shared += path_links.count(l);
      EXPECT_EQ(covered, shared);
      EXPECT_LT(covered, static_cast<int>(p.links.size()));
    }
  }
}

TEST(Decompose, BackgroundSetMatchesBruteForce) {
  const auto wl = SmallWorkload(300, 9);
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  for (std::size_t i = 0; i < std::min<std::size_t>(decomp.num_paths(), 10); ++i) {
    const PathInfo& p = decomp.path(i);
    const std::set<LinkId> path_links(p.links.begin(), p.links.end());
    std::set<FlowId> expected;
    for (const Flow& f : wl.flows) {
      std::size_t shared = 0;
      for (LinkId l : f.path) shared += path_links.count(l);
      if (shared > 0 && shared < p.links.size()) expected.insert(f.id);
    }
    std::set<FlowId> got;
    for (const BgFlowOnPath& bg : decomp.BackgroundFlows(i)) got.insert(bg.flow);
    EXPECT_EQ(got, expected) << "path " << i;
  }
}

// Paths are numbered by the first flow on them: path 0 holds flow 0, and
// every later path's first flow comes after every earlier path's. The
// sampled indices, and so every answer, depend on this order.
TEST(Decompose, PathsAreNumberedInFirstAppearanceOrder) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  ASSERT_GT(decomp.num_paths(), 1u);
  EXPECT_EQ(decomp.path(0).links, wl.flows[0].path);
  std::size_t seen = 0;  // flows before the next path's first flow
  for (std::size_t i = 0; i < decomp.num_paths(); ++i) {
    const std::vector<FlowId>& fg = decomp.path(i).fg_flows;
    ASSERT_FALSE(fg.empty());
    EXPECT_TRUE(std::is_sorted(fg.begin(), fg.end())) << "path " << i;
    const auto first = static_cast<std::size_t>(fg.front());
    EXPECT_GE(first, seen) << "path " << i;
    // No flow between the previous path's first flow and this one opens a
    // new path, so every flow before `first` is on an earlier path.
    for (std::size_t f = seen; f < first; ++f) {
      bool earlier = false;
      for (std::size_t j = 0; j < i && !earlier; ++j) earlier = decomp.path(j).links == wl.flows[f].path;
      EXPECT_TRUE(earlier) << "flow " << f << " precedes path " << i << " but is on no earlier path";
    }
    seen = first + 1;
  }
}

TEST(Sampling, WeightsFollowForegroundCounts) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(3);
  const auto sample = SamplePaths(decomp, 20000, rng);
  std::map<std::size_t, int> hist;
  for (std::size_t idx : sample) hist[idx]++;
  // Compare empirical frequency to weight for the heaviest path.
  const auto weights = decomp.ForegroundWeights();
  double total_w = 0.0;
  for (double w : weights) total_w += w;
  const std::size_t heaviest = static_cast<std::size_t>(
      std::max_element(weights.begin(), weights.end()) - weights.begin());
  const double expect_frac = weights[heaviest] / total_w;
  const double got_frac = hist[heaviest] / 20000.0;
  EXPECT_NEAR(got_frac, expect_frac, std::max(0.01, expect_frac * 0.5));
}

TEST(Sampling, StatsShapesMatch) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(4);
  const auto sample = SamplePaths(decomp, 50, rng);
  const auto stats = ComputePathSampleStats(decomp, sample);
  ASSERT_EQ(stats.hop_counts.size(), 50u);
  for (int h : stats.hop_counts) EXPECT_TRUE(h == 2 || h == 4 || h == 6);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_GT(stats.fg_counts[i], 0);
    EXPECT_GE(stats.bg_counts[i], 0);
  }
}

TEST(PathTopology, ScenarioPreservesSizesAndArrivals) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(5);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(SmallTree().topo(), wl.flows, decomp, idx);

  EXPECT_EQ(sc.num_links, static_cast<int>(decomp.path(idx).links.size()));
  EXPECT_EQ(sc.num_fg(), decomp.path(idx).fg_flows.size());
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    const Flow& orig = wl.flows[static_cast<std::size_t>(sc.orig_id[i])];
    EXPECT_EQ(sc.flows[i].size, orig.size);
    EXPECT_EQ(sc.flows[i].arrival, orig.arrival);
  }
  // Every flow's route is valid in the packet-level network built from the
  // columns.
  const PathNetwork net = BuildPathNetwork(sc);
  ASSERT_EQ(net.flows.size(), sc.flows.size());
  for (const Flow& f : net.flows) {
    EXPECT_TRUE(net.lot.topo().ValidateRoute(f.src, f.dst, f.path));
  }
}

TEST(PathTopology, ChainLinksMatchOriginalRates) {
  const auto wl = SmallWorkload();
  const Topology& topo = SmallTree().topo();
  PathDecomposition decomp(topo, wl.flows);
  Rng rng(6);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(topo, wl.flows, decomp, idx);
  const PathInfo& info = decomp.path(idx);
  const PathNetwork net = BuildPathNetwork(sc);
  for (int i = 0; i < sc.num_links; ++i) {
    const Link& orig_link = topo.link(info.links[static_cast<std::size_t>(i)]);
    EXPECT_DOUBLE_EQ(sc.hop_rate[static_cast<std::size_t>(i)], orig_link.rate);
    EXPECT_EQ(sc.hop_delay[static_cast<std::size_t>(i)], orig_link.delay);
    const Link& lot_link = net.lot.topo().link(net.lot.path_link(i));
    EXPECT_DOUBLE_EQ(lot_link.rate, orig_link.rate);
    EXPECT_EQ(lot_link.delay, orig_link.delay);
  }
  // Endpoints of the chain are hosts; interior nodes are switches.
  EXPECT_EQ(net.lot.topo().kind(net.lot.switch_at(0)), NodeKind::kHost);
  EXPECT_EQ(net.lot.topo().kind(net.lot.switch_at(sc.num_links)), NodeKind::kHost);
  for (int i = 1; i < sc.num_links; ++i) {
    EXPECT_EQ(net.lot.topo().kind(net.lot.switch_at(i)), NodeKind::kSwitch);
  }
  // Access links attach at interior chain nodes only.
  for (int hop : sc.access_hop) {
    EXPECT_GT(hop, 0);
    EXPECT_LT(hop, sc.num_links);
  }
}

TEST(PathTopology, ForegroundFlowsSpanWholeChain) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(7);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(SmallTree().topo(), wl.flows, decomp, idx);
  const PathNetwork net = BuildPathNetwork(sc);
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    if (!sc.is_fg[i]) continue;
    EXPECT_EQ(sc.entry_hop[i], 0);
    EXPECT_EQ(sc.exit_hop[i], sc.num_links);
    EXPECT_EQ(sc.flows[i].src_access, -1);
    EXPECT_EQ(sc.flows[i].dst_access, -1);
    const Route& path = net.flows[i].path;
    ASSERT_EQ(static_cast<int>(path.size()), sc.num_links);
    for (int h = 0; h < sc.num_links; ++h) {
      EXPECT_EQ(path[static_cast<std::size_t>(h)], net.lot.path_link(h));
    }
  }
}

TEST(PathTopology, BothSimulatorsRunOnScenario) {
  const auto wl = SmallWorkload(400, 11);
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(8);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(SmallTree().topo(), wl.flows, decomp, idx);

  const auto fluid = RunPathFlowSim(sc);
  NetConfig cfg;
  const auto pkt = RunPathPktSim(sc, cfg);
  ASSERT_EQ(fluid.size(), sc.flows.size());
  ASSERT_EQ(pkt.size(), sc.flows.size());
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    EXPECT_GE(fluid[i].slowdown, 1.0 - 1e-9);
    EXPECT_GE(pkt[i].slowdown, 0.99);
  }
  const auto fg = ForegroundSlowdowns(sc, pkt);
  EXPECT_EQ(fg.size(), sc.num_fg());
}

// Flow ids are labels chosen by the client (and the ECMP key when routes
// are derived), not positions: the same flows with the same routes under
// shifted, permuted or huge ids give a bitwise-equal answer.
TEST(FlowId, RelabeledIdsGiveBitwiseEqualFlowSimOnlyAnswers) {
  const auto wl = SmallWorkload(600, 13);
  M3Options opts;
  opts.num_paths = 16;
  opts.num_threads = 1;
  const NetworkEstimate base = RunFlowSimOnly(SmallTree().topo(), wl.flows, NetConfig{}, opts);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();

  Rng rng(17);
  for (int mode = 0; mode < 4; ++mode) {
    std::vector<Flow> flows = wl.flows;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto n = static_cast<FlowId>(flows.size());
      const auto pos = static_cast<FlowId>(i);
      flows[i].id = mode == 0   ? pos + 1
                    : mode == 1 ? n - 1 - pos
                    : mode == 2 ? 100000000 + 3 * pos
                                : static_cast<FlowId>(rng.NextU32() >> 1);
    }
    const NetworkEstimate got = RunFlowSimOnly(SmallTree().topo(), flows, NetConfig{}, opts);
    ASSERT_TRUE(got.status.ok()) << "mode " << mode << ": " << got.status.ToString();
    ASSERT_EQ(got.paths.size(), base.paths.size());
    for (std::size_t p = 0; p < got.paths.size(); ++p) {
      EXPECT_EQ(got.paths[p].pct, base.paths[p].pct) << "mode " << mode << " path " << p;
      EXPECT_EQ(got.paths[p].counts, base.paths[p].counts) << "mode " << mode << " path " << p;
    }
    EXPECT_EQ(got.bucket_pct, base.bucket_pct) << "mode " << mode;
    EXPECT_EQ(got.total_counts, base.total_counts) << "mode " << mode;
    EXPECT_EQ(got.combined_pct, base.combined_pct) << "mode " << mode;
  }
}

}  // namespace
}  // namespace m3
