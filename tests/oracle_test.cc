// Differential oracles for the estimator's cold path: flowSim, the path
// decomposition, the weighted path draw and the flat path scenario, each
// fuzzed bitwise against the straightforward implementation it replaced
// (tests/reference.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>

#include "core/dataset.h"
#include "core/net_config.h"
#include "core/validate.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/path_network.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "pktsim/simulator.h"
#include "reference.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"
#include "topo/parking_lot.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/traffic_matrix.h"

namespace m3 {
namespace {

void ExpectSameResults(const std::vector<FlowResult>& got, const std::vector<FlowResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "flow " << i;
    EXPECT_EQ(got[i].size, want[i].size) << "flow " << i;
    EXPECT_EQ(got[i].fct, want[i].fct) << "flow " << i;
    EXPECT_EQ(got[i].ideal_fct, want[i].ideal_fct) << "flow " << i;
    EXPECT_EQ(got[i].slowdown, want[i].slowdown) << "flow " << i;
  }
}

// A random parking lot with flows over random spans: mixed priorities
// (class 3 exercises the clamp to the lowest class), endpoints drawn from a
// small key pool so access links are shared, and repeated arrival times.
// With `exact`, rates are powers of two in bytes/ns, sizes are whole
// kilobytes and arrivals sit on a 1 us grid; run with unit efficiency
// (hdr = 0), fluid event times are then exact, so arrivals coincide with
// completions and completions with each other at zero gap.
struct RandomChain {
  std::unique_ptr<ParkingLot> lot;
  std::vector<Flow> flows;
};

RandomChain MakeRandomChain(std::uint64_t seed, bool exact) {
  Rng rng(seed);
  const double exact_rates[] = {0.5, 1.0, 2.0, 4.0};
  const double gbps[] = {10.0, 25.0, 40.0, 100.0};
  const auto rate = [&] {
    const std::size_t k = rng.NextBounded(4);
    return exact ? exact_rates[k] : GbpsToBpns(gbps[k]);
  };
  const int n = 1 + static_cast<int>(rng.NextBounded(6));
  std::vector<Bpns> rates;
  std::vector<Ns> delays;
  for (int i = 0; i < n; ++i) {
    rates.push_back(rate());
    delays.push_back(static_cast<Ns>(500 * (1 + rng.NextBounded(3))));
  }
  RandomChain c;
  c.lot = std::make_unique<ParkingLot>(rates, delays, /*hosts_at_ends=*/true);
  ParkingLot& lot = *c.lot;
  const int num_flows = 1 + static_cast<int>(rng.NextBounded(80));
  for (int i = 0; i < num_flows; ++i) {
    const int entry = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    const int exit =
        entry + 1 + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n - entry)));
    const NodeId src = entry == 0 ? lot.switch_at(0)
                                  : lot.AttachHost(entry, rate(), 1 + rng.NextBounded(4));
    const NodeId dst = exit == n ? lot.switch_at(n)
                                 : lot.AttachHost(exit, rate(), 100 + rng.NextBounded(4));
    Flow f;
    f.id = static_cast<FlowId>(rng.NextU32() >> 1);
    f.src = src;
    f.dst = dst;
    f.size = exact ? static_cast<Bytes>(1000 * (1 + rng.NextBounded(8)))
                   : static_cast<Bytes>(1 + rng.NextBounded(300000));
    f.arrival = exact || rng.NextBounded(2) == 0 ? static_cast<Ns>(1000 * rng.NextBounded(20))
                                                 : static_cast<Ns>(rng.NextBounded(40000));
    f.priority = static_cast<std::uint8_t>(rng.NextBounded(4));
    f.path = lot.RouteBetween(src, entry, dst, exit);
    c.flows.push_back(std::move(f));
  }
  return c;
}

TEST(FlowSimOracle, RandomChainsMatchReferenceBitwise) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const RandomChain c = MakeRandomChain(seed, /*exact=*/false);
    ExpectSameResults(RunFlowSim(c.lot->topo(), c.flows),
                      reference::RunFlowSim(c.lot->topo(), c.flows));
    if (HasFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
}

TEST(FlowSimOracle, ZeroGapEventsMatchReferenceBitwise) {
  FlowSimOptions unit;
  unit.hdr = 0;  // efficiency exactly 1: exact fluid event times
  int coinciding = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const RandomChain c = MakeRandomChain(seed, /*exact=*/true);
    const auto got = RunFlowSim(c.lot->topo(), c.flows, unit);
    ExpectSameResults(got, reference::RunFlowSim(c.lot->topo(), c.flows, unit));
    if (HasFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
    // The fuzz is only meaningful if events really coincide: count flows
    // finishing exactly when another flow arrives or finishes.
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Ns done = c.flows[i].arrival + got[i].fct;
      for (std::size_t j = 0; j < got.size(); ++j) {
        if (j != i && (c.flows[j].arrival == done || c.flows[j].arrival + got[j].fct == done)) {
          ++coinciding;
          break;
        }
      }
    }
  }
  EXPECT_GT(coinciding, 100);
}

// Relabels the ids of `flows` without moving them or their routes:
// shifted, permuted, or huge and sparse.
void RelabelIds(std::vector<Flow>& flows, int mode, Rng& rng) {
  std::vector<FlowId> ids(flows.size());
  std::iota(ids.begin(), ids.end(), FlowId{0});
  if (mode == 1) {
    for (FlowId& id : ids) id += 7;
  } else if (mode == 2) {
    for (std::size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
  } else if (mode == 3) {
    for (FlowId& id : ids) id = 100000000 + static_cast<FlowId>(rng.NextBounded(1000000));
  }
  for (std::size_t i = 0; i < flows.size(); ++i) flows[i].id = ids[i];
}

TEST(DecomposeOracle, IndexMatchesFullScanReference) {
  static const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    WorkloadSpec spec;
    spec.num_flows = 50 + static_cast<int>(rng.NextBounded(600));
    spec.seed = seed;
    std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, spec).flows;
    RelabelIds(flows, static_cast<int>(seed % 4), rng);

    const PathDecomposition decomp(ft.topo(), flows);
    const std::vector<PathInfo> want = reference::Paths(flows);
    ASSERT_EQ(decomp.num_paths(), want.size()) << "seed " << seed;
    for (std::size_t p = 0; p < want.size(); ++p) {
      ASSERT_EQ(decomp.path(p).links, want[p].links) << "seed " << seed << " path " << p;
      ASSERT_EQ(decomp.path(p).fg_flows, want[p].fg_flows) << "seed " << seed << " path " << p;
      const auto got_bg = decomp.BackgroundFlows(p);
      const auto want_bg = reference::BackgroundFlows(flows, want[p].links);
      ASSERT_EQ(got_bg.size(), want_bg.size()) << "seed " << seed << " path " << p;
      for (std::size_t b = 0; b < got_bg.size(); ++b) {
        EXPECT_EQ(got_bg[b].flow, want_bg[b].flow);
        EXPECT_EQ(got_bg[b].entry_hop, want_bg[b].entry_hop);
        EXPECT_EQ(got_bg[b].exit_hop, want_bg[b].exit_hop);
      }
    }
    // Scenarios cut from the fat tree (shared access links, many hosts):
    // flowSim against the reference on a few of them.
    for (std::size_t p = 0; p < decomp.num_paths(); p += 1 + decomp.num_paths() / 4) {
      const reference::LotScenario sc = reference::BuildPathScenario(ft.topo(), flows, decomp, p);
      ExpectSameResults(RunFlowSim(sc.lot->topo(), sc.flows),
                        reference::RunFlowSim(sc.lot->topo(), sc.flows));
    }
  }
}

TEST(SamplingOracle, PrefixDrawMatchesSequentialRule) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng gen(seed);
    std::vector<double> weights(1 + gen.NextBounded(300));
    for (double& w : weights) {
      const std::uint64_t kind = gen.NextBounded(8);
      w = kind == 0 ? 0.0
                    : static_cast<double>(kind == 1 ? gen.NextBounded(1000000)
                                                    : 1 + gen.NextBounded(20));
    }
    weights[gen.NextBounded(weights.size())] = 1.0;  // at least one positive
    const WeightedSampler sampler(weights);
    Rng a(seed * 7919);
    Rng b(seed * 7919);
    for (int d = 0; d < 200; ++d) {
      ASSERT_EQ(sampler.Draw(a), reference::WeightedIndex(weights, b))
          << "seed " << seed << " draw " << d;
    }
    EXPECT_EQ(a.NextU64(), b.NextU64()) << "draws consumed different randomness";
  }
}

TEST(SamplingOracle, SamplePathsMatchesSequentialRule) {
  static const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec spec;
  spec.num_flows = 2000;
  spec.seed = 3;
  const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, spec).flows;
  const PathDecomposition decomp(ft.topo(), flows);
  const std::vector<double> weights = decomp.ForegroundWeights();
  Rng a(11);
  Rng b(11);
  const std::vector<std::size_t> sample = SamplePaths(decomp, 500, a);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    ASSERT_EQ(sample[i], reference::WeightedIndex(weights, b)) << "draw " << i;
  }
}

// ------------------------------------------------------ flat scenarios ---

// A query's flows on its fat tree.
struct OracleQuery {
  std::shared_ptr<const FatTree> ft;
  std::vector<Flow> flows;
};

OracleQuery MakeOracleQuery(const FatTreeConfig& topo, const char* tm, int num_flows,
                            std::uint64_t seed) {
  OracleQuery q;
  q.ft = std::make_shared<const FatTree>(topo);
  const auto matrix =
      TrafficMatrix::ByName(tm, q.ft->num_racks(), q.ft->config().racks_per_pod);
  WorkloadSpec spec;
  spec.num_flows = num_flows;
  spec.seed = seed;
  q.flows = GenerateWorkload(*q.ft, matrix, *MakeWebServer(), spec).flows;
  return q;
}

// The fleet serving shape: 1200 flows on a 64-host two-pod tree.
OracleQuery FleetShapeOracleQuery() {
  FatTreeConfig topo = FatTreeConfig::Large(2.0);
  topo.pods = 2;
  topo.racks_per_pod = 8;
  topo.hosts_per_rack = 4;
  return MakeOracleQuery(topo, "B", 1200, 900101);
}

void ExpectSameTensor(const ml::Tensor& got, const ml::Tensor& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0) << what;
}

// The packet-level network built from the flat columns is the reference
// lot, link for link and flow for flow.
void ExpectSameNetwork(const PathNetwork& got, const reference::LotScenario& want) {
  const Topology& a = got.lot.topo();
  const Topology& b = want.lot->topo();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_links(), b.num_links());
  for (std::size_t n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.kind(static_cast<NodeId>(n)), b.kind(static_cast<NodeId>(n))) << "node " << n;
  }
  for (std::size_t l = 0; l < a.num_links(); ++l) {
    const Link& x = a.link(static_cast<LinkId>(l));
    const Link& y = b.link(static_cast<LinkId>(l));
    EXPECT_EQ(x.src, y.src) << "link " << l;
    EXPECT_EQ(x.dst, y.dst) << "link " << l;
    EXPECT_EQ(x.rate, y.rate) << "link " << l;
    EXPECT_EQ(x.delay, y.delay) << "link " << l;
  }
  ASSERT_EQ(got.flows.size(), want.flows.size());
  for (std::size_t i = 0; i < got.flows.size(); ++i) {
    const Flow& x = got.flows[i];
    const Flow& y = want.flows[i];
    EXPECT_EQ(x.id, y.id) << "flow " << i;
    EXPECT_EQ(x.src, y.src) << "flow " << i;
    EXPECT_EQ(x.dst, y.dst) << "flow " << i;
    EXPECT_EQ(x.size, y.size) << "flow " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "flow " << i;
    EXPECT_EQ(x.priority, y.priority) << "flow " << i;
    EXPECT_EQ(x.path, y.path) << "flow " << i;
  }
}

// Everything the estimator reads from one path, flat against the lot.
void ExpectScenarioMatchesReference(const OracleQuery& q, const PathDecomposition& decomp,
                                    std::size_t p) {
  const PathScenario sc = BuildPathScenario(q.ft->topo(), q.flows, decomp, p);
  const reference::LotScenario ref = reference::BuildPathScenario(q.ft->topo(), q.flows, decomp, p);
  ASSERT_TRUE(ValidatePathScenario(sc).ok()) << ValidatePathScenario(sc).ToString();
  EXPECT_EQ(sc.num_links, ref.num_links);
  EXPECT_EQ(sc.is_fg, ref.is_fg);
  EXPECT_EQ(sc.orig_id, ref.orig_id);
  EXPECT_EQ(sc.entry_hop, ref.entry_hop);
  EXPECT_EQ(sc.exit_hop, ref.exit_hop);
  ExpectSameNetwork(BuildPathNetwork(sc), ref);

  const std::vector<FlowResult> fluid = RunPathFlowSim(sc);
  const std::vector<FlowResult> ref_fluid = reference::RunFlowSim(ref.lot->topo(), ref.flows);
  ExpectSameResults(fluid, ref_fluid);

  const ScenarioFeatures feats = ExtractFeatures(sc, fluid);
  const ScenarioFeatures ref_feats = reference::ExtractFeatures(ref, ref_fluid);
  ExpectSameTensor(feats.fg_feat, ref_feats.fg_feat, "fg_feat");
  ExpectSameTensor(feats.bg_seq, ref_feats.bg_seq, "bg_seq");
  ExpectSameTensor(TargetToTensor(feats.flowsim_fg), TargetToTensor(ref_feats.flowsim_fg),
                   "flowsim_fg");
  NetConfig cfg;
  for (CcType cc : {CcType::kDctcp, CcType::kHpcc}) {
    cfg.cc = cc;
    ExpectSameTensor(EncodeSpec(cfg, ComputePathSpec(sc, cfg)),
                     EncodeSpec(cfg, reference::ComputePathSpec(ref, cfg)), "spec");
  }
}

TEST(ScenarioOracle, RandomFatTreeScenariosMatchLotReferenceBitwise) {
  const char* matrices[] = {"A", "B", "C"};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    OracleQuery q = MakeOracleQuery(FatTreeConfig::Small(seed % 2 == 0 ? 1.0 : 2.0),
                                    matrices[seed % 3],
                                    100 + static_cast<int>(rng.NextBounded(900)), seed);
    RelabelIds(q.flows, static_cast<int>(seed % 4), rng);
    const PathDecomposition decomp(q.ft->topo(), q.flows);
    for (std::size_t p = 0; p < decomp.num_paths(); p += 1 + decomp.num_paths() / 6) {
      ExpectScenarioMatchesReference(q, decomp, p);
      if (HasFailure()) {
        ADD_FAILURE() << "seed " << seed << " path " << p;
        return;
      }
    }
  }
}

TEST(ScenarioOracle, FleetShapeSampledPathsMatchLotReferenceBitwise) {
  const OracleQuery q = FleetShapeOracleQuery();
  const PathDecomposition decomp(q.ft->topo(), q.flows);
  Rng rng(1);
  for (std::size_t p : SamplePaths(decomp, 24, rng)) {
    ExpectScenarioMatchesReference(q, decomp, p);
    if (HasFailure()) {
      ADD_FAILURE() << "path " << p;
      return;
    }
  }
}

TEST(ScenarioOracle, PacketSimMatchesLotReference) {
  const OracleQuery q = MakeOracleQuery(FatTreeConfig::Small(2.0), "B", 300, 21);
  const PathDecomposition decomp(q.ft->topo(), q.flows);
  NetConfig cfg;
  int checked = 0;
  for (std::size_t p = 0; p < decomp.num_paths() && checked < 3; ++p) {
    const PathScenario sc = BuildPathScenario(q.ft->topo(), q.flows, decomp, p);
    if (sc.access_rate.size() < 4) continue;  // want shared access links in play
    const reference::LotScenario ref = reference::BuildPathScenario(q.ft->topo(), q.flows, decomp, p);
    const std::vector<FlowResult> got = RunPathPktSim(sc, cfg);
    const std::vector<FlowResult> want = RunPacketSim(ref.lot->topo(), ref.flows, cfg);
    ExpectSameResults(got, want);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].retransmits, want[i].retransmits) << "flow " << i;
      EXPECT_EQ(got[i].timeouts, want[i].timeouts) << "flow " << i;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 3);
}

// The v2 key hashes the flat columns, v1 hashed the lot. Over scenarios cut
// from one query and from variants of it, the two keys must group the
// scenarios identically: equal content (shifted ids, reordered unrelated
// flows) collides under both, and a one-field change splits both.
TEST(ScenarioOracle, PathKeyV2PartitionsScenariosAsV1) {
  const OracleQuery base = FleetShapeOracleQuery();
  std::vector<std::vector<Flow>> variants;
  variants.push_back(base.flows);
  {
    std::vector<Flow> shifted = base.flows;
    for (Flow& f : shifted) f.id += 1000;
    variants.push_back(std::move(shifted));
  }
  {
    // Flows from even source hosts first: a path's foreground flows share
    // one source, so they keep their order; background orders may change.
    std::vector<Flow> permuted = base.flows;
    std::stable_partition(permuted.begin(), permuted.end(),
                          [](const Flow& f) { return f.src % 2 == 0; });
    variants.push_back(std::move(permuted));
  }
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, base.flows.size() / 2}) {
    std::vector<Flow> sized = base.flows;
    sized[k].size += 1;
    variants.push_back(std::move(sized));
    std::vector<Flow> later = base.flows;
    later[k].arrival += 1;
    variants.push_back(std::move(later));
  }

  const NetConfig cfg;
  std::map<Hash128, Hash128> v1_to_v2;
  std::map<Hash128, Hash128> v2_to_v1;
  std::map<Hash128, std::size_t> first_variant;  // v1 key -> first variant it came from
  int scenarios = 0, cross_collisions = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const PathDecomposition decomp(base.ft->topo(), variants[v]);
    for (std::size_t p = 0; p < decomp.num_paths(); p += 1 + decomp.num_paths() / 40) {
      const PathScenario sc = BuildPathScenario(base.ft->topo(), variants[v], decomp, p);
      const Hash128 v2 = serve::PathCacheKey(sc, cfg, true, Hash128{});
      const Hash128 v1 = reference::PathKeyV1(
          reference::BuildPathScenario(base.ft->topo(), variants[v], decomp, p));
      const auto [a, new_v1] = v1_to_v2.emplace(v1, v2);
      const auto [b, new_v2] = v2_to_v1.emplace(v2, v1);
      ASSERT_EQ(a->second, v2) << "v1 collides where v2 splits: variant " << v << " path " << p;
      ASSERT_EQ(b->second, v1) << "v2 collides where v1 splits: variant " << v << " path " << p;
      const auto [first, fresh] = first_variant.emplace(v1, v);
      if (!fresh && first->second != v) ++cross_collisions;
      ++scenarios;
    }
  }
  // Both outcomes occur: identical content across queries collides, and the
  // one-field changes leave some groups with a single member.
  EXPECT_GT(cross_collisions, 0);
  EXPECT_GT(v1_to_v2.size(), static_cast<std::size_t>(scenarios) / variants.size());
  EXPECT_LT(v1_to_v2.size(), static_cast<std::size_t>(scenarios));
}

}  // namespace
}  // namespace m3
