// Differential oracles for the estimator's cold path: flowSim, the path
// decomposition and the weighted path draw, each fuzzed bitwise against
// the straightforward implementation it replaced (tests/reference.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "pathdecomp/decompose.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "reference.h"
#include "topo/fat_tree.h"
#include "topo/parking_lot.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

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
      const PathScenario sc = BuildPathScenario(ft.topo(), flows, decomp, p);
      ExpectSameResults(RunPathFlowSim(sc), reference::RunFlowSim(sc.lot->topo(), sc.flows));
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

}  // namespace
}  // namespace m3
