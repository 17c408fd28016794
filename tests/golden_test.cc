// Golden answers: pinned digests of flowSim-only estimates for fixed
// queries at toy, fleet and paper shape. flowSim-only is scalar double
// arithmetic end to end (decomposition, sampling, scenario build, flowSim,
// aggregation), so the digests do not depend on the kernel backend. A
// change to any of those stages that moves a single bit fails here; one
// that is meant to move answers must re-pin these digests and say why.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/estimator.h"
#include "core/net_config.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"
#include "util/hash.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/traffic_matrix.h"

namespace m3 {
namespace {

struct GoldenQuery {
  std::unique_ptr<FatTree> ft;
  std::vector<Flow> flows;
  M3Options opts;
};

GoldenQuery MakeQuery(const FatTreeConfig& topo, const char* tm, const char* sizes,
                      int num_flows, double max_load, double sigma, std::uint64_t wl_seed,
                      int num_paths) {
  GoldenQuery q;
  q.ft = std::make_unique<FatTree>(topo);
  const auto matrix =
      TrafficMatrix::ByName(tm, q.ft->num_racks(), q.ft->config().racks_per_pod);
  const auto dist = MakeProductionDist(sizes);
  WorkloadSpec spec;
  spec.num_flows = num_flows;
  spec.seed = wl_seed;
  spec.max_load = max_load;
  spec.burstiness_sigma = sigma;
  q.flows = GenerateWorkload(*q.ft, matrix, *dist, spec).flows;
  q.opts.num_paths = num_paths;
  q.opts.seed = 1;
  q.opts.num_threads = 1;
  return q;
}

// Everything a flowSim-only answer carries: status, every path's
// percentiles and counts, and the aggregates.
std::string AnswerDigest(const NetworkEstimate& e) {
  Hasher h;
  h.U32(static_cast<std::uint32_t>(e.status.code()));
  h.U64(e.paths.size());
  for (const PathEstimate& p : e.paths) {
    for (const auto& bucket : p.pct) {
      for (double v : bucket) h.F64(v);
    }
    for (double c : p.counts) h.F64(c);
  }
  for (const auto& b : e.bucket_pct) {
    h.U64(b.size());
    for (double v : b) h.F64(v);
  }
  for (double c : e.total_counts) h.F64(c);
  h.U64(e.combined_pct.size());
  for (double v : e.combined_pct) h.F64(v);
  return h.Finish().ToHex();
}

std::string FlowSimOnlyDigest(const GoldenQuery& q) {
  const NetworkEstimate est = RunFlowSimOnly(q.ft->topo(), q.flows, NetConfig{}, q.opts);
  EXPECT_TRUE(est.status.ok()) << est.status.ToString();
  return AnswerDigest(est);
}

// 400 web-server flows on the 32-host tree, 4 paths (the toy serving shape).
TEST(GoldenAnswers, ToyShape) {
  const GoldenQuery q =
      MakeQuery(FatTreeConfig::Small(2.0), "B", "WebServer", 400, 0.5, 1.0, 900001, 4);
  EXPECT_EQ(FlowSimOnlyDigest(q), "cbda67bf7990af387aae5a5cc514144a");
}

// 1200 web-server flows on a 64-host two-pod tree, 24 paths (the fleet shape).
GoldenQuery FleetShapeQuery() {
  FatTreeConfig topo = FatTreeConfig::Large(2.0);
  topo.pods = 2;
  topo.racks_per_pod = 8;
  topo.hosts_per_rack = 4;
  return MakeQuery(topo, "B", "WebServer", 1200, 0.5, 1.0, 900101, 24);
}

TEST(GoldenAnswers, FleetShape) {
  EXPECT_EQ(FlowSimOnlyDigest(FleetShapeQuery()), "b95d758547eba7a13c8580cc8801f18d");
}

// The router places each sampled path by its zero-digest PathCacheKey, so
// the scenarios themselves (chain, access links, flow order, spans) are
// pinned too. Pinned under m3d/path-key/v2; ScenarioOracle checks that v2
// groups scenarios exactly as v1 did.
TEST(GoldenAnswers, FleetShapePathCacheKeys) {
  const GoldenQuery q = FleetShapeQuery();
  const PathDecomposition decomp(q.ft->topo(), q.flows);
  Rng rng(q.opts.seed);
  Hasher h;
  for (std::size_t idx : SamplePaths(decomp, q.opts.num_paths, rng)) {
    h.U64(idx);
    const PathScenario sc = BuildPathScenario(q.ft->topo(), q.flows, decomp, idx);
    const Hash128 key = serve::PathCacheKey(sc, NetConfig{}, true, Hash128{});
    h.U64(key.hi).U64(key.lo);
  }
  EXPECT_EQ(h.Finish().ToHex(), "de4d25e7853a1a726f115fb8ceb72ad9");
}

// Table 1 Mix 3 at paper shape (20k flows), trimmed to 40 sampled paths.
TEST(GoldenAnswers, PaperShapeMix3) {
  const GoldenQuery q =
      MakeQuery(FatTreeConfig::Small(2.0), "C", "WebServer", 20000, 0.74, 1.5, 1, 40);
  EXPECT_EQ(FlowSimOnlyDigest(q), "ce6c24e47bc0f86a1adcaf77655db971");
}

}  // namespace
}  // namespace m3
