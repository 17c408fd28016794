// Microbenchmark (google-benchmark): flowSim throughput vs the packet
// simulator on the same path scenario, backing the paper's "800K flows in
// ~1 second, 687x faster than ns-3" claim for the featurizer.
#include <benchmark/benchmark.h>

#include "core/scenario.h"
#include "flowsim/flowsim.h"
#include "pathdecomp/path_network.h"
#include "pktsim/simulator.h"

namespace m3 {
namespace {

PathScenario MakeScenario(int num_fg) {
  SyntheticSpec spec;
  spec.num_links = 4;
  spec.family = ParametricFamily::kLogNormal;
  spec.theta = 20000.0;
  spec.sigma = 1.5;
  spec.max_load = 0.5;
  spec.num_fg = num_fg;
  spec.bg_ratio = 1.0;
  spec.seed = 99;
  return BuildSyntheticScenario(spec);
}

void BM_FlowSim(benchmark::State& state) {
  const PathScenario sc = MakeScenario(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPathFlowSim(sc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sc.flows.size()));
}
BENCHMARK(BM_FlowSim)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_PacketSim(benchmark::State& state) {
  const PathNetwork net = BuildPathNetwork(MakeScenario(static_cast<int>(state.range(0))));
  NetConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPacketSim(net.lot.topo(), net.flows, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.flows.size()));
}
BENCHMARK(BM_PacketSim)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_MaxMinRecompute(benchmark::State& state) {
  // Isolated cost of one arrival event at high active-flow counts, through
  // the generic Topology adapter.
  PathNetwork net = BuildPathNetwork(MakeScenario(static_cast<int>(state.range(0))));
  for (auto& f : net.flows) f.arrival = 0;  // all flows active at once
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunFlowSim(net.lot.topo(), net.flows));
  }
}
BENCHMARK(BM_MaxMinRecompute)->Arg(200)->Arg(500)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace m3

BENCHMARK_MAIN();
