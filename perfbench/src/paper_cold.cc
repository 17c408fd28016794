// paper_cold: Table-1 Mixes 1-3 at paper shape (20k flows, 100 sampled
// paths, 256-host fat tree), one query at a time through RunM3. Every query
// draws a fresh sample seed, so no answer is reused.
#include <algorithm>
#include <cstdio>

#include "layers.h"
#include "serve/registry.h"
#include "workloads.h"

namespace m3perf {
namespace {

// Path workers per query. One keeps the stage sum comparable with the wall
// time and the figures independent of how many cores the host lends us at
// the moment (the spin calibration in the host block shows it varies).
constexpr unsigned kPathThreads = 1;
constexpr int kSetupRepeats = 5;

m3::M3Options Options(std::uint64_t sample_seed) {
  m3::M3Options o;
  o.num_paths = 100;
  o.seed = sample_seed;
  o.num_threads = kPathThreads;
  return o;
}

}  // namespace

RunResult RunPaperCold(const RunArgs& args, Tracer& tracer) {
  RunResult res;
  const std::vector<PaperScenario> scenarios = PaperScenarios();
  const std::map<std::string, double> truth = LoadTruth(args.refs_dir);
  const std::string model_path = ModelPath(args.refs_dir);

  // Set-up: ready to serve means the checkpoint is loaded.
  std::vector<double> setup_s;
  std::unique_ptr<m3::serve::ModelRegistry> registry;
  for (int i = 0; i < kSetupRepeats; ++i) {
    registry = std::make_unique<m3::serve::ModelRegistry>();
    const auto t0 = Clock::now();
    if (m3::Status st = registry->Reload(model_path); !st.ok()) {
      res.gate_failures.push_back("model load: " + st.ToString());
      return res;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  m3::M3Model& model = registry->Current()->model;
  const std::size_t rot = static_cast<std::size_t>(args.seed % scenarios.size());
  const auto scenario_of = [&](std::size_t i) -> const PaperScenario& {
    return scenarios[(i + rot) % scenarios.size()];
  };

  if (args.trace) {
    std::vector<EstimatorInput> inputs;
    // Whole rounds of fresh seeds; more than a traced run gets through.
    for (std::size_t i = 0; i < 33 * scenarios.size(); ++i) {
      const PaperScenario& s = scenario_of(i);
      inputs.push_back({&s.ft->topo(), &s.flows, s.cfg, Options(DeriveSeed(args.seed, i))});
    }
    std::vector<double> latency, gaps;
    const double untraced_ms = ProfileEstimator(tracer, inputs, scenarios.size(), model,
                                                args.seconds, &res.report, &latency, &gaps,
                                                &res.gate_failures);
    ReportLatency(latency, &res.report, "loadgen.latency_tail_ms");
    // A closed loop's sustained rate is its completion rate.
    res.report.Set("loadgen.max_rate_qps", 1e3 / untraced_ms, "1/s");
    res.attempted = static_cast<long long>(res.report.Get("estimator.queries"));
    ReportClosedLoopGenerator(gaps, &res.report);
    res.report.Set("setup.model_load_ms", setup_s.back() * 1e3, "ms");
    return res;
  }

  // Closed loop, one query at a time.
  std::vector<double> latency_ms;
  std::vector<m3::Hash128> first_digest(scenarios.size());
  const double cpu0 = CpuSecondsSelf();
  const auto t0 = Clock::now();
  // Whole rounds over the mixes, so every run has the same mix composition.
  for (std::size_t i = 0; i % scenarios.size() != 0 || SecondsSince(t0) < args.seconds; ++i) {
    const PaperScenario& s = scenario_of(i);
    const auto q0 = Clock::now();
    const m3::NetworkEstimate est =
        m3::RunM3(s.ft->topo(), s.flows, s.cfg, model, Options(DeriveSeed(args.seed, i)));
    latency_ms.push_back(MsBetween(q0, Clock::now()));
    res.attempted += 1;
    if (!est.status.ok()) {
      res.failed += 1;
      res.gate_failures.push_back(s.name + ": fault-free query answered " + est.status.ToString());
    }
    if (std::string e = CheckPercentiles(est.combined_pct, est.bucket_pct); !e.empty()) {
      res.gate_failures.push_back(s.name + ": " + e);
    }
    if (i < scenarios.size()) first_digest[i] = AnswerDigest(est);
  }
  const double wall = SecondsSince(t0);
  const double cpu = CpuSecondsSelf() - cpu0;

  // Gate: the first query of each mix again, on the full thread pool. The
  // estimator promises bitwise-identical answers across thread counts.
  for (std::size_t i = 0; i < scenarios.size() && i < latency_ms.size(); ++i) {
    const PaperScenario& s = scenario_of(i);
    m3::M3Options o = Options(DeriveSeed(args.seed, i));
    o.num_threads = 0;
    if (AnswerDigest(m3::RunM3(s.ft->topo(), s.flows, s.cfg, model, o)) != first_digest[i]) {
      res.gate_failures.push_back(s.name + ": answer differs from the all-threads reference");
    }
  }

  // Accuracy against full packet simulation, at the fixed sample seed 1.
  std::vector<double> err;
  for (std::size_t m = 0; m < scenarios.size(); ++m) {
    const PaperScenario& s = scenarios[m];
    const auto it = truth.find("paper/" + std::to_string(m));
    if (it == truth.end()) {
      res.gate_failures.push_back("no packet-simulation truth for " + s.name);
      continue;
    }
    const m3::NetworkEstimate est = m3::RunM3(s.ft->topo(), s.flows, s.cfg, model, Options(1));
    err.push_back(AbsErrPct(est.CombinedP99(), it->second));
    std::printf("# %s: p99 %.4f vs packet simulation %.4f (%.1f%%)\n", s.name.c_str(),
                est.CombinedP99(), it->second, err.back());
  }

  Report& r = res.report;
  r.Set("setup_s", Median(setup_s), "s");
  ReportLatency(latency_ms, &r);
  r.Set("queries_per_s", static_cast<double>(latency_ms.size()) / wall, "1/s");
  r.Set("cpu_ms_per_query", 1e3 * cpu / static_cast<double>(latency_ms.size()), "ms");
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  r.Set("p99_err_pct", Median(err), "%");
  return res;
}

}  // namespace m3perf
