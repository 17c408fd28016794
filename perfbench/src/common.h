// Shared plumbing for the m3perf benchmark binary: arguments, the metric
// report, percentiles, resource accounting, the host block, answer checks,
// reference artefacts and query builders. Nothing here is timed.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "serve/wire.h"
#include "topo/fat_tree.h"
#include "util/hash.h"
#include "workload/flow.h"

namespace m3perf {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line settings of one measured run.
struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refs_dir;   // reference artefacts (model checkpoint, truth)
  std::string work_dir;   // sockets and span dumps of this run
  std::string self_path;  // this binary, exec'd for shard daemons
};

/// Metrics of one run, in insertion order, printed with all their digits.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The JSON object {"name": {"value": v, "unit": u}, ...}.
  std::string MetricsJson() const;
  double Get(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What a workload run hands back to main().
struct RunResult {
  Report report;
  long long attempted = 0;
  long long failed = 0;       // failed, rejected, shed or expired
  long long degraded = 0;     // answered kDegraded
  std::vector<std::string> gate_failures;  // answer-correctness gate
  bool correct() const { return gate_failures.empty(); }
};

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Samples per window of WindowedTail.
constexpr std::size_t kTailWindow = 200;

/// The tail of samples given in time order. Each window of about
/// kTailWindow consecutive samples gets its highest percentile with at least
/// 10 samples beyond it (the value with exactly 10 larger samples); the
/// result is the median over windows, so one stall on a shared host moves
/// one window, not the figure. `pct_out` receives the windows' percentile
/// rank and `windows_out` their number. -1 with 10 samples or fewer.
double WindowedTail(const std::vector<double>& v, double* pct_out, std::size_t* windows_out);

/// Reports latency_p50_ms of samples in time order, or, given `tail_name`,
/// their WindowedTail under that name, with a comment line giving both and
/// the tail's percentile and counts.
void ReportLatency(const std::vector<double>& ms, Report* report,
                   const char* tail_name = nullptr);

/// Deterministic per-query seed `i` of a run seeded with `seed`.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t i);

/// CPU seconds the calling thread has used.
double ThreadCpuSeconds();

/// Median of `reps` timings of `fn` (each timing covers `inner` calls),
/// per call, in microseconds.
template <typename Fn>
double MedianCallUs(int reps, int inner, const Fn& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    t.push_back(SecondsSince(t0) * 1e6 / inner);
  }
  return Median(std::move(t));
}

// -------------------------------------------------- resources and host

/// User + system CPU seconds of this process, or of its reaped children.
double CpuSecondsSelf();
double CpuSecondsChildren();
/// Peak RSS in MiB of this process plus the largest reaped child.
double PeakRssMb();

/// True when any child of this process is still running or unreaped.
bool HasLiveChildren(std::string* detail);

/// The host block: nproc, spin-calibrated effective parallelism, CPU
/// features, active kernel, build type and flags, source identity. Also
/// flags builds that are not optimized or carry a sanitizer.
std::string HostBlockJson(const std::string& source_digest);

// ------------------------------------------------------- answer checks

/// Bitwise digest of an answer's numeric content and status code.
m3::Hash128 AnswerDigest(const m3::serve::QueryResponse& r);
m3::Hash128 AnswerDigest(const m3::NetworkEstimate& e);

/// Empty when every combined/bucket percentile vector is finite and
/// non-decreasing; otherwise the first problem found.
std::string CheckPercentiles(const std::vector<double>& combined,
                             const std::array<std::vector<double>, m3::kNumOutputBuckets>& buckets);

// ------------------------------------------------- reference artefacts

/// The default-config checkpoint trained with fixed seeds (cached in
/// refs_dir, keyed by its training inputs), and the packet-simulation
/// truth of every workload's reference scenarios.
std::string ModelPath(const std::string& refs_dir);
/// Combined p99 slowdown from full packet simulation, per reference id.
std::map<std::string, double> LoadTruth(const std::string& refs_dir);
/// Builds whichever artefacts are missing. Untimed; run before any
/// measured run.
int BuildReferences(const std::string& refs_dir);

// ------------------------------------------------------------- queries

/// Table-1 mix at paper shape on the 256-host fat tree.
struct PaperScenario {
  std::string name;
  double oversub = 1.0;
  std::unique_ptr<m3::FatTree> ft;
  std::vector<m3::Flow> flows;
  m3::NetConfig cfg;
};
std::vector<PaperScenario> PaperScenarios();

/// Toy serving shape: 400 flows, 4 paths, WebServer sizes, matrix B,
/// 2:1 oversubscription on the default small fat tree.
m3::serve::QueryRequest ToyQuery(std::uint64_t workload_seed);
/// Fleet shape (micro_distributed): 1200 flows, 24 paths, 64-host
/// two-pod large fat tree.
m3::serve::QueryRequest FleetQuery(std::uint64_t workload_seed);

/// Fixed reference queries per workload shape; their packet-simulation
/// truth lives in the refs directory under "<shape>/<i>".
std::vector<m3::serve::QueryRequest> ToyReferenceQueries();
std::vector<m3::serve::QueryRequest> FleetReferenceQueries();

/// |p99 estimate - truth| / truth in percent.
double AbsErrPct(double estimate, double truth);

// -------------------------------------------------------- shard fleet

/// Shard daemons exec'd from this binary (`m3perf shard ...`): each runs
/// an EstimationService with one worker process behind a SocketServer.
class ShardFleet {
 public:
  ShardFleet() = default;
  ~ShardFleet();  // Stop()s
  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// Spawns `n` shards and waits until each answers a Ping as ready.
  bool Start(const RunArgs& args, const std::string& model_path, int n, std::string* err);
  /// SIGTERM, then SIGKILL after a grace period; reaps every shard.
  void Stop();
  const std::vector<std::string>& sockets() const { return socks_; }

 private:
  std::vector<pid_t> pids_;
  std::vector<std::string> socks_;
};

/// Body of `m3perf shard --model M --socket S`. Returns the exit code.
int ShardMain(const std::string& model_path, const std::string& socket_path);

}  // namespace m3perf
