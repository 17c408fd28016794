#include "common.h"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/dataset.h"
#include "core/estimator.h"
#include "core/trainer.h"
#include "ml/kernels.h"
#include "pktsim/simulator.h"
#include "serve/exec.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/cpu_features.h"
#include "util/socket.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3perf {

using m3::serve::QueryRequest;
using m3::serve::QueryResponse;
using m3::serve::WireFlow;

// --------------------------------------------------------------- report

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Report::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  char buf[512];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // JSON has no NaN/inf; a non-finite metric is reported as null and
    // fails the run's self-check.
    if (std::isfinite(e.value)) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", e.name.c_str(), e.value, e.unit.c_str());
    } else {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                    i ? ", " : "", e.name.c_str(), e.unit.c_str());
    }
    out += buf;
  }
  return out + "}";
}

// ---------------------------------------------------------------- stats

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const double n = static_cast<double>(v.size());
  const std::size_t idx = static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1;
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

namespace {

// The value with exactly 10 larger samples, and its percentile rank.
double TailWithTenBeyond(std::vector<double> v, double* pct_out) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;
  *pct_out = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return v[idx];
}

}  // namespace

double WindowedTail(const std::vector<double>& v, double* pct_out, std::size_t* windows_out) {
  *pct_out = 0.0;
  *windows_out = 0;
  if (v.size() <= 10) return -1.0;
  const std::size_t k = std::max<std::size_t>(1, v.size() / kTailWindow);
  std::vector<double> tails;
  for (std::size_t w = 0; w < k; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / k);
    const auto end = v.begin() + static_cast<std::ptrdiff_t>((w + 1) * v.size() / k);
    tails.push_back(TailWithTenBeyond(std::vector<double>(begin, end), pct_out));
  }
  *windows_out = k;
  return Median(std::move(tails));
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---------------------------------------------------- resources / host

namespace {

double RusageCpu(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Fixed floating-point busy work; the result is consumed so it is not
// optimized away.
double SpinWork(int iters) {
  double x = 1.0;
  for (int i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

// Effective parallelism: nproc threads each run the same spin as one
// thread did alone; the ratio of the ideal to the actual wall time is how
// many cores the host gave us just now. `single_ms`, the lone spin's time,
// tracks the speed of one core across runs.
double EffectiveCores(unsigned nproc, double* single_ms) {
  constexpr int kIters = 20'000'000;
  std::atomic<double> sink{0.0};
  const auto t1 = Clock::now();
  sink = sink + SpinWork(kIters);
  const double single = SecondsSince(t1);
  *single_ms = single * 1e3;
  const auto tn = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < nproc; ++i) {
    threads.emplace_back([&] {
      const double r = SpinWork(kIters);
      double cur = sink.load();
      while (!sink.compare_exchange_weak(cur, cur + r)) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double all = SecondsSince(tn);
  return static_cast<double>(nproc) * single / all;
}

}  // namespace

double CpuSecondsSelf() { return RusageCpu(RUSAGE_SELF); }
double CpuSecondsChildren() { return RusageCpu(RUSAGE_CHILDREN); }

double PeakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

bool HasLiveChildren(std::string* detail) {
  siginfo_t info{};
  // WNOWAIT: look without reaping. ECHILD means no children at all.
  if (waitid(P_ALL, 0, &info, WEXITED | WNOHANG | WNOWAIT) != 0) return false;
  if (detail != nullptr) {
    *detail = info.si_pid != 0 ? "unreaped child pid " + std::to_string(info.si_pid)
                               : "a child process is still running";
  }
  return true;
}

std::string HostBlockJson(const std::string& source_digest) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  double spin_ms = 0.0;
  const double eff = EffectiveCores(nproc, &spin_ms);
  const std::string build_type = M3PERF_BUILD_TYPE;
  const std::string flags = M3PERF_CXX_FLAGS;
  std::vector<std::string> warnings;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    warnings.push_back("not an optimized build (" + build_type + ")");
  }
  if (flags.find("-fsanitize") != std::string::npos) warnings.push_back("sanitizer build");
  std::string w;
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    w += (i ? ", \"" : "\"") + warnings[i] + "\"";
  }
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"host\": {\"nproc\": %u, \"affinity_cpus\": %d, \"effective_cores\": %.3f, "
                "\"spin_ms\": %.2f, "
                "\"cpu_features\": \"%s\", \"kernel_impl\": \"%s\", \"build_type\": \"%s\", "
                "\"cxx_flags\": \"%s\", \"git_rev\": \"%s\", \"source_digest\": \"%s\", "
                "\"warnings\": [%s]}}",
                nproc, affinity, eff, spin_ms, m3::CpuFeatureSummary().c_str(),
                m3::ml::kernels::KernelImplName(m3::ml::kernels::GetKernelImpl()),
                build_type.c_str(), flags.c_str(), M3PERF_GIT_REV, source_digest.c_str(),
                w.c_str());
  return buf;
}

// ------------------------------------------------------- answer checks

namespace {

template <typename Answer>
m3::Hash128 DigestOf(m3::StatusCode code, const Answer& a) {
  m3::Hasher h;
  h.U32(static_cast<std::uint32_t>(code));
  for (const auto& b : a.bucket_pct) {
    h.U64(b.size());
    for (double v : b) h.F64(v);
  }
  for (double c : a.total_counts) h.F64(c);
  h.U64(a.combined_pct.size());
  for (double v : a.combined_pct) h.F64(v);
  return h.Finish();
}

}  // namespace

m3::Hash128 AnswerDigest(const QueryResponse& r) { return DigestOf(r.status.code(), r); }
m3::Hash128 AnswerDigest(const m3::NetworkEstimate& e) { return DigestOf(e.status.code(), e); }

std::string CheckPercentiles(const std::vector<double>& combined,
                             const std::array<std::vector<double>, m3::kNumOutputBuckets>&
                                 buckets) {
  const auto check = [](const std::vector<double>& v, const std::string& what) -> std::string {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!std::isfinite(v[i])) return what + "[" + std::to_string(i) + "] is not finite";
      if (i > 0 && v[i] < v[i - 1]) return what + "[" + std::to_string(i) + "] decreases";
    }
    return "";
  };
  if (combined.empty()) return "combined percentiles are empty";
  if (std::string e = check(combined, "combined_pct"); !e.empty()) return e;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (std::string e = check(buckets[b], "bucket_pct[" + std::to_string(b) + "]"); !e.empty()) {
      return e;
    }
  }
  return "";
}

void ReportLatency(const std::vector<double>& ms, Report* report, const char* tail_name) {
  double pct = 0.0;
  std::size_t windows = 0;
  const double tail = WindowedTail(ms, &pct, &windows);
  if (tail_name == nullptr) {
    report->Set("latency_p50_ms", Median(ms), "ms");
  } else {
    report->Set(tail_name, tail, "ms");
  }
  std::printf("# latency over %zu samples: p50 %.3f ms; tail %.3f ms, the median over %zu "
              "windows of each window's p%.2f (10 samples beyond it)\n",
              ms.size(), Median(ms), tail, windows, pct);
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t i) {
  m3::Hasher h;
  h.Str("m3perf-seed").U64(seed).U64(i);
  return h.Finish().lo & 0x7fffffffffffULL;
}

double AbsErrPct(double estimate, double truth) {
  return 100.0 * std::abs(estimate - truth) / truth;
}

// ------------------------------------------------------------- queries

namespace {

const m3::FatTree& ToyTree() {
  static const m3::FatTree ft(m3::FatTreeConfig::Small(2.0));
  return ft;
}

m3::FatTreeConfig FleetTopo() {
  m3::FatTreeConfig cfg = m3::FatTreeConfig::Large(2.0);
  cfg.pods = 2;
  cfg.racks_per_pod = 8;
  cfg.hosts_per_rack = 4;
  return cfg;
}

const m3::FatTree& FleetTree() {
  static const m3::FatTree ft(FleetTopo());
  return ft;
}

std::vector<WireFlow> ToWire(const m3::FatTree& ft, const std::vector<m3::Flow>& flows) {
  std::vector<WireFlow> out;
  out.reserve(flows.size());
  for (const m3::Flow& f : flows) {
    WireFlow wf;
    wf.id = f.id;
    wf.src_host = ft.HostIndexOf(f.src);
    wf.dst_host = ft.HostIndexOf(f.dst);
    wf.size = f.size;
    wf.arrival = f.arrival;
    wf.priority = f.priority;
    out.push_back(wf);
  }
  return out;
}

std::vector<m3::Flow> WebServerMatrixB(const m3::FatTree& ft, int num_flows, std::uint64_t seed) {
  const auto tm = m3::TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = m3::MakeWebServer();
  m3::WorkloadSpec spec;
  spec.num_flows = num_flows;
  spec.seed = seed;
  return m3::GenerateWorkload(ft, tm, *sizes, spec).flows;
}

struct MixSpec {
  const char* name;
  const char* tm;
  const char* sizes;
  double oversub;
  double max_load;
  double sigma;
};

// The paper's Table 1 mixes (bench/common.h Table1Mixes).
constexpr MixSpec kMixes[] = {
    {"Mix 1", "A", "CacheFollower", 4.0, 0.42, 1.5},
    {"Mix 2", "B", "WebServer", 1.0, 0.28, 1.5},
    {"Mix 3", "C", "WebServer", 2.0, 0.74, 1.5},
};

}  // namespace

std::vector<PaperScenario> PaperScenarios() {
  std::vector<PaperScenario> out;
  for (const MixSpec& m : kMixes) {
    PaperScenario s;
    s.name = m.name;
    s.oversub = m.oversub;
    s.ft = std::make_unique<m3::FatTree>(m3::FatTreeConfig::Small(m.oversub));
    const auto tm = m3::TrafficMatrix::ByName(m.tm, s.ft->num_racks(),
                                              s.ft->config().racks_per_pod);
    const auto sizes = m3::MakeProductionDist(m.sizes);
    m3::WorkloadSpec spec;
    spec.num_flows = 20000;
    spec.max_load = m.max_load;
    spec.burstiness_sigma = m.sigma;
    spec.seed = 1;
    s.flows = m3::GenerateWorkload(*s.ft, tm, *sizes, spec).flows;
    out.push_back(std::move(s));
  }
  return out;
}

QueryRequest ToyQuery(std::uint64_t workload_seed) {
  QueryRequest req;
  req.oversub = 2.0;
  req.num_paths = 4;
  req.seed = workload_seed;
  req.flows = ToWire(ToyTree(), WebServerMatrixB(ToyTree(), 400, workload_seed));
  return req;
}

QueryRequest FleetQuery(std::uint64_t workload_seed) {
  const m3::FatTree& ft = FleetTree();
  QueryRequest req;
  req.oversub = 2.0;
  const m3::FatTreeConfig& tc = ft.config();
  req.topo.pods = tc.pods;
  req.topo.racks_per_pod = tc.racks_per_pod;
  req.topo.hosts_per_rack = tc.hosts_per_rack;
  req.topo.fabric_per_pod = tc.fabric_per_pod;
  req.topo.spines_per_plane = tc.spines_per_plane;
  req.num_paths = 24;
  req.seed = workload_seed;
  req.flows = ToWire(ft, WebServerMatrixB(ft, 1200, workload_seed));
  return req;
}

std::vector<QueryRequest> ToyReferenceQueries() {
  std::vector<QueryRequest> out;
  for (std::uint64_t i = 0; i < 8; ++i) {
    out.push_back(ToyQuery(900001 + i));
    out.back().seed = 1;
  }
  return out;
}

std::vector<QueryRequest> FleetReferenceQueries() {
  std::vector<QueryRequest> out;
  for (std::uint64_t i = 0; i < 4; ++i) {
    out.push_back(FleetQuery(900101 + i));
    out.back().seed = 1;
  }
  return out;
}

// ------------------------------------------------- reference artefacts

namespace {

// Training inputs of the reference checkpoint: the default model config
// trained like bench/common.h's quick model, with fixed seeds. The active
// kernel is part of the key because training is bitwise deterministic per
// kernel implementation, not across them.
std::string ModelKey() {
  const m3::DatasetOptions d;
  const m3::TrainOptions t;
  m3::Hasher h;
  h.Str("m3perf-model-v1").I32(150).I32(400).U64(d.seed).I32(30).U64(t.seed);
  h.Str(m3::ml::kernels::KernelImplName(m3::ml::kernels::GetKernelImpl()));
  return h.Finish().ToHex().substr(0, 16);
}

std::string TruthPath(const std::string& refs_dir) {
  // Packet-simulation truth depends only on the scenarios, not the model.
  return refs_dir + "/truth-v1.txt";
}

bool WriteFileAtomically(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  if (std::fclose(f) != 0 || !ok) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

double TruthP99(const m3::FatTree& ft, const std::vector<m3::Flow>& flows,
                const m3::NetConfig& cfg) {
  const auto results = m3::RunPacketSim(ft.topo(), flows, cfg);
  return m3::SummarizeGroundTruth(results).CombinedP99();
}

double QueryTruthP99(const QueryRequest& req) {
  m3::serve::TopoMemo memo;
  auto ft = m3::serve::TopoForRequest(req, &memo);
  std::vector<m3::Flow> flows;
  if (!ft.ok() || !m3::serve::BuildRequestFlows(req, **ft, &flows).ok()) return -1.0;
  return TruthP99(**ft, flows, req.cfg);
}

}  // namespace

std::string ModelPath(const std::string& refs_dir) {
  return refs_dir + "/model-" + ModelKey() + ".ckpt";
}

std::map<std::string, double> LoadTruth(const std::string& refs_dir) {
  std::map<std::string, double> out;
  std::ifstream in(TruthPath(refs_dir));
  std::string id;
  double v = 0.0;
  while (in >> id >> v) out[id] = v;
  return out;
}

int BuildReferences(const std::string& refs_dir) {
  ::mkdir(refs_dir.c_str(), 0755);
  struct stat st{};
  const std::string model = ModelPath(refs_dir);
  if (::stat(model.c_str(), &st) != 0) {
    const auto t0 = Clock::now();
    m3::DatasetOptions dopts;
    dopts.num_scenarios = 150;
    dopts.num_fg = 400;
    const auto samples = m3::MakeSyntheticDataset(dopts);
    m3::M3Model m;
    m3::TrainOptions topts;
    topts.epochs = 30;
    m3::TrainModel(m, samples, topts);
    m.Save(model);
    std::printf("# refs: trained %s in %.1f s\n", model.c_str(), SecondsSince(t0));
  }
  const std::string truth = TruthPath(refs_dir);
  if (::stat(truth.c_str(), &st) != 0) {
    const auto t0 = Clock::now();
    std::ostringstream out;
    out.precision(17);
    const auto paper = PaperScenarios();
    for (std::size_t i = 0; i < paper.size(); ++i) {
      out << "paper/" << i << " " << TruthP99(*paper[i].ft, paper[i].flows, paper[i].cfg) << "\n";
    }
    const auto toy = ToyReferenceQueries();
    for (std::size_t i = 0; i < toy.size(); ++i) {
      out << "toy/" << i << " " << QueryTruthP99(toy[i]) << "\n";
    }
    const auto fleet = FleetReferenceQueries();
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      out << "fleet/" << i << " " << QueryTruthP99(fleet[i]) << "\n";
    }
    if (!WriteFileAtomically(truth, out.str())) {
      std::fprintf(stderr, "m3perf: cannot write %s\n", truth.c_str());
      return 1;
    }
    std::printf("# refs: packet-simulation truth in %.1f s\n", SecondsSince(t0));
  }
  for (const auto& [id, v] : LoadTruth(refs_dir)) {
    if (!(v > 0.0)) {
      std::fprintf(stderr, "m3perf: bad truth for %s\n", id.c_str());
      return 1;
    }
  }
  return 0;
}

// -------------------------------------------------------- shard fleet

namespace {

// Sends one Ping over a fresh connection; true when the peer is ready.
bool PingReady(const std::string& socket_path, double timeout_seconds) {
  auto fd = m3::ConnectUnixTimeout(socket_path, timeout_seconds);
  if (!fd.ok()) return false;
  if (!m3::SetRecvTimeout(*fd, timeout_seconds).ok()) return false;
  if (!m3::SendFrame(*fd, static_cast<std::uint32_t>(m3::serve::MsgType::kPingRequest),
                     m3::serve::EncodePingRequest())
           .ok()) {
    return false;
  }
  auto frame = m3::RecvFrame(*fd);
  if (!frame.ok()) return false;
  auto resp = m3::serve::DecodePingResponse(frame->payload);
  return resp.ok() && resp->ready;
}

}  // namespace

ShardFleet::~ShardFleet() { Stop(); }

bool ShardFleet::Start(const RunArgs& args, const std::string& model_path, int n,
                       std::string* err) {
  static std::atomic<int> generation{0};
  const int gen = generation.fetch_add(1);
  for (int i = 0; i < n; ++i) {
    // Relative to the checkout: unix socket paths are limited to 108 bytes.
    const std::string sock = args.work_dir + "/s" + std::to_string(gen) + "_" +
                             std::to_string(i) + ".sock";
    ::unlink(sock.c_str());
    std::vector<std::string> argv_s = {args.self_path, "shard", "--model", model_path,
                                       "--socket", sock};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
      *err = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (pid == 0) {
      // Only async-signal-safe calls before exec: the parent has threads.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      execv(argv[0], argv.data());
      _exit(127);
    }
    pids_.push_back(pid);
    socks_.push_back(sock);
  }
  for (std::size_t i = 0; i < socks_.size(); ++i) {
    const auto t0 = Clock::now();
    while (!PingReady(socks_[i], 1.0)) {
      int status = 0;
      if (waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
        pids_[i] = -1;
        *err = "shard " + std::to_string(i) + " exited during start-up";
        return false;
      }
      if (SecondsSince(t0) > 30.0) {
        *err = "shard " + std::to_string(i) + " not ready after 30 s";
        return false;
      }
      usleep(2000);
    }
  }
  return true;
}

void ShardFleet::Stop() {
  for (pid_t pid : pids_) {
    if (pid > 0) kill(pid, SIGTERM);
  }
  const auto t0 = Clock::now();
  for (pid_t& pid : pids_) {
    while (pid > 0) {
      if (waitpid(pid, nullptr, WNOHANG) == pid) {
        pid = -1;
      } else if (SecondsSince(t0) > 10.0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
        pid = -1;
      } else {
        usleep(1000);
      }
    }
  }
  for (const std::string& s : socks_) ::unlink(s.c_str());
  pids_.clear();
  socks_.clear();
}

namespace {
volatile sig_atomic_t g_shard_stop = 0;
void OnShardSignal(int) { g_shard_stop = 1; }
}  // namespace

int ShardMain(const std::string& model_path, const std::string& socket_path) {
  signal(SIGTERM, OnShardSignal);
  signal(SIGINT, SIG_IGN);
  m3::serve::ServiceOptions so;
  so.worker_processes = 1;
  so.num_workers = 1;
  m3::serve::EstimationService service(so);
  if (!service.ReloadModel(model_path).ok()) return 1;
  if (!service.Start().ok()) return 1;
  m3::serve::SocketServer server(service);
  if (!server.Start(socket_path).ok()) return 1;
  while (!g_shard_stop) usleep(5000);
  server.Stop();
  service.Stop();
  return 0;
}

}  // namespace m3perf
