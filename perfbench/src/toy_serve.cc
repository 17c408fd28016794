// toy_serve: the toy serving shape (400 flows, 4 paths) submitted by one
// generator thread into an in-process EstimationService running m3d's
// default two supervised worker processes: in an open loop at fixed rates
// from light load to past saturation, and in a closed loop that keeps the
// service saturated to measure its capacity. Every query is distinct, so
// the query and path caches are written and never read.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "layers.h"
#include "serve/exec.h"
#include "workloads.h"

namespace m3perf {
namespace {

using m3::serve::QueryRequest;
using m3::serve::QueryResponse;

// Offered rates (queries per second), light load to past the service's
// capacity. Each round climbs the ladder and then runs the capacity step;
// there are kRounds rounds, so every rate is sampled in short steps spread
// over the whole run and a passing disturbance on a shared host touches only
// some of them.
constexpr double kRates[] = {100, 200, 400, 700, 1000, 1300, 1600, 2000};
constexpr int kRounds = 5;
// Share of the measured time planned for the ladder's steps. A round's
// capacity step runs until the round's share of the time is up, so time a
// cut step saved still gets measured.
constexpr double kLadderShare = 0.7;
// Queries kept outstanding in a capacity step: both workers busy with two
// more queued behind each, far below the queue's capacity and the brownout
// sojourn, so nothing is shed or degraded.
constexpr std::size_t kInFlight = 6;
// A rate step stops sending once this many queries are unanswered: the rate
// is past capacity. It keeps the backlog below the queue's capacity (64), so
// no query is rejected.
constexpr long long kMaxBacklog = 32;
// Room for capacity-step queries, per second of a round.
constexpr double kMaxCapacityQps = 3000;
// latency_p50_ms and loadgen.latency_tail_ms are taken at this rate. Below it,
// idle workers' wake-up dominates; above it, a slower host turns into
// queueing. Both swing from run to run on a shared host.
constexpr double kNominalRate = 200;
// The tail limit that defines max_rate_qps.
constexpr double kTailLimitMs = 20.0;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kReferenceChecks = 64;

struct Sent {
  Clock::time_point due, sent, done;
  bool admitted = false;
  m3::StatusCode code = m3::StatusCode::kOk;
  std::string bad_pct;  // CheckPercentiles result
  m3::Hash128 digest;
};

// The sender: one thread, either on a fixed schedule (open loop) or keeping
// a fixed number of queries outstanding (capacity step), answers collected
// by the service's done callbacks. Each query is built from its seed just
// before it is sent; that CPU time is counted apart.
class OpenLoop {
 public:
  OpenLoop(m3::serve::EstimationService& svc, std::function<QueryRequest(std::size_t)> make,
           std::size_t capacity)
      : svc_(svc), make_(std::move(make)), sent_(capacity) {}

  struct Step {
    double rate = 0.0;  // 0 for a capacity step
    std::size_t begin = 0, end = 0;
    long long backlog = 0;  // sent but unanswered when the last one was sent
    bool cut = false;       // stopped early at kMaxBacklog
    double wall_s = 0.0;    // first due time to last answer
  };

  // Sends up to n queries from `begin` at `rate`, stopping early once
  // kMaxBacklog are unanswered, then waits for every answer.
  Step Run(double rate, std::size_t begin, std::size_t n, Tracer* tracer) {
    Step st{rate, begin, begin};
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t j = 0; j < n; ++j) {
      const auto due = start + std::chrono::nanoseconds(
                                   static_cast<long long>(1e9 * static_cast<double>(j) / rate));
      Send(st.end++, due, tracer);
      std::lock_guard<std::mutex> lock(mu_);
      st.backlog = static_cast<long long>(st.end) - answered_;
      if (st.backlog >= kMaxBacklog) {
        st.cut = true;
        break;
      }
    }
    st.wall_s = Drain(st.end, start);
    return st;
  }

  // Keeps kInFlight queries outstanding from `begin` until `until` (at most
  // n queries), then waits for every answer.
  Step Saturate(std::size_t begin, std::size_t n, Clock::time_point until) {
    Step st{0.0, begin, begin};
    const auto start = Clock::now();
    while (st.end < begin + n && Clock::now() < until) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return static_cast<long long>(st.end) - answered_ < static_cast<long long>(kInFlight);
        });
      }
      Send(st.end++, Clock::now(), nullptr);
    }
    st.wall_s = Drain(st.end, start);
    return st;
  }

  // Valid once Run() or Saturate() returned: answers are published under mu_.
  const Sent& at(std::size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_[i];
  }
  // CPU time the sender spent building queries (input generation).
  double make_cpu_seconds() const { return make_cpu_seconds_; }

 private:
  // Builds query i and submits it at `due`. A query the service does not
  // admit counts as answered at once, with its admission status.
  void Send(std::size_t i, Clock::time_point due, Tracer* tracer) {
    Sent& s = sent_[i];
    s.due = due;
    const double c0 = ThreadCpuSeconds();
    QueryRequest query = make_(i);
    make_cpu_seconds_ += ThreadCpuSeconds() - c0;
    std::this_thread::sleep_until(s.due);
    s.sent = Clock::now();
    const std::uint64_t id = tracer != nullptr ? tracer->NewRequest() : 0;
    m3::Status admitted;
    {
      std::optional<ScopedSpan> span;
      if (tracer != nullptr) span.emplace(*tracer, "serve.submit", id);
      admitted = svc_.Submit(std::move(query), [this, i, id, tracer](QueryResponse r) {
        Sent& d = sent_[i];
        d.done = Clock::now();
        d.code = r.status.code();
        d.bad_pct = CheckPercentiles(r.combined_pct, r.bucket_pct);
        d.digest = AnswerDigest(r);
        if (tracer != nullptr) tracer->Add("serve.response", d.sent, d.done, id);
        std::lock_guard<std::mutex> lock(mu_);
        ++answered_;
        cv_.notify_all();
      });
    }
    s.admitted = admitted.ok();
    if (!s.admitted) {
      s.done = s.sent;
      s.code = admitted.code();
      std::lock_guard<std::mutex> lock(mu_);
      ++answered_;
    }
  }

  // Waits for the answers to every query before `end`; returns the seconds
  // since `start`.
  double Drain(std::size_t end, Clock::time_point start) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(60),
                 [&] { return answered_ >= static_cast<long long>(end); });
    return SecondsSince(start);
  }

  m3::serve::EstimationService& svc_;
  const std::function<QueryRequest(std::size_t)> make_;
  std::vector<Sent> sent_;
  double make_cpu_seconds_ = 0.0;  // sender thread only
  mutable std::mutex mu_;  // guards answered_; publishes sent_ entries
  std::condition_variable cv_;
  long long answered_ = 0;
};

// One rate's figures over all of its steps.
struct RateStats {
  double rate = 0.0;
  double p50 = 0, tail = 0, tail_pct = 0, late_p99 = 0;
  std::size_t tail_windows = 0;
  long long sent = 0, failed = 0, degraded = 0;
  // Over the rate's steps: the median and highest backlog at the last send,
  // and how many steps stopped early at kMaxBacklog.
  long long backlog = 0, max_backlog = 0;
  int steps = 0, cut_steps = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms, late_ms;  // in time order
};

RateStats Summarize(const OpenLoop& loop, const std::vector<OpenLoop::Step>& steps, double rate) {
  RateStats s;
  s.rate = rate;
  std::vector<double> backlogs;
  for (const OpenLoop::Step& st : steps) {
    if (st.rate != rate) continue;
    backlogs.push_back(static_cast<double>(st.backlog));
    s.max_backlog = std::max(s.max_backlog, st.backlog);
    s.steps += 1;
    s.cut_steps += st.cut ? 1 : 0;
    s.wall_s += st.wall_s;
    for (std::size_t i = st.begin; i < st.end; ++i) {
      const Sent& q = loop.at(i);
      // Timed from when the query was due, so a stalled sender shows.
      s.latency_ms.push_back(MsBetween(q.due, q.done));
      s.late_ms.push_back(MsBetween(q.due, q.sent));
      ++s.sent;
      if (!q.admitted || !m3::serve::IsAnsweredCode(q.code)) ++s.failed;
      if (q.code == m3::StatusCode::kDegraded) ++s.degraded;
    }
  }
  s.backlog = static_cast<long long>(Median(backlogs));
  s.p50 = Median(s.latency_ms);
  s.tail = WindowedTail(s.latency_ms, &s.tail_pct, &s.tail_windows);
  s.late_p99 = Percentile(s.late_ms, 99);
  return s;
}

}  // namespace

RunResult RunToyServe(const RunArgs& args, Tracer& tracer) {
  RunResult res;
  const std::string model_path = ModelPath(args.refs_dir);
  const std::map<std::string, double> truth = LoadTruth(args.refs_dir);
  // A traced run spends half its time on the load and half on probes.
  const double load_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const double round_seconds = load_seconds / kRounds;
  const double step_seconds = round_seconds * kLadderShare / static_cast<double>(std::size(kRates));
  const std::size_t capacity_n = static_cast<std::size_t>(kMaxCapacityQps * round_seconds);

  // Inputs: every query distinct, built from its index; the ones after the
  // load's feed the probes.
  const auto query_of = [&](std::size_t i) { return ToyQuery(DeriveSeed(args.seed, i)); };
  std::size_t total = kRounds * capacity_n;
  for (double r : kRates) total += kRounds * static_cast<std::size_t>(r * step_seconds);

  // Set-up, several times: model load plus service start with worker forks.
  std::vector<double> setup_s;
  std::unique_ptr<m3::serve::EstimationService> svc;
  double load_ms = 0.0, start_ms = 0.0;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    if (svc != nullptr) svc->Stop();
    std::string err;
    svc = StartService(model_path, &load_ms, &start_ms, &err);
    if (svc == nullptr) {
      res.gate_failures.push_back(err);
      return res;
    }
    setup_s.push_back((load_ms + start_ms) / 1e3);
  }
  const auto snap = svc->registry().Current();

  // Accuracy on the fixed reference scenarios, through the service.
  std::vector<double> err;
  if (!args.trace) {
    const std::vector<QueryRequest> refs = ToyReferenceQueries();
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const QueryResponse resp = svc->Query(refs[i]);
      const auto it = truth.find("toy/" + std::to_string(i));
      if (!resp.status.ok() || it == truth.end()) {
        res.gate_failures.push_back("toy reference " + std::to_string(i) + ": " +
                                    resp.status.ToString());
        continue;
      }
      err.push_back(AbsErrPct(resp.combined_pct[98], it->second));
    }
  }

  // Each round: the open loop one rate after another, then a capacity step.
  const double cpu_self0 = CpuSecondsSelf();
  const double cpu_kids0 = CpuSecondsChildren();
  OpenLoop loop(*svc, query_of, total);
  std::vector<OpenLoop::Step> steps;
  std::size_t next = 0;
  const auto load_start = Clock::now();
  const auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  for (int round = 0; round < kRounds; ++round) {
    for (double rate : kRates) {
      const std::size_t n = static_cast<std::size_t>(rate * step_seconds);
      steps.push_back(loop.Run(rate, next, n, args.trace ? &tracer : nullptr));
      next = steps.back().end;
    }
    // At least the planned share, should the ladder have overrun its own.
    const auto until = std::max(after(load_start, round_seconds * (round + 1)),
                                after(Clock::now(), round_seconds * (1.0 - kLadderShare)));
    steps.push_back(loop.Saturate(next, capacity_n, until));
    next = steps.back().end;
  }
  const double cpu_self = CpuSecondsSelf() - cpu_self0 - loop.make_cpu_seconds();

  double max_rate = 0.0;
  std::vector<RateStats> stats;
  for (double rate : kRates) {
    stats.push_back(Summarize(loop, steps, rate));
    const RateStats& s = stats.back();
    // Like the tail, the backlog test takes the median over steps, so one
    // stall on a shared host does not disqualify a rate.
    const bool meets = s.tail >= 0 && s.tail <= kTailLimitMs && s.failed == 0 &&
                       2 * s.cut_steps < s.steps &&
                       static_cast<double>(s.backlog) <= std::max(2.0, rate * kTailLimitMs / 1e3);
    if (meets) max_rate = std::max(max_rate, rate);
    std::printf("# toy_serve %.0f qps: p50 %.3f ms, tail %.3f ms (median of %zu windows' p%.2f; "
                "%zu samples), backlog median %lld max %lld, %d of %d steps cut, failed %lld, "
                "degraded %lld, late p99 %.3f ms%s\n",
                rate, s.p50, s.tail, s.tail_windows, s.tail_pct, s.latency_ms.size(), s.backlog,
                s.max_backlog, s.cut_steps, s.steps, s.failed, s.degraded, s.late_p99,
                meets ? "" : "  [over the limit]");
    res.attempted += s.sent;
    res.failed += s.failed;
    res.degraded += s.degraded;
  }
  std::printf("# toy_serve max_rate_qps %.0f (tail limit %.0f ms)\n", max_rate, kTailLimitMs);
  const RateStats cap = Summarize(loop, steps, 0.0);
  const double capacity_qps = static_cast<double>(cap.sent - cap.failed) / cap.wall_s;
  std::printf("# toy_serve capacity: %lld queries in %.2f s with %zu in flight, %.1f qps, "
              "p50 %.3f ms, failed %lld, degraded %lld\n",
              cap.sent, cap.wall_s, kInFlight, capacity_qps, cap.p50, cap.failed, cap.degraded);
  res.attempted += cap.sent;
  res.failed += cap.failed;
  res.degraded += cap.degraded;

  // Gate: below saturation every fault-free answer is kOk with sane
  // percentiles, and bitwise equal to an in-process reference.
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (steps[k].rate > max_rate) continue;
    for (std::size_t i = steps[k].begin; i < steps[k].end; ++i) {
      const Sent& q = loop.at(i);
      if (q.code != m3::StatusCode::kOk && res.gate_failures.size() < 8) {
        res.gate_failures.push_back("query " + std::to_string(i) + " at " +
                                    std::to_string(steps[k].rate) + " qps answered code " +
                                    std::to_string(static_cast<int>(q.code)));
      }
      if (!q.bad_pct.empty() && res.gate_failures.size() < 8) {
        res.gate_failures.push_back("query " + std::to_string(i) + ": " + q.bad_pct);
      }
    }
  }
  {
    m3::serve::TopoMemo memo;
    m3::serve::ExecContext ctx;
    ctx.topos = &memo;
    for (std::size_t k = 0; k < kReferenceChecks && k < next; ++k) {
      const std::size_t i = k * next / kReferenceChecks;
      const Sent& q = loop.at(i);
      if (q.code != m3::StatusCode::kOk) continue;
      if (AnswerDigest(m3::serve::ExecuteQueryOnSnapshot(query_of(i), *snap, ctx)) != q.digest &&
          res.gate_failures.size() < 8) {
        res.gate_failures.push_back("query " + std::to_string(i) +
                                    ": served answer differs from the in-process reference");
      }
    }
  }
  const std::size_t nominal = static_cast<std::size_t>(
      std::find(std::begin(kRates), std::end(kRates), kNominalRate) - std::begin(kRates));

  if (args.trace) {
    Report& r = res.report;
    r.Set("setup.model_load_ms", load_ms, "ms");
    r.Set("setup.service_start_ms", start_ms, "ms");
    r.Set("loadgen.max_rate_qps", max_rate, "1/s");
    r.Set("loadgen.late_p99_ms", stats[nominal].late_p99, "ms");
    r.Set("loadgen.backlog", static_cast<double>(stats[nominal].backlog), "count");
    ReportLatency(stats[nominal].latency_ms, &r, "loadgen.latency_tail_ms");
    // Serving layers at the nominal rate, under load.
    std::vector<double> response_ms;
    for (const OpenLoop::Step& st : steps) {
      if (st.rate != kNominalRate) continue;
      for (std::size_t i = st.begin; i < st.end; ++i) {
        const Sent& q = loop.at(i);
        response_ms.push_back(MsBetween(q.sent, q.done));
      }
    }
    r.Set("serve.submit_us", tracer.MedianSelfMs("serve.submit") * 1e3, "us");
    r.Set("serve.response_p50_ms", Percentile(response_ms, 50), "ms");
    r.Set("serve.response_p99_ms", Percentile(response_ms, 99), "ms");
    std::vector<QueryRequest> probe;
    for (std::size_t i = next; i < next + 16; ++i) probe.push_back(query_of(i));
    ProbeService(*svc, probe, response_ms, tracer, &r);
    std::vector<QueryResponse> resps;
    for (std::size_t i = 0; i < 8; ++i) resps.push_back(svc->Query(probe[i]));
    ProbeWire(probe, resps, tracer, &r);
    ProbeCacheKeys(probe, snap->digest, tracer, &r);
    svc->Stop();
    svc.reset();
    std::vector<QueryRequest> fleet_probe;
    for (std::size_t i = next + 16; i < next + 24; ++i) fleet_probe.push_back(query_of(i));
    ProbeFleetLayers(args, model_path, fleet_probe, tracer, &r, &res.gate_failures);
    std::vector<QueryRequest> queries;
    for (std::size_t i = 0; i < 16; ++i) queries.push_back(query_of(i));
    ProfileQueries(tracer, queries, snap->model, 1.0, &r, &res.gate_failures);
    return res;
  }

  svc->Stop();  // reaps the workers, so their CPU time is counted below
  svc.reset();
  const double cpu = cpu_self + CpuSecondsChildren() - cpu_kids0;
  Report& r = res.report;
  r.Set("setup_s", Median(setup_s), "s");
  std::printf("# latency at the nominal rate of %.0f qps\n", kNominalRate);
  ReportLatency(stats[nominal].latency_ms, &r);
  r.Set("queries_per_s", capacity_qps, "1/s");
  r.Set("cpu_ms_per_query", 1e3 * cpu / static_cast<double>(next), "ms");
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  r.Set("p99_err_pct", Median(err), "%");
  return res;
}

}  // namespace m3perf
