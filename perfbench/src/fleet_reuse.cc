// fleet_reuse: an in-process Router in front of two shard daemons (each an
// EstimationService with one worker process behind a SocketServer), at the
// micro_distributed shape (1200 flows, 24 paths, 64-host large fat tree).
// Two client threads send queries in a closed loop; about one query in four
// repeats one of the last few distinct queries, so the router's path cache
// is read beside the misses while the median stays on the miss path.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "layers.h"
#include "serve/exec.h"
#include "util/rng.h"
#include "workloads.h"

namespace m3perf {
namespace {

using m3::serve::QueryRequest;
using m3::serve::QueryResponse;

constexpr int kClients = 2;
constexpr int kSetupRepeats = 9;
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kRecent = 4;  // repeats pick among the last few distinct
constexpr std::size_t kReferenceChecks = 32;

struct Answer {
  double latency_ms = 0.0;
  double gap_ms = 0.0;  // generator gap before this query was sent
  m3::StatusCode code = m3::StatusCode::kOk;
  std::string bad_pct;
  m3::Hash128 digest;
};

// Builds queries in send order on its own thread, a bounded distance ahead
// of the clients, and counts the CPU time it spends doing so.
class Producer {
 public:
  Producer(const std::vector<std::size_t>& order,
           std::function<QueryRequest(std::size_t)> make)
      : order_(order), make_(std::move(make)), thread_([this] { Loop(); }) {}
  ~Producer() { Stop(); }
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// The next query and its position in the order (order.size() when done).
  QueryRequest Next(std::size_t* k) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !ready_.empty() || taken_ + ready_.size() >= order_.size(); });
    if (ready_.empty()) {
      *k = order_.size();
      return {};
    }
    QueryRequest q = std::move(ready_.front());
    ready_.pop_front();
    *k = taken_++;
    cv_.notify_all();
    return q;
  }

  /// Stops and joins the producer; returns how many queries were taken.
  std::size_t Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    return taken_;
  }
  double cpu_seconds() const { return cpu_seconds_; }

 private:
  static constexpr std::size_t kAhead = 32;

  void Loop() {
    for (std::size_t k = 0; k < order_.size(); ++k) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || ready_.size() < kAhead; });
        if (stop_) break;
      }
      const double c0 = ThreadCpuSeconds();
      QueryRequest q = make_(order_[k]);
      const double used = ThreadCpuSeconds() - c0;
      std::lock_guard<std::mutex> lock(mu_);
      cpu_seconds_ += used;
      ready_.push_back(std::move(q));
      cv_.notify_all();
    }
  }

  const std::vector<std::size_t>& order_;
  const std::function<QueryRequest(std::size_t)> make_;
  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::deque<QueryRequest> ready_;
  std::size_t taken_ = 0;
  bool stop_ = false;
  double cpu_seconds_ = 0.0;
  std::thread thread_;  // last: started after the members it uses
};

}  // namespace

RunResult RunFleetReuse(const RunArgs& args, Tracer& tracer) {
  RunResult res;
  const std::string model_path = ModelPath(args.refs_dir);
  const std::map<std::string, double> truth = LoadTruth(args.refs_dir);

  // Inputs: the order distinct queries are sent in, where about one in four
  // repeats a recent distinct one. Queries are built from their seeds by a
  // producer thread running ahead of the clients.
  constexpr std::size_t kMaxQueries = 1 << 16;
  std::vector<std::size_t> order;
  {
    m3::Rng rng(DeriveSeed(args.seed, 1u << 30));
    std::size_t fresh = 0;
    while (order.size() < kMaxQueries) {
      if (fresh > 0 && rng.NextDouble() < kRepeatShare) {
        const std::size_t back = std::min<std::size_t>(fresh, kRecent);
        const double pick = rng.NextDouble() * static_cast<double>(back);
        order.push_back(fresh - 1 - static_cast<std::size_t>(pick));
      } else {
        order.push_back(fresh++);
      }
    }
  }
  const auto query_of = [&](std::size_t d) { return FleetQuery(DeriveSeed(args.seed, d)); };

  m3::serve::ModelRegistry registry;
  if (m3::Status st = registry.Reload(model_path); !st.ok()) {
    res.gate_failures.push_back("model load: " + st.ToString());
    return res;
  }
  const auto snap = registry.Current();

  // Set-up, several times: shard spawn (each loads the model and forks its
  // worker) and router start, until every shard answers a Ping.
  std::vector<double> setup_s;
  Fleet fleet;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    StopFleet(&fleet);
    std::string err;
    const double ms = StartFleet(args, model_path, &fleet, &err);
    if (ms < 0) {
      res.gate_failures.push_back(err);
      StopFleet(&fleet);
      return res;
    }
    setup_s.push_back(ms / 1e3);
  }

  // The closed loop: clients take the next query in `order` until time is up.
  const double measure_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Answer> answers(order.size());
  Producer producer(order, query_of);
  const double cpu_self0 = CpuSecondsSelf();
  const double cpu_kids0 = CpuSecondsChildren();
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Clock::time_point last_done = Clock::now();
      for (;;) {
        if (SecondsSince(t0) >= measure_seconds) return;
        std::size_t k = 0;
        const QueryRequest req = producer.Next(&k);
        if (k >= order.size()) return;
        Answer& a = answers[k];
        const std::uint64_t id = args.trace ? tracer.NewRequest() : 0;
        const auto q0 = Clock::now();
        a.gap_ms = MsBetween(last_done, q0);
        QueryResponse resp;
        {
          std::optional<ScopedSpan> span;
          if (args.trace) span.emplace(tracer, "router.query", id);
          resp = fleet.router->Query(req);
        }
        last_done = Clock::now();
        a.latency_ms = MsBetween(q0, last_done);
        a.code = resp.status.code();
        a.bad_pct = CheckPercentiles(resp.combined_pct, resp.bucket_pct);
        a.digest = AnswerDigest(resp);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall = SecondsSince(t0);
  const std::size_t sent = producer.Stop();
  // The producer's CPU time is input generation, not the system under test.
  const double cpu_self = CpuSecondsSelf() - cpu_self0 - producer.cpu_seconds();
  if (sent == order.size()) {
    res.gate_failures.push_back("ran out of queries; raise kMaxQueries");
  }

  std::vector<double> latency_ms, gaps_ms;
  for (std::size_t k = 0; k < sent; ++k) {
    const Answer& a = answers[k];
    latency_ms.push_back(a.latency_ms);
    if (k >= static_cast<std::size_t>(kClients)) gaps_ms.push_back(a.gap_ms);
    res.attempted += 1;
    if (!m3::serve::IsAnsweredCode(a.code)) res.failed += 1;
    if (a.code == m3::StatusCode::kDegraded) res.degraded += 1;
    if ((a.code != m3::StatusCode::kOk || !a.bad_pct.empty()) && res.gate_failures.size() < 8) {
      res.gate_failures.push_back("query " + std::to_string(k) + ": code " +
                                  std::to_string(static_cast<int>(a.code)) + " " + a.bad_pct);
    }
  }

  // Gate: repeats equal their first answer, and sampled distinct answers
  // equal a single-host in-process reference bitwise.
  std::map<std::size_t, const Answer*> first;
  std::size_t repeats = 0;
  for (std::size_t k = 0; k < sent; ++k) {
    const Answer*& f = first[order[k]];
    if (f == nullptr) {  // first sight of this distinct query
      f = &answers[k];
    } else {
      ++repeats;
      if (f->digest != answers[k].digest && res.gate_failures.size() < 8) {
        res.gate_failures.push_back("repeat " + std::to_string(k) +
                                    " differs from its first answer");
      }
    }
  }
  std::size_t fresh_sent = 0;
  for (std::size_t k = 0; k < sent; ++k) fresh_sent = std::max(fresh_sent, order[k] + 1);
  {
    m3::serve::TopoMemo memo;
    m3::serve::ExecContext ctx;
    ctx.topos = &memo;
    for (std::size_t j = 0; j < kReferenceChecks && j < fresh_sent; ++j) {
      const std::size_t d = j * fresh_sent / kReferenceChecks;
      if (first[d] == nullptr) continue;
      const QueryResponse ref = m3::serve::ExecuteQueryOnSnapshot(query_of(d), *snap, ctx);
      if (AnswerDigest(ref) != first[d]->digest && res.gate_failures.size() < 8) {
        res.gate_failures.push_back("distinct query " + std::to_string(d) +
                                    ": routed answer differs from the single-host reference");
      }
    }
  }
  std::printf("# fleet_reuse: %zu queries, %zu repeats (%.1f%%), %d clients\n", sent, repeats,
              100.0 * static_cast<double>(repeats) /
                  static_cast<double>(std::max<std::size_t>(sent, 1)),
              kClients);

  if (args.trace) {
    Report& r = res.report;
    r.Set("setup.fleet_ready_ms", setup_s.back() * 1e3, "ms");
    ReportClosedLoopGenerator(gaps_ms, &r);
    ReportLatency(latency_ms, &r, "loadgen.latency_tail_ms");
    // A closed loop's sustained rate is its completion rate.
    r.Set("loadgen.max_rate_qps", static_cast<double>(sent) / wall, "1/s");
    // Router and shard layers on fresh queries (cold for every cache).
    std::vector<QueryRequest> fresh;
    for (std::size_t i = 0; i < 12; ++i) {
      fresh.push_back(FleetQuery(DeriveSeed(args.seed, (1u << 20) + i)));
    }
    ProbeFleet(fleet, *snap, {fresh.begin(), fresh.begin() + 4}, tracer, &r, &res.gate_failures);
    StopFleet(&fleet);
    ProbeServiceLayers(model_path, {fresh.begin() + 4, fresh.end()}, tracer, &r,
                       &res.gate_failures);
    std::vector<QueryRequest> distinct;
    for (std::size_t i = 0; i < 8; ++i) distinct.push_back(query_of(i));
    ProfileQueries(tracer, distinct, snap->model, args.seconds / 2, &r, &res.gate_failures);
    return res;
  }

  // Accuracy on the fixed reference scenarios, through the router.
  std::vector<double> err;
  const std::vector<QueryRequest> refs = FleetReferenceQueries();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const QueryResponse resp = fleet.router->Query(refs[i]);
    const auto it = truth.find("fleet/" + std::to_string(i));
    if (!resp.status.ok() || it == truth.end()) {
      res.gate_failures.push_back("fleet reference " + std::to_string(i) + ": " +
                                  resp.status.ToString());
      continue;
    }
    err.push_back(AbsErrPct(resp.combined_pct[98], it->second));
  }
  StopFleet(&fleet);  // reaps the shards (and through them their workers)
  const double cpu = cpu_self + CpuSecondsChildren() - cpu_kids0;

  Report& r = res.report;
  r.Set("setup_s", Median(setup_s), "s");
  ReportLatency(latency_ms, &r);
  r.Set("queries_per_s", static_cast<double>(sent) / wall, "1/s");
  r.Set("cpu_ms_per_query", 1e3 * cpu / static_cast<double>(sent), "ms");
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  r.Set("p99_err_pct", Median(err), "%");
  return res;
}

}  // namespace m3perf
