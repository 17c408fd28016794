#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>

#include <unistd.h>

#include "core/dataset.h"
#include "core/net_config.h"
#include "core/validate.h"
#include "serve/exec.h"
#include "serve/shardmap.h"
#include "util/rng.h"
#include "util/socket.h"

namespace m3perf {

using m3::serve::QueryRequest;
using m3::serve::QueryResponse;

namespace {

// The estimator stages whose spans add up to the stage sum.
constexpr const char* kStages[] = {"core.validate",   "pathdecomp.decompose",
                                   "pathdecomp.sample", "pathdecomp.build_scenario",
                                   "flowsim.run",       "core.features",
                                   "ml.forward",        "core.aggregate"};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Repetitions per timing so one timing covers roughly a millisecond.
int InnerFor(std::size_t bytes) {
  const std::size_t n = 400000 / std::max<std::size_t>(bytes, 1);
  return static_cast<int>(std::clamp<std::size_t>(n, 1, 2000));
}

}  // namespace

// ------------------------------------------------------------ estimator

namespace {

// Work counts of the traced estimator replays.
struct EstimatorCounts {
  long long queries = 0;
  long long paths = 0;
  long long scenario_flows = 0;
  long long forward_calls = 0;
};

// Replays RunM3's pipeline for one query, stage by stage, serially, with a
// span around each layer call, under one root span "estimator.query". It
// makes the same calls in the same order as the fault-free pipeline, so
// its answer must be bitwise identical to RunM3's.
m3::NetworkEstimate TracedRunM3(Tracer& tracer, std::uint64_t request, const m3::Topology& topo,
                                const std::vector<m3::Flow>& flows, const m3::NetConfig& cfg,
                                m3::M3Model& model, const m3::M3Options& opts,
                                EstimatorCounts* counts) {
  const ScopedSpan root(tracer, "estimator.query", request);
  m3::NetworkEstimate est;
  {
    const ScopedSpan s(tracer, "core.validate", request);
    if (m3::Status v = m3::ValidateEstimatorInputs(topo, flows, cfg, opts); !v.ok()) {
      est.status = v;
      return est;
    }
  }
  std::optional<m3::PathDecomposition> decomp;
  {
    const ScopedSpan s(tracer, "pathdecomp.decompose", request);
    decomp.emplace(topo, flows);
  }
  std::vector<std::size_t> sample;
  {
    const ScopedSpan s(tracer, "pathdecomp.sample", request);
    m3::Rng rng(opts.seed);
    sample = m3::SamplePaths(*decomp, opts.num_paths, rng);
  }
  est.paths.resize(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    std::optional<m3::PathScenario> sc;
    {
      const ScopedSpan s(tracer, "pathdecomp.build_scenario", request);
      sc.emplace(m3::BuildPathScenario(topo, flows, *decomp, sample[i]));
    }
    {
      const ScopedSpan s(tracer, "core.validate", request);
      if (m3::Status v = m3::ValidatePathScenario(*sc); !v.ok()) {
        est.status = v;
        return est;
      }
    }
    std::vector<m3::FlowResult> fluid;
    {
      const ScopedSpan s(tracer, "flowsim.run", request);
      fluid = m3::RunPathFlowSim(*sc);
    }
    std::optional<m3::ScenarioFeatures> feats;
    std::optional<m3::ml::Tensor> spec, baseline;
    {
      const ScopedSpan s(tracer, "core.features", request);
      feats.emplace(m3::ExtractFeatures(*sc, fluid));
      spec.emplace(m3::EncodeSpec(cfg, m3::ComputePathSpec(*sc, cfg)));
      baseline.emplace(m3::TargetToTensor(feats->flowsim_fg));
    }
    m3::PathEstimate pe;
    int bad_raw = 0;
    {
      const ScopedSpan s(tracer, "ml.forward", request);
      pe.pct = model.Predict(feats->fg_feat, feats->bg_seq, *spec, opts.use_context, &*baseline,
                             &bad_raw);
    }
    if (bad_raw > 0) {
      est.status = m3::Status::DataLoss("non-finite model output");
      return est;
    }
    {
      const ScopedSpan s(tracer, "core.features", request);
      for (std::size_t f = 0; f < sc->flows.size(); ++f) {
        if (sc->is_fg[f]) {
          pe.counts[static_cast<std::size_t>(m3::OutputBucketOf(sc->flows[f].size))] += 1.0;
        }
      }
    }
    est.paths[i] = pe;
    if (counts != nullptr) {
      counts->paths += 1;
      counts->scenario_flows += static_cast<long long>(sc->flows.size());
      counts->forward_calls += 1;
    }
  }
  {
    const ScopedSpan s(tracer, "core.aggregate", request);
    est.degradation.paths_ok = static_cast<int>(sample.size());
    est.degradation.clamped_values = m3::ClampPathEstimates(est.paths);
    est.bucket_pct = m3::AggregateBuckets(est.paths);
    for (const m3::PathEstimate& p : est.paths) {
      for (int b = 0; b < m3::kNumOutputBuckets; ++b) {
        est.total_counts[static_cast<std::size_t>(b)] += p.counts[static_cast<std::size_t>(b)];
      }
    }
    est.combined_pct = m3::CombineBuckets(est.bucket_pct, est.total_counts);
  }
  if (est.degradation.Degraded()) est.status = m3::Status::Degraded(est.degradation.ToString());
  if (counts != nullptr) counts->queries += 1;
  return est;
}

}  // namespace

double ProfileEstimator(Tracer& tracer, const std::vector<EstimatorInput>& inputs,
                        std::size_t round, m3::M3Model& model, double seconds, Report* report,
                        std::vector<double>* latency_ms, std::vector<double>* gaps_ms,
                        std::vector<std::string>* gate_failures) {
  EstimatorCounts counts;
  Clock::time_point last_done{};
  std::vector<double> untraced_ms, traced_ms;
  std::map<std::uint64_t, double> wall_by_request;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k % round != 0 || SecondsSince(t0) < seconds; ++k) {
    const EstimatorInput& in = inputs[k % inputs.size()];
    const auto u0 = Clock::now();
    if (k > 0) gaps_ms->push_back(MsBetween(last_done, u0));
    const m3::NetworkEstimate ref = m3::RunM3(*in.topo, *in.flows, in.cfg, model, in.opts);
    const auto u1 = Clock::now();
    const std::uint64_t req = tracer.NewRequest();
    const m3::NetworkEstimate traced =
        TracedRunM3(tracer, req, *in.topo, *in.flows, in.cfg, model, in.opts, &counts);
    const auto u2 = Clock::now();
    last_done = u2;
    untraced_ms.push_back(MsBetween(u0, u1));
    traced_ms.push_back(MsBetween(u1, u2));
    wall_by_request[req] = untraced_ms.back();
    if (AnswerDigest(ref) != AnswerDigest(traced) && gate_failures->size() < 8) {
      gate_failures->push_back("traced estimator replay differs from RunM3 on input " +
                               std::to_string(k % inputs.size()));
    }
  }

  const auto self = tracer.SelfMs();
  std::map<std::uint64_t, double> stage_sum;
  for (const char* stage : kStages) {
    const auto it = self.find(stage);
    if (it == self.end()) continue;
    for (const auto& [req, ms] : it->second) {
      if (wall_by_request.count(req)) stage_sum[req] += ms;
    }
  }
  std::vector<double> sums, unattributed;
  for (const auto& [req, wall] : wall_by_request) {
    sums.push_back(stage_sum[req]);
    unattributed.push_back(wall - stage_sum[req]);
  }
  const auto stage_ms = [&](const char* name) {
    std::vector<double> v;
    const auto it = self.find(name);
    for (const auto& [req, wall] : wall_by_request) {
      double ms = 0.0;
      if (it != self.end()) {
        const auto jt = it->second.find(req);
        if (jt != it->second.end()) ms = jt->second;
      }
      v.push_back(ms);
    }
    return Median(std::move(v));
  };
  double flowsim_total_ms = 0.0;
  if (const auto it = self.find("flowsim.run"); it != self.end()) {
    for (const auto& [req, ms] : it->second) {
      if (wall_by_request.count(req)) flowsim_total_ms += ms;
    }
  }

  const double q = static_cast<double>(std::max<long long>(counts.queries, 1));
  report->Set("core.validate_ms", stage_ms("core.validate"), "ms");
  report->Set("pathdecomp.decompose_ms", stage_ms("pathdecomp.decompose"), "ms");
  report->Set("pathdecomp.sample_ms", stage_ms("pathdecomp.sample"), "ms");
  report->Set("pathdecomp.build_scenario_ms", stage_ms("pathdecomp.build_scenario"), "ms");
  report->Set("pathdecomp.paths_sampled", static_cast<double>(counts.paths) / q, "count");
  report->Set("pathdecomp.scenario_flows",
              Ratio(static_cast<double>(counts.scenario_flows), static_cast<double>(counts.paths)),
              "count");
  report->Set("flowsim.run_ms", stage_ms("flowsim.run"), "ms");
  report->Set("flowsim.flows_per_s",
              Ratio(static_cast<double>(counts.scenario_flows), flowsim_total_ms / 1e3), "1/s");
  report->Set("core.features_ms", stage_ms("core.features"), "ms");
  report->Set("ml.forward_ms", stage_ms("ml.forward"), "ms");
  report->Set("ml.forward_calls", static_cast<double>(counts.forward_calls) / q, "count");
  report->Set("core.aggregate_ms", stage_ms("core.aggregate"), "ms");
  report->Set("estimator.queries", static_cast<double>(counts.queries), "count");
  report->Set("estimator.stage_sum_ms", Median(sums), "ms");
  report->Set("estimator.unattributed_ms", Median(unattributed), "ms");
  *latency_ms = untraced_ms;
  const double untraced = Median(untraced_ms);
  report->Set("estimator.untraced_ms", untraced, "ms");
  report->Set("trace.overhead_pct", 100.0 * (Median(traced_ms) / untraced - 1.0), "%");
  return untraced;
}

namespace {

// Owned topology and routed flows of a wire query.
struct MaterializedQuery {
  std::shared_ptr<const m3::FatTree> ft;
  std::vector<m3::Flow> flows;
};

MaterializedQuery Materialize(const QueryRequest& req) {
  MaterializedQuery m;
  m3::serve::TopoMemo memo;
  auto ft = m3::serve::TopoForRequest(req, &memo);
  if (!ft.ok()) return m;
  m.ft = *ft;
  if (!m3::serve::BuildRequestFlows(req, *m.ft, &m.flows).ok()) m.ft.reset();
  return m;
}

}  // namespace

void ProfileQueries(Tracer& tracer, const std::vector<QueryRequest>& reqs, m3::M3Model& model,
                    double seconds, Report* report, std::vector<std::string>* gate_failures) {
  std::vector<MaterializedQuery> mq;
  for (const QueryRequest& r : reqs) mq.push_back(Materialize(r));
  std::vector<EstimatorInput> inputs;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (mq[i].ft == nullptr) continue;
    m3::M3Options o;
    o.num_paths = reqs[i].num_paths;
    o.seed = reqs[i].seed;
    o.num_threads = 1;
    inputs.push_back({&mq[i].ft->topo(), &mq[i].flows, reqs[i].cfg, o});
  }
  if (inputs.empty()) {
    gate_failures->push_back("no valid queries to profile");
    return;
  }
  std::vector<double> latency, gaps;
  ProfileEstimator(tracer, inputs, 1, model, seconds, report, &latency, &gaps, gate_failures);
}

// ----------------------------------------------------------------- wire

void ProbeWire(const std::vector<QueryRequest>& reqs, const std::vector<QueryResponse>& resps,
               Tracer& tracer, Report* report) {
  std::vector<double> req_bytes, enc_req, dec_req, enc_resp, dec_resp;
  const std::size_t n = std::min<std::size_t>({reqs.size(), resps.size(), 8});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id = tracer.NewRequest();
    const std::string req_payload = m3::serve::EncodeQueryRequest(reqs[i]);
    const std::string resp_payload = m3::serve::EncodeQueryResponse(resps[i]);
    req_bytes.push_back(static_cast<double>(req_payload.size()));
    const int in_req = InnerFor(req_payload.size());
    const int in_resp = InnerFor(resp_payload.size());
    {
      const ScopedSpan s(tracer, "wire.encode_query_request", id);
      enc_req.push_back(
          MedianCallUs(5, in_req, [&] { (void)m3::serve::EncodeQueryRequest(reqs[i]); }));
    }
    {
      const ScopedSpan s(tracer, "wire.decode_query_request", id);
      dec_req.push_back(
          MedianCallUs(5, in_req, [&] { (void)m3::serve::DecodeQueryRequest(req_payload); }));
    }
    {
      const ScopedSpan s(tracer, "wire.encode_query_response", id);
      enc_resp.push_back(
          MedianCallUs(5, in_resp, [&] { (void)m3::serve::EncodeQueryResponse(resps[i]); }));
    }
    {
      const ScopedSpan s(tracer, "wire.decode_query_response", id);
      dec_resp.push_back(
          MedianCallUs(5, in_resp, [&] { (void)m3::serve::DecodeQueryResponse(resp_payload); }));
    }
  }
  report->Set("wire.query_request_bytes", Median(req_bytes), "bytes");
  report->Set("wire.encode_query_request_us", Median(enc_req), "us");
  report->Set("wire.decode_query_request_us", Median(dec_req), "us");
  report->Set("wire.encode_query_response_us", Median(enc_resp), "us");
  report->Set("wire.decode_query_response_us", Median(dec_resp), "us");
}

// ---------------------------------------------------------------- cache

void ProbeCacheKeys(const std::vector<QueryRequest>& reqs, const m3::Hash128& digest,
                    Tracer& tracer, Report* report) {
  std::vector<double> qkey, pkey;
  const std::size_t n = std::min<std::size_t>(reqs.size(), 4);
  for (std::size_t i = 0; i < n; ++i) {
    const QueryRequest& req = reqs[i];
    const std::uint64_t id = tracer.NewRequest();
    const int inner = InnerFor(req.flows.size() * 32);
    {
      const ScopedSpan s(tracer, "cache.query_key", id);
      qkey.push_back(MedianCallUs(5, inner, [&] { (void)m3::serve::QueryCacheKey(req, digest); }));
    }
    const MaterializedQuery m = Materialize(req);
    if (m.ft == nullptr) continue;
    const m3::PathDecomposition decomp(m.ft->topo(), m.flows);
    m3::Rng rng(req.seed);
    const auto sample = m3::SamplePaths(decomp, req.num_paths, rng);
    if (sample.empty()) continue;
    const m3::PathScenario sc = m3::BuildPathScenario(m.ft->topo(), m.flows, decomp, sample[0]);
    const int pinner = InnerFor(sc.flows.size() * 48);
    const ScopedSpan s(tracer, "cache.path_key", id);
    pkey.push_back(MedianCallUs(5, pinner, [&] {
      (void)m3::serve::PathCacheKey(sc, req.cfg, req.use_context, digest);
    }));
  }
  report->Set("cache.query_key_us", Median(qkey), "us");
  report->Set("cache.path_key_us", Median(pkey), "us");
}

// -------------------------------------------------------------- service

namespace {

// The m3d service configuration the serving workloads use: m3d's defaults.
m3::serve::ServiceOptions DaemonServiceOptions() {
  m3::serve::ServiceOptions so;
  so.worker_processes = 2;  // m3d's default: crash-isolated workers
  so.num_workers = 2;       // m3d: max(1, --workers)
  return so;
}

}  // namespace

std::unique_ptr<m3::serve::EstimationService> StartService(const std::string& model_path,
                                                           double* load_ms, double* start_ms,
                                                           std::string* err) {
  auto svc = std::make_unique<m3::serve::EstimationService>(DaemonServiceOptions());
  const auto t0 = Clock::now();
  if (m3::Status st = svc->ReloadModel(model_path); !st.ok()) {
    *err = "ReloadModel: " + st.ToString();
    return nullptr;
  }
  const auto t1 = Clock::now();
  if (m3::Status st = svc->Start(); !st.ok()) {
    *err = "Start: " + st.ToString();
    return nullptr;
  }
  while (!svc->Ping().ready) {
    if (SecondsSince(t1) > 30.0) {
      *err = "service not ready after 30 s";
      return nullptr;
    }
    usleep(200);
  }
  *load_ms = MsBetween(t0, t1);
  *start_ms = MsBetween(t1, Clock::now());
  return svc;
}

namespace {

// Submits each query and waits for its answer (an unloaded closed loop).
// Fills serve.submit_us and serve.response_{p50,p99}_ms; returns the
// responses in order.
std::vector<QueryResponse> SubmitUnloaded(m3::serve::EstimationService& svc,
                                          const std::vector<QueryRequest>& reqs, Tracer& tracer,
                                          Report* report, std::vector<double>* response_ms) {
  std::vector<QueryResponse> out;
  std::vector<double> submit_us;
  for (const QueryRequest& req : reqs) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    QueryResponse resp;
    Clock::time_point t_done;
    const std::uint64_t id = tracer.NewRequest();
    const auto t0 = Clock::now();
    m3::Status st;
    {
      const ScopedSpan s(tracer, "serve.submit", id);
      st = svc.Submit(req, [&](QueryResponse r) {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        resp = std::move(r);
        t_done = now;
        done = true;
        cv.notify_one();
      });
    }
    const auto t1 = Clock::now();
    submit_us.push_back(MsBetween(t0, t1) * 1e3);
    if (!st.ok()) {
      resp.status = st;
      out.push_back(resp);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    tracer.Add("serve.response", t0, t_done, id);
    response_ms->push_back(MsBetween(t0, t_done));
    out.push_back(resp);
  }
  report->Set("serve.submit_us", Median(submit_us), "us");
  report->Set("serve.response_p50_ms", Percentile(*response_ms, 50), "ms");
  report->Set("serve.response_p99_ms", Percentile(*response_ms, 99), "ms");
  return out;
}

}  // namespace

void ProbeService(m3::serve::EstimationService& svc, const std::vector<QueryRequest>& reqs,
                  const std::vector<double>& response_ms, Tracer& tracer, Report* report) {
  const auto snap = svc.registry().Current();
  m3::serve::TopoMemo memo;
  m3::serve::ExecContext ctx;
  ctx.topos = &memo;
  ctx.threads_per_query = svc.options().threads_per_query;
  m3::serve::WorkerSupervisor* sup = svc.supervisor();
  std::vector<double> exec_ms, rtt_ms, ipc_ms;
  if (snap != nullptr && sup != nullptr && !reqs.empty()) {
    // Caching off so the second call of a query is not a cache hit; one
    // untimed call first warms the topology memos on both sides.
    QueryRequest warm = reqs[0];
    warm.no_cache = true;
    (void)m3::serve::ExecuteQueryOnSnapshot(warm, *snap, ctx);
    (void)sup->Execute(warm);
    for (const QueryRequest& r : reqs) (void)m3::serve::TopoForRequest(r, &memo);
    // The worker round trips back to back, then the in-process executions.
    // Interleaved, a round trip read longer than a whole served query.
    std::vector<QueryRequest> uncached(reqs);
    std::vector<std::uint64_t> ids;
    for (QueryRequest& req : uncached) {
      req.no_cache = true;
      ids.push_back(tracer.NewRequest());
      const auto t0 = Clock::now();
      {
        const ScopedSpan s(tracer, "serve.worker_rtt", ids.back());
        (void)sup->Execute(req);
      }
      rtt_ms.push_back(MsBetween(t0, Clock::now()));
    }
    for (std::size_t i = 0; i < uncached.size(); ++i) {
      const auto t0 = Clock::now();
      {
        const ScopedSpan s(tracer, "serve.exec", ids[i]);
        (void)m3::serve::ExecuteQueryOnSnapshot(uncached[i], *snap, ctx);
      }
      exec_ms.push_back(MsBetween(t0, Clock::now()));
      ipc_ms.push_back(rtt_ms[i] - exec_ms.back());
    }
  }
  const double rtt = Median(rtt_ms);
  std::vector<double> wait;
  for (double r : response_ms) wait.push_back(r - rtt);
  report->Set("serve.exec_ms", Median(exec_ms), "ms");
  report->Set("serve.worker_rtt_ms", rtt, "ms");
  report->Set("serve.worker_ipc_ms", Median(ipc_ms), "ms");
  report->Set("serve.queue_wait_p50_ms", Percentile(wait, 50), "ms");
  report->Set("serve.queue_wait_p99_ms", Percentile(wait, 99), "ms");

  const m3::serve::ServerStatsWire st = svc.Stats();
  report->Set("service.shed", static_cast<double>(st.queries_shed), "count");
  report->Set("service.rejected", static_cast<double>(st.queries_rejected), "count");
  report->Set("service.brownout_queries", static_cast<double>(st.brownout_queries), "count");
  report->Set("supervisor.crashes", static_cast<double>(st.worker_crashes), "count");
  report->Set("supervisor.restarts", static_cast<double>(st.worker_restarts), "count");
  const double q_lookups = static_cast<double>(st.query_cache[0] + st.query_cache[1]);
  const double p_lookups = static_cast<double>(st.path_cache[0] + st.path_cache[1]);
  report->Set("cache.query_hit_ratio", Ratio(static_cast<double>(st.query_cache[0]), q_lookups),
              "ratio");
  report->Set("cache.query_lookups", q_lookups, "count");
  report->Set("cache.path_hit_ratio", Ratio(static_cast<double>(st.path_cache[0]), p_lookups),
              "ratio");
  report->Set("cache.path_lookups", p_lookups, "count");
  report->Set("cache.evictions", static_cast<double>(st.query_cache[3] + st.path_cache[3]),
              "count");
}

// ---------------------------------------------------------------- fleet

double StartFleet(const RunArgs& args, const std::string& model_path, Fleet* fleet,
                  std::string* err) {
  const auto t0 = Clock::now();
  if (!fleet->shards.Start(args, model_path, 2, err)) return -1.0;
  m3::serve::RouterOptions ro;
  ro.shards = fleet->shards.sockets();
  fleet->router = std::make_unique<m3::serve::Router>(ro);
  if (m3::Status st = fleet->router->Start(); !st.ok()) {
    *err = "router: " + st.ToString();
    return -1.0;
  }
  while (fleet->router->Ping().shards_healthy < 2) {
    if (SecondsSince(t0) > 30.0) {
      *err = "router sees fewer than 2 healthy shards after 30 s";
      return -1.0;
    }
    usleep(500);
  }
  return MsBetween(t0, Clock::now());
}

void StopFleet(Fleet* fleet) {
  if (fleet->router != nullptr) fleet->router->Stop();
  fleet->router.reset();
  fleet->shards.Stop();
}

void ProbeFleet(Fleet& fleet, const m3::serve::ModelSnapshot& snap,
                const std::vector<QueryRequest>& reqs, Tracer& tracer, Report* report,
                std::vector<std::string>* gate_failures) {
  // Transport floor: ping round trips on one connection per shard.
  std::vector<double> ping_us;
  for (const std::string& sock : fleet.shards.sockets()) {
    auto fd = m3::ConnectUnixTimeout(sock, 2.0);
    if (!fd.ok() || !m3::SetRecvTimeout(*fd, 2.0).ok()) continue;
    const std::string ping = m3::serve::EncodePingRequest();
    const std::uint64_t id = tracer.NewRequest();
    for (int i = 0; i < 40; ++i) {
      const ScopedSpan s(tracer, "shard.ping", id);
      const auto t0 = Clock::now();
      const auto type = static_cast<std::uint32_t>(m3::serve::MsgType::kPingRequest);
      if (!m3::SendFrame(*fd, type, ping).ok()) break;
      if (!m3::RecvFrame(*fd).ok()) break;
      ping_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    }
  }
  report->Set("shard.ping_rtt_us", Median(ping_us), "us");

  // The router's placement: zero-digest path keys on the same ring.
  std::vector<std::string> names;
  for (const std::string& sock : fleet.shards.sockets()) {
    auto ep = m3::ParseEndpoint(sock);
    names.push_back(ep.ok() ? ep->ToString() : sock);
  }
  const m3::serve::HashRing ring(names, m3::serve::RouterOptions().vnodes);
  m3::serve::TopoMemo memo;
  m3::serve::ExecContext ctx;
  ctx.topos = &memo;
  std::vector<double> shard_exec, overhead, req_bytes, resp_bytes, enc_req, dec_resp;
  for (const QueryRequest& req : reqs) {
    const MaterializedQuery m = Materialize(req);
    if (m.ft == nullptr) continue;
    const m3::PathDecomposition decomp(m.ft->topo(), m.flows);
    m3::Rng rng(req.seed);
    const auto sample = m3::SamplePaths(decomp, req.num_paths, rng);
    std::vector<std::vector<std::uint32_t>> slots(names.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const m3::PathScenario sc = m3::BuildPathScenario(m.ft->topo(), m.flows, decomp, sample[i]);
      const int owner =
          ring.Owner(m3::serve::PathCacheKey(sc, req.cfg, req.use_context, m3::Hash128{}));
      slots[static_cast<std::size_t>(owner)].push_back(static_cast<std::uint32_t>(i));
    }
    const std::uint64_t id = tracer.NewRequest();
    (void)m3::serve::TopoForRequest(req, &memo);  // built outside the timed calls
    double slowest = 0.0;
    for (const auto& list : slots) {
      if (list.empty()) continue;
      m3::serve::ShardQueryRequest sub;
      sub.query = req;
      sub.slots = list;
      const auto t0 = Clock::now();
      m3::serve::ShardQueryResponse sresp;
      {
        const ScopedSpan s(tracer, "shard.exec", id);
        sresp = m3::serve::ExecuteShardOnSnapshot(sub, snap, ctx);
      }
      const double ms = MsBetween(t0, Clock::now());
      shard_exec.push_back(ms);
      slowest = std::max(slowest, ms);
      const std::string sreq_payload = m3::serve::EncodeShardQueryRequest(sub);
      const std::string sresp_payload = m3::serve::EncodeShardQueryResponse(sresp);
      req_bytes.push_back(static_cast<double>(sreq_payload.size()));
      resp_bytes.push_back(static_cast<double>(sresp_payload.size()));
      {
        const ScopedSpan s(tracer, "wire.encode_shard_request", id);
        enc_req.push_back(MedianCallUs(5, InnerFor(sreq_payload.size()),
                                       [&] { (void)m3::serve::EncodeShardQueryRequest(sub); }));
      }
      {
        const ScopedSpan s(tracer, "wire.decode_shard_response", id);
        dec_resp.push_back(MedianCallUs(5, InnerFor(sresp_payload.size()), [&] {
          (void)m3::serve::DecodeShardQueryResponse(sresp_payload);
        }));
      }
    }
    const auto r0 = Clock::now();
    QueryResponse routed;
    {
      const ScopedSpan s(tracer, "router.query", id);
      routed = fleet.router->Query(req);
    }
    overhead.push_back(MsBetween(r0, Clock::now()) - slowest);
    const QueryResponse single = m3::serve::ExecuteQueryOnSnapshot(req, snap, ctx);
    if (AnswerDigest(routed) != AnswerDigest(single) && gate_failures->size() < 8) {
      gate_failures->push_back("router answer differs from the single-host answer (" +
                               routed.status.ToString() + ")");
    }
  }
  report->Set("shard.exec_ms", Median(shard_exec), "ms");
  report->Set("router.overhead_ms", Median(overhead), "ms");
  report->Set("wire.shard_request_bytes", Median(req_bytes), "bytes");
  report->Set("wire.shard_response_bytes", Median(resp_bytes), "bytes");
  report->Set("wire.encode_shard_request_us", Median(enc_req), "us");
  report->Set("wire.decode_shard_response_us", Median(dec_resp), "us");
  const m3::serve::ServerStatsWire st = fleet.router->Stats();
  report->Set("router.path_cache_hit_ratio",
              Ratio(static_cast<double>(st.path_cache[0]),
                    static_cast<double>(st.path_cache[0] + st.path_cache[1])),
              "ratio");
}

void ProbeServiceLayers(const std::string& model_path, const std::vector<QueryRequest>& reqs,
                        Tracer& tracer, Report* report, std::vector<std::string>* gate_failures) {
  std::string err;
  double load_ms = 0.0, start_ms = 0.0;
  auto svc = StartService(model_path, &load_ms, &start_ms, &err);
  if (svc == nullptr) {
    gate_failures->push_back("service probe: " + err);
    return;
  }
  report->Set("setup.model_load_ms", load_ms, "ms");
  report->Set("setup.service_start_ms", start_ms, "ms");
  std::vector<double> response_ms;
  const std::vector<QueryResponse> resps = SubmitUnloaded(*svc, reqs, tracer, report, &response_ms);
  for (const QueryResponse& r : resps) {
    if (!r.status.ok() && gate_failures->size() < 8) {
      gate_failures->push_back("service probe query not kOk: " + r.status.ToString());
    }
  }
  ProbeService(*svc, reqs, response_ms, tracer, report);
  ProbeWire(reqs, resps, tracer, report);
  ProbeCacheKeys(reqs, svc->registry().Current()->digest, tracer, report);
  svc->Stop();
}

void ProbeFleetLayers(const RunArgs& args, const std::string& model_path,
                      const std::vector<QueryRequest>& reqs, Tracer& tracer, Report* report,
                      std::vector<std::string>* gate_failures) {
  m3::serve::ModelRegistry registry;
  if (m3::Status st = registry.Reload(model_path); !st.ok()) {
    gate_failures->push_back("fleet probe: " + st.ToString());
    return;
  }
  Fleet fleet;
  std::string err;
  const double ready_ms = StartFleet(args, model_path, &fleet, &err);
  if (ready_ms < 0) {
    gate_failures->push_back("fleet probe: " + err);
  } else {
    report->Set("setup.fleet_ready_ms", ready_ms, "ms");
    ProbeFleet(fleet, *registry.Current(), reqs, tracer, report, gate_failures);
  }
  StopFleet(&fleet);
}

void ReportClosedLoopGenerator(const std::vector<double>& gaps_ms, Report* report) {
  report->Set("loadgen.late_p99_ms", Percentile(gaps_ms, 99), "ms");
  report->Set("loadgen.backlog", 0.0, "count");
}

}  // namespace m3perf
