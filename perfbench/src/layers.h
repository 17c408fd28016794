// Per-layer probes for the traced runs. Each probe calls one layer's public
// functions on the workload's own queries, from outside the program, and
// records a span around every call.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "serve/service.h"
#include "trace.h"

namespace m3perf {

/// One estimator query: topology and flows (not owned) plus options.
struct EstimatorInput {
  const m3::Topology* topo = nullptr;
  const std::vector<m3::Flow>* flows = nullptr;
  m3::NetConfig cfg;
  m3::M3Options opts;
};

/// Times untraced RunM3 and a traced stage-by-stage replay of it back to
/// back on each input until `seconds` pass, in whole rounds of `round`
/// inputs, and checks the two answers agree bitwise. The replay opens a span
/// around each layer call (core.validate, pathdecomp.decompose,
/// pathdecomp.sample, pathdecomp.build_scenario, flowsim.run,
/// core.features, ml.forward, core.aggregate). Reports those layers' self
/// times, estimator.stage_sum_ms, estimator.unattributed_ms and
/// trace.overhead_pct, and returns the untraced median wall time.
/// `latency_ms` receives the untraced RunM3 times in order and `gaps_ms` the
/// generator's gap between one query's end and the next one's start.
double ProfileEstimator(Tracer& tracer, const std::vector<EstimatorInput>& inputs,
                        std::size_t round, m3::M3Model& model, double seconds, Report* report,
                        std::vector<double>* latency_ms, std::vector<double>* gaps_ms,
                        std::vector<std::string>* gate_failures);

/// ProfileEstimator on wire queries, each with its own sample seed and one
/// path thread (the serving default).
void ProfileQueries(Tracer& tracer, const std::vector<m3::serve::QueryRequest>& reqs,
                    m3::M3Model& model, double seconds, Report* report,
                    std::vector<std::string>* gate_failures);

/// wire.*: codec sizes and per-call times of query requests/responses.
void ProbeWire(const std::vector<m3::serve::QueryRequest>& reqs,
               const std::vector<m3::serve::QueryResponse>& resps, Tracer& tracer,
               Report* report);

/// cache.query_key_us and cache.path_key_us on the queries.
void ProbeCacheKeys(const std::vector<m3::serve::QueryRequest>& reqs, const m3::Hash128& digest,
                    Tracer& tracer, Report* report);

/// Starts a service on the checkpoint, timing ReloadModel and Start.
std::unique_ptr<m3::serve::EstimationService> StartService(const std::string& model_path,
                                                           double* load_ms, double* start_ms,
                                                           std::string* err);

/// serve.exec_ms (in-process ExecuteQueryOnSnapshot), serve.worker_rtt_ms
/// (WorkerSupervisor::Execute) and serve.worker_ipc_ms, unloaded, on the
/// queries with caching off; then serve.queue_wait_{p50,p99}_ms from the
/// given response times. Also the admission, supervisor and cache counters
/// from the service's Stats().
void ProbeService(m3::serve::EstimationService& svc,
                  const std::vector<m3::serve::QueryRequest>& reqs,
                  const std::vector<double>& response_ms, Tracer& tracer, Report* report);

/// A two-shard fleet with an in-process router in front.
struct Fleet {
  ShardFleet shards;
  std::unique_ptr<m3::serve::Router> router;
};
/// Spawns the shards and starts the router; returns the milliseconds until
/// every shard answered a Ping, or a negative value on failure.
double StartFleet(const RunArgs& args, const std::string& model_path, Fleet* fleet,
                  std::string* err);
void StopFleet(Fleet* fleet);

/// shard.ping_rtt_us, shard.exec_ms, router.overhead_ms, wire.shard_* and
/// router.path_cache_hit_ratio on the queries (cold for the router).
void ProbeFleet(Fleet& fleet, const m3::serve::ModelSnapshot& snap,
                const std::vector<m3::serve::QueryRequest>& reqs, Tracer& tracer,
                Report* report, std::vector<std::string>* gate_failures);

/// The serving per-layer metrics for a workload without a service of its
/// own: the queries through a fresh m3d-default service (an unloaded
/// closed loop), then again for the exec and worker round trips with
/// caching off; plus wire and cache-key costs and setup.model_load_ms /
/// setup.service_start_ms.
void ProbeServiceLayers(const std::string& model_path,
                        const std::vector<m3::serve::QueryRequest>& reqs, Tracer& tracer,
                        Report* report, std::vector<std::string>* gate_failures);

/// The fleet per-layer metrics for a workload without a fleet of its own:
/// a fresh two-shard fleet, ProbeFleet on the queries, setup.fleet_ready_ms.
void ProbeFleetLayers(const RunArgs& args, const std::string& model_path,
                      const std::vector<m3::serve::QueryRequest>& reqs, Tracer& tracer,
                      Report* report, std::vector<std::string>* gate_failures);

/// Closed-loop generator lateness: gap between one answer and the next send.
void ReportClosedLoopGenerator(const std::vector<double>& gaps_ms, Report* report);

}  // namespace m3perf
