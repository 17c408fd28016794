// m3perf: the benchmark's measuring binary (perfbench/run.py runs it).
//
//   m3perf run --workload W --seed N --seconds S --trace 0|1 --refs DIR --work DIR
//              [--source-digest HEX]
//   m3perf refs --refs DIR          build the reference artefacts (untimed)
//   m3perf shard --model CKPT --socket PATH   one shard daemon (fleet_reuse)
//
// `run` prints a host block, comment lines, and as its last line one JSON
// object with "correct", "attempted", "failed" and "metrics". It exits 1
// when the answer-correctness gate fails.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: m3perf run --workload paper_cold|toy_serve|fleet_reuse --seed N "
               "--seconds S --trace 0|1 --refs DIR --work DIR [--source-digest HEX]\n"
               "       m3perf refs --refs DIR\n"
               "       m3perf shard --model CKPT --socket PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace m3perf;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::string workload, refs, work, model, socket, digest = "unknown";
  double seconds = -1.0;
  long long seed = -1, trace = -1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") workload = v;
    else if (k == "--refs") refs = v;
    else if (k == "--work") work = v;
    else if (k == "--model") model = v;
    else if (k == "--socket") socket = v;
    else if (k == "--source-digest") digest = v;
    else if (k == "--seconds") seconds = std::strtod(v, &end);
    else if (k == "--seed") seed = std::strtoll(v, &end, 10);
    else if (k == "--trace") trace = std::strtoll(v, &end, 10);
    else return Usage();
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 != 0) return Usage();

  if (mode == "shard") {
    if (model.empty() || socket.empty()) return Usage();
    return ShardMain(model, socket);
  }
  if (mode == "refs") {
    if (refs.empty()) return Usage();
    return BuildReferences(refs);
  }
  if (mode != "run" || workload.empty() || refs.empty() || work.empty() || seed < 0 ||
      !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage();
  }

  // Orphaned grandchildren (a shard's worker outliving its shard) are
  // re-parented here, so the leak check below sees them.
  prctl(PR_SET_CHILD_SUBREAPER, 1);

  RunArgs args;
  args.seed = static_cast<std::uint64_t>(seed);
  args.seconds = seconds;
  args.trace = trace == 1;
  args.refs_dir = refs;
  args.work_dir = work;
  args.self_path = argv[0];  // re-executed as `m3perf shard` by fleets

  std::printf("%s\n", HostBlockJson(digest).c_str());
  std::fflush(stdout);

  Tracer tracer;
  RunResult res;
  if (workload == "paper_cold") {
    res = RunPaperCold(args, tracer);
  } else if (workload == "toy_serve") {
    res = RunToyServe(args, tracer);
  } else if (workload == "fleet_reuse") {
    res = RunFleetReuse(args, tracer);
  } else {
    return Usage();
  }

  std::string leak;
  if (HasLiveChildren(&leak)) res.gate_failures.push_back("process leak: " + leak);
  if (args.trace) {
    const std::string path = work + "/spans-" + workload + "-" + std::to_string(seed) + ".jsonl";
    if (tracer.Write(path)) {
      std::printf("# %zu spans written to %s\n", tracer.size(), path.c_str());
    } else {
      res.gate_failures.push_back("cannot write spans to " + path);
    }
  }
  for (const std::string& f : res.gate_failures) std::printf("# GATE FAILED: %s\n", f.c_str());
  std::printf("# attempted %lld, failed %lld, degraded %lld\n", res.attempted, res.failed,
              res.degraded);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              res.correct() ? "true" : "false", std::max(res.attempted, 1LL), res.failed,
              res.report.MetricsJson().c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
