#include "core/validate.h"

#include <cmath>
#include <cstdint>
#include <string>

namespace m3 {
namespace {

std::string Idx(const char* array, std::size_t i, const char* field) {
  return std::string(array) + "[" + std::to_string(i) + "]." + field;
}

Status BadField(std::string field, const std::string& value, const char* why) {
  return Status::InvalidArgument(std::move(field) + ": " + value + " (" + why + ")");
}

}  // namespace

Status ValidateTopology(const Topology& topo) {
  if (topo.num_nodes() == 0) {
    return Status::InvalidArgument("topology: no nodes");
  }
  const NodeId n = static_cast<NodeId>(topo.num_nodes());
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const Link& lk = topo.link(static_cast<LinkId>(l));
    if (lk.src < 0 || lk.src >= n) {
      return BadField(Idx("topology.link", l, "src"), std::to_string(lk.src),
                      "dangling node id");
    }
    if (lk.dst < 0 || lk.dst >= n) {
      return BadField(Idx("topology.link", l, "dst"), std::to_string(lk.dst),
                      "dangling node id");
    }
    if (lk.src == lk.dst) {
      return BadField(Idx("topology.link", l, "dst"), std::to_string(lk.dst),
                      "self-loop link");
    }
    if (!std::isfinite(lk.rate) || lk.rate <= 0.0) {
      return BadField(Idx("topology.link", l, "rate"), std::to_string(lk.rate),
                      "must be finite and > 0");
    }
    if (lk.delay < 0) {
      return BadField(Idx("topology.link", l, "delay"), std::to_string(lk.delay),
                      "must be >= 0");
    }
  }
  return Status::Ok();
}

Status ValidateFlows(const Topology& topo, const std::vector<Flow>& flows) {
  if (flows.empty()) {
    return Status::InvalidArgument("flows: empty (nothing to estimate)");
  }
  const NodeId n = static_cast<NodeId>(topo.num_nodes());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (f.size <= 0) {
      return BadField(Idx("flows", i, "size"), std::to_string(f.size), "must be > 0");
    }
    if (f.arrival < 0) {
      return BadField(Idx("flows", i, "arrival"), std::to_string(f.arrival),
                      "must be >= 0");
    }
    if (i > 0 && f.arrival < flows[i - 1].arrival) {
      return BadField(Idx("flows", i, "arrival"), std::to_string(f.arrival),
                      "arrivals must be non-decreasing");
    }
    if (f.src < 0 || f.src >= n) {
      return BadField(Idx("flows", i, "src"), std::to_string(f.src), "dangling node id");
    }
    if (f.dst < 0 || f.dst >= n) {
      return BadField(Idx("flows", i, "dst"), std::to_string(f.dst), "dangling node id");
    }
    if (f.src == f.dst) {
      return BadField(Idx("flows", i, "dst"), std::to_string(f.dst),
                      "src and dst must differ");
    }
    if (topo.kind(f.src) != NodeKind::kHost) {
      return BadField(Idx("flows", i, "src"), std::to_string(f.src), "not a host");
    }
    if (topo.kind(f.dst) != NodeKind::kHost) {
      return BadField(Idx("flows", i, "dst"), std::to_string(f.dst), "not a host");
    }
    if (f.priority >= kNumPriorities) {
      return BadField(Idx("flows", i, "priority"), std::to_string(f.priority),
                      "priority class out of range");
    }
    if (!topo.ValidateRoute(f.src, f.dst, f.path)) {
      return Status::InvalidArgument(
          Idx("flows", i, "path") + ": not a connected src->dst chain (" +
          std::to_string(f.path.size()) + " links)");
    }
  }
  return Status::Ok();
}

Status ValidateNetConfig(const NetConfig& cfg) {
  constexpr Bytes kMaxSane = 1024 * kMB;  // way past any Table-4 setting
  if (cfg.mtu <= 0 || cfg.mtu > kMaxSane) {
    return BadField("net_config.mtu", std::to_string(cfg.mtu), "must be in (0, 1GB]");
  }
  if (cfg.hdr < 0 || cfg.hdr >= cfg.mtu) {
    return BadField("net_config.hdr", std::to_string(cfg.hdr),
                    "must be in [0, mtu)");
  }
  if (cfg.init_window <= 0 || cfg.init_window > kMaxSane) {
    return BadField("net_config.init_window", std::to_string(cfg.init_window),
                    "must be in (0, 1GB]");
  }
  if (cfg.buffer < cfg.mtu || cfg.buffer > kMaxSane) {
    return BadField("net_config.buffer", std::to_string(cfg.buffer),
                    "must be in [mtu, 1GB]");
  }
  if (cfg.dctcp_k <= 0) {
    return BadField("net_config.dctcp_k", std::to_string(cfg.dctcp_k), "must be > 0");
  }
  if (cfg.dcqcn_kmin <= 0 || cfg.dcqcn_kmax < cfg.dcqcn_kmin) {
    return BadField("net_config.dcqcn_kmin/kmax",
                    std::to_string(cfg.dcqcn_kmin) + "/" + std::to_string(cfg.dcqcn_kmax),
                    "need 0 < kmin <= kmax");
  }
  if (!std::isfinite(cfg.hpcc_eta) || cfg.hpcc_eta <= 0.0 || cfg.hpcc_eta > 1.0) {
    return BadField("net_config.hpcc_eta", std::to_string(cfg.hpcc_eta),
                    "must be in (0, 1]");
  }
  if (!std::isfinite(cfg.hpcc_rate_ai_gbps) || cfg.hpcc_rate_ai_gbps <= 0.0) {
    return BadField("net_config.hpcc_rate_ai_gbps", std::to_string(cfg.hpcc_rate_ai_gbps),
                    "must be finite and > 0");
  }
  if (cfg.timely_tlow <= 0 || cfg.timely_thigh < cfg.timely_tlow) {
    return BadField("net_config.timely_tlow/thigh",
                    std::to_string(cfg.timely_tlow) + "/" + std::to_string(cfg.timely_thigh),
                    "need 0 < tlow <= thigh");
  }
  return Status::Ok();
}

Status ValidateM3Options(const M3Options& opts) {
  if (opts.num_paths < 1 || opts.num_paths > 10'000'000) {
    return BadField("options.num_paths", std::to_string(opts.num_paths),
                    "must be in [1, 10000000]");
  }
  if (!std::isfinite(opts.deadline_seconds) || opts.deadline_seconds < 0.0) {
    return BadField("options.deadline_seconds", std::to_string(opts.deadline_seconds),
                    "must be finite and >= 0 (0 = unbounded)");
  }
  if (opts.max_attempts < 1 || opts.max_attempts > 16) {
    return BadField("options.max_attempts", std::to_string(opts.max_attempts),
                    "must be in [1, 16]");
  }
  return Status::Ok();
}

Status ValidatePathScenario(const PathScenario& scenario) {
  if (scenario.num_links < 1) {
    return BadField("scenario.num_links", std::to_string(scenario.num_links),
                    "must be >= 1");
  }
  const auto hops = static_cast<std::size_t>(scenario.num_links);
  if (scenario.hop_rate.size() != hops || scenario.hop_delay.size() != hops) {
    return Status::InvalidArgument(
        "scenario: per-hop arrays disagree with num_links=" + std::to_string(hops) +
        " (hop_rate=" + std::to_string(scenario.hop_rate.size()) +
        " hop_delay=" + std::to_string(scenario.hop_delay.size()) + ")");
  }
  const std::size_t num_access = scenario.access_hop.size();
  if (scenario.access_rate.size() != num_access) {
    return Status::InvalidArgument(
        "scenario: access arrays disagree (access_hop=" + std::to_string(num_access) +
        " access_rate=" + std::to_string(scenario.access_rate.size()) + ")");
  }
  for (std::size_t a = 0; a < num_access; ++a) {
    if (scenario.access_hop[a] <= 0 || scenario.access_hop[a] >= scenario.num_links) {
      return BadField(Idx("scenario.access", a, "hop"),
                      std::to_string(scenario.access_hop[a]),
                      "must be an interior chain node, in (0, num_links)");
    }
  }
  const std::size_t n = scenario.flows.size();
  if (scenario.is_fg.size() != n || scenario.orig_id.size() != n ||
      scenario.entry_hop.size() != n || scenario.exit_hop.size() != n) {
    return Status::InvalidArgument(
        "scenario: parallel arrays disagree on flow count (flows=" + std::to_string(n) +
        " is_fg=" + std::to_string(scenario.is_fg.size()) +
        " orig_id=" + std::to_string(scenario.orig_id.size()) +
        " entry_hop=" + std::to_string(scenario.entry_hop.size()) +
        " exit_hop=" + std::to_string(scenario.exit_hop.size()) + ")");
  }
  // An end of a flow's span is a chain end (no access link) or an access
  // link attached at exactly that chain node.
  const auto attaches = [&](std::int32_t access, int hop, int chain_end) {
    if (hop == chain_end) return access == -1;
    return access >= 0 && static_cast<std::size_t>(access) < num_access &&
           scenario.access_hop[static_cast<std::size_t>(access)] == hop;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const int entry = scenario.entry_hop[i];
    const int exit = scenario.exit_hop[i];
    if (entry < 0 || exit > scenario.num_links || entry >= exit) {
      return Status::InvalidArgument(
          Idx("scenario.flows", i, "hop_span") + ": [" + std::to_string(entry) + ", " +
          std::to_string(exit) + ") not a non-empty span within [0, " +
          std::to_string(scenario.num_links) + "]");
    }
    const ChainFlow& f = scenario.flows[i];
    if (!attaches(f.src_access, entry, 0) ||
        !attaches(f.dst_access, exit, scenario.num_links)) {
      return Status::InvalidArgument(
          Idx("scenario.flows", i, "access") + ": src " + std::to_string(f.src_access) +
          " / dst " + std::to_string(f.dst_access) + " do not attach at span [" +
          std::to_string(entry) + ", " + std::to_string(exit) + ")");
    }
  }
  return Status::Ok();
}

Status ValidateDatasetOptions(const DatasetOptions& opts) {
  if (opts.num_scenarios < 1) {
    return BadField("dataset.num_scenarios", std::to_string(opts.num_scenarios),
                    "must be >= 1");
  }
  if (opts.num_fg < 1) {
    return BadField("dataset.num_fg", std::to_string(opts.num_fg), "must be >= 1");
  }
  return Status::Ok();
}

Status ValidateEstimatorInputs(const Topology& topo, const std::vector<Flow>& flows,
                               const NetConfig& cfg, const M3Options& opts) {
  M3_RETURN_IF_ERROR(ValidateTopology(topo));
  M3_RETURN_IF_ERROR(ValidateFlows(topo, flows));
  M3_RETURN_IF_ERROR(ValidateNetConfig(cfg));
  M3_RETURN_IF_ERROR(ValidateM3Options(opts));
  return Status::Ok();
}

}  // namespace m3
