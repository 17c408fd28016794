#include "core/net_config.h"

#include <cmath>

namespace m3 {

PathSpecInfo ComputePathSpec(const PathScenario& scenario, const NetConfig& cfg) {
  PathSpecInfo info;
  info.num_links = scenario.num_links;

  // The foreground route runs over the chain hops 0..n-1; each hop's ACK
  // link has the same rate and delay.
  Ns rtt = 0;
  Bpns min_rate = 0.0;
  for (int h = 0; h < scenario.num_links; ++h) {
    const Bpns rate = scenario.hop_rate[static_cast<std::size_t>(h)];
    const Ns delay = scenario.hop_delay[static_cast<std::size_t>(h)];
    rtt += delay + TransmissionTime(cfg.mtu + cfg.hdr, rate);
    rtt += delay + TransmissionTime(cfg.hdr, rate);
    if (h == 0 || rate < min_rate) min_rate = rate;
  }
  info.base_rtt = rtt;
  info.min_rate = min_rate;
  info.bdp = static_cast<Bytes>(scenario.hop_rate.front() * static_cast<double>(rtt));
  info.num_fg = static_cast<double>(scenario.num_fg());
  return info;
}

ml::Tensor EncodeSpec(const NetConfig& cfg, const PathSpecInfo& path) {
  ml::Tensor spec(1, kSpecDim);
  int i = 0;
  // CC one-hot (4).
  for (int c = 0; c < kNumCcTypes; ++c) {
    spec.at(0, i++) = (static_cast<int>(cfg.cc) == c) ? 1.0f : 0.0f;
  }
  spec.at(0, i++) = static_cast<float>(cfg.init_window) / 30e3f;
  spec.at(0, i++) = static_cast<float>(cfg.buffer) / 500e3f;
  spec.at(0, i++) = cfg.pfc ? 1.0f : 0.0f;
  spec.at(0, i++) = static_cast<float>(cfg.dctcp_k) / 20e3f;
  spec.at(0, i++) = static_cast<float>(cfg.dcqcn_kmin) / 50e3f;
  spec.at(0, i++) = static_cast<float>(cfg.dcqcn_kmax) / 100e3f;
  spec.at(0, i++) = static_cast<float>(cfg.hpcc_eta);
  spec.at(0, i++) = static_cast<float>(cfg.hpcc_rate_ai_gbps);
  spec.at(0, i++) = static_cast<float>(cfg.timely_tlow) / 60e3f;
  spec.at(0, i++) = static_cast<float>(cfg.timely_thigh) / 150e3f;
  // Path geometry.
  spec.at(0, i++) = static_cast<float>(path.num_links) / 6.0f;
  spec.at(0, i++) = static_cast<float>(path.base_rtt) / 100e3f;
  spec.at(0, i++) = static_cast<float>(path.bdp) / 100e3f;
  spec.at(0, i++) = static_cast<float>(BpnsToGbps(path.min_rate)) / 40.0f;
  spec.at(0, i++) = static_cast<float>(std::log1p(path.num_fg) / 10.0);
  // Ratio of init window to BDP: the quantity that drives the Table 5
  // window-limited regime.
  spec.at(0, i++) = path.bdp > 0
                        ? static_cast<float>(static_cast<double>(cfg.init_window) /
                                             static_cast<double>(path.bdp))
                        : 0.0f;
  return spec;
}

}  // namespace m3
