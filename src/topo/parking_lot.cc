#include "topo/parking_lot.h"

#include <stdexcept>

namespace m3 {

ParkingLot::ParkingLot(int num_links, Bpns link_rate, Ns delay, bool hosts_at_ends)
    : ParkingLot(std::vector<Bpns>(static_cast<std::size_t>(num_links), link_rate),
                 std::vector<Ns>(static_cast<std::size_t>(num_links), delay),
                 hosts_at_ends) {}

ParkingLot::ParkingLot(const std::vector<Bpns>& rates, const std::vector<Ns>& delays,
                       bool hosts_at_ends) {
  if (rates.empty() || rates.size() != delays.size()) {
    throw std::invalid_argument("ParkingLot: rates/delays must be non-empty and equal-sized");
  }
  switches_.reserve(rates.size() + 1);
  for (std::size_t i = 0; i <= rates.size(); ++i) {
    const bool endpoint = hosts_at_ends && (i == 0 || i == rates.size());
    switches_.push_back(topo_.AddNode(endpoint ? NodeKind::kHost : NodeKind::kSwitch));
  }
  path_links_.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    // Only the forward direction carries foreground data; the reverse link
    // exists for ACK traffic.
    auto [fwd, rev] = topo_.AddDuplexLink(switches_[i], switches_[i + 1], rates[i], delays[i]);
    (void)rev;
    path_links_.push_back(fwd);
  }
}

NodeId ParkingLot::AttachHost(int i, Bpns access_rate, std::uint64_t endpoint_key,
                              Ns access_delay) {
  if (topo_.kind(switch_at(i)) == NodeKind::kHost) {
    // Attaching at an endpoint node means the flow originates/terminates at
    // the path endpoint itself; no synthetic access link is needed.
    return switch_at(i);
  }
  const auto key = std::make_pair(endpoint_key, i);
  if (auto it = attached_.find(key); it != attached_.end()) return it->second;
  const NodeId host = topo_.AddNode(NodeKind::kHost);
  const auto [up, down] = topo_.AddDuplexLink(host, switch_at(i), access_rate, access_delay);
  attached_.emplace(key, host);
  access_.resize(static_cast<std::size_t>(host) + 1);
  access_[static_cast<std::size_t>(host)] = AccessLinks{i, up, down};
  return host;
}

LinkId ParkingLot::AccessLink(NodeId host, int i, bool up) const {
  const auto h = static_cast<std::size_t>(host);
  if (h >= access_.size() || access_[h].at != i) return kInvalidLink;
  return up ? access_[h].up : access_[h].down;
}

Route ParkingLot::RouteBetween(NodeId src_host, int i, NodeId dst_host, int j) const {
  if (i >= j) throw std::invalid_argument("ParkingLot::RouteBetween requires i < j");
  Route route;
  route.reserve(static_cast<std::size_t>(j - i) + 2);
  if (src_host != switch_at(i)) route.push_back(AccessLink(src_host, i, /*up=*/true));
  for (int k = i; k < j; ++k) route.push_back(path_links_[static_cast<std::size_t>(k)]);
  if (dst_host != switch_at(j)) route.push_back(AccessLink(dst_host, j, /*up=*/false));
  return route;
}

}  // namespace m3
