#include "topo/topology.h"

namespace m3 {

NodeId Topology::AddNode(NodeKind kind) {
  kinds_.push_back(kind);
  out_links_.emplace_back();
  return static_cast<NodeId>(kinds_.size() - 1);
}

LinkId Topology::AddLink(NodeId src, NodeId dst, Bpns rate, Ns delay) {
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{src, dst, rate, delay});
  out_links_[static_cast<std::size_t>(src)].push_back(id);
  return id;
}

std::pair<LinkId, LinkId> Topology::AddDuplexLink(NodeId a, NodeId b, Bpns rate,
                                                  Ns delay) {
  return {AddLink(a, b, rate, delay), AddLink(b, a, rate, delay)};
}

LinkId Topology::FindLink(NodeId src, NodeId dst) const {
  for (LinkId l : out_links_[static_cast<std::size_t>(src)]) {
    if (links_[static_cast<std::size_t>(l)].dst == dst) return l;
  }
  return kInvalidLink;
}

LinkId Topology::ReverseLink(LinkId l) const {
  const Link& fwd = link(l);
  return FindLink(fwd.dst, fwd.src);
}

Ns Topology::RouteDelay(const Route& route) const {
  Ns total = 0;
  for (LinkId l : route) total += link(l).delay;
  return total;
}

Bpns Topology::RouteMinRate(const Route& route) const {
  Bpns min_rate = 0.0;
  bool first = true;
  for (LinkId l : route) {
    const Bpns r = link(l).rate;
    if (first || r < min_rate) {
      min_rate = r;
      first = false;
    }
  }
  return min_rate;
}

bool Topology::ValidateRoute(NodeId src, NodeId dst, const Route& route) const {
  if (route.empty()) return false;
  NodeId at = src;
  for (LinkId l : route) {
    if (l < 0 || static_cast<std::size_t>(l) >= links_.size()) return false;
    const Link& lk = link(l);
    if (lk.src != at) return false;
    at = lk.dst;
  }
  return at == dst;
}

Ns IdealFct(const Topology& topo, const Route& route, Bytes size, Bytes mtu,
            Bytes hdr) {
  return IdealFctOver(
      route.size(), [&](std::size_t k) { return topo.link(route[k]).rate; },
      [&](std::size_t k) { return topo.link(route[k]).delay; }, size, mtu, hdr);
}

}  // namespace m3
