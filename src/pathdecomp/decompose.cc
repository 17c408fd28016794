#include "pathdecomp/decompose.h"

#include <array>
#include <limits>
#include <stdexcept>

namespace m3 {
namespace {

std::uint64_t HashRoute(const Route& route) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ route.size();
  for (LinkId l : route) {
    h = (h ^ static_cast<std::uint32_t>(l)) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

PathDecomposition::PathDecomposition(const Topology& topo, const std::vector<Flow>& flows)
    : link_off_(topo.num_links() + 1, 0) {
  // Link -> flows, by counting sort: one pass counts, one pass places the
  // flows in ascending position.
  for (const Flow& f : flows) {
    for (LinkId l : f.path) ++link_off_[static_cast<std::size_t>(l) + 1];
  }
  for (std::size_t l = 1; l < link_off_.size(); ++l) link_off_[l] += link_off_[l - 1];
  link_flow_.resize(link_off_.back());
  std::vector<std::uint32_t> fill(link_off_.begin(), link_off_.end() - 1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (LinkId l : flows[i].path) {
      link_flow_[fill[static_cast<std::size_t>(l)]++] = static_cast<FlowId>(i);
    }
  }

  // Route -> path: an open-addressing table over route hashes, at most
  // half full. Each route is hashed once; a new route opens the next path.
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::size_t buckets = 2;
  while (buckets < 2 * flows.size()) buckets <<= 1;
  std::vector<std::uint32_t> table(buckets, kEmpty);
  std::vector<std::uint64_t> path_hash;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Route& route = flows[i].path;
    const std::uint64_t h = HashRoute(route);
    std::size_t b = static_cast<std::size_t>(h) & (buckets - 1);
    std::uint32_t p = table[b];
    while (p != kEmpty && !(path_hash[p] == h && paths_[p].links == route)) {
      b = (b + 1) & (buckets - 1);
      p = table[b];
    }
    if (p == kEmpty) {
      p = static_cast<std::uint32_t>(paths_.size());
      table[b] = p;
      path_hash.push_back(h);
      paths_.push_back(PathInfo{route, {}});
    }
    paths_[p].fg_flows.push_back(static_cast<FlowId>(i));
  }
}

std::vector<BgFlowOnPath> PathDecomposition::BackgroundFlows(std::size_t i) const {
  const PathInfo& p = paths_[i];
  const int n = static_cast<int>(p.links.size());
  if (n > 32) throw std::invalid_argument("BackgroundFlows: path too long (> 32 hops)");

  // One cursor per hop into that link's ascending flow list. Taking the
  // smallest head each round visits every flow on the path once, in
  // ascending position, together with the bitmask of hops it touches.
  std::array<const FlowId*, 32> at{};
  std::array<const FlowId*, 32> end{};
  for (int hop = 0; hop < n; ++hop) {
    const auto l = static_cast<std::size_t>(p.links[static_cast<std::size_t>(hop)]);
    at[static_cast<std::size_t>(hop)] = link_flow_.data() + link_off_[l];
    end[static_cast<std::size_t>(hop)] = link_flow_.data() + link_off_[l + 1];
  }

  const std::uint32_t full = n == 32 ? ~0u : ((1u << n) - 1u);
  std::vector<BgFlowOnPath> bg;
  for (;;) {
    FlowId fi = std::numeric_limits<FlowId>::max();
    bool any = false;
    for (std::size_t hop = 0; hop < static_cast<std::size_t>(n); ++hop) {
      if (at[hop] != end[hop] && *at[hop] <= fi) {
        fi = *at[hop];
        any = true;
      }
    }
    if (!any) break;
    std::uint32_t mask = 0;
    for (std::size_t hop = 0; hop < static_cast<std::size_t>(n); ++hop) {
      // A route that repeats a link lists the flow twice; skip both.
      while (at[hop] != end[hop] && *at[hop] == fi) {
        mask |= 1u << hop;
        ++at[hop];
      }
    }
    if (mask == full) continue;  // foreground (traverses all links)
    // ECMP siblings of the foreground flows can intersect the path
    // non-contiguously (e.g. share both host/ToR ends but take a different
    // spine). Each maximal contiguous run becomes its own background
    // segment: the full flow traverses each run, so each carries the
    // flow's size and arrival.
    int hop = 0;
    while (hop < n) {
      if (!(mask & (1u << hop))) {
        ++hop;
        continue;
      }
      int stop = hop;
      while (stop < n && (mask & (1u << stop))) ++stop;
      bg.push_back(BgFlowOnPath{fi, hop, stop});
      hop = stop;
    }
  }
  return bg;
}

std::vector<double> PathDecomposition::ForegroundWeights() const {
  std::vector<double> w;
  w.reserve(paths_.size());
  for (const PathInfo& p : paths_) w.push_back(static_cast<double>(p.fg_flows.size()));
  return w;
}

}  // namespace m3
