#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace m3perf {
namespace {

// Innermost-last stack of the spans open on this thread.
thread_local std::vector<int> t_open;

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int Tracer::Begin(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = t_open.empty() ? -1 : t_open.back();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(s);
  }
  t_open.push_back(id);
  // Stamp last so the bookkeeping above is not charged to the span.
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].start_ns = now;
  return id;
}

void Tracer::End(int id) {
  const std::int64_t now = Now();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int Tracer::Add(const char* name, Clock::time_point start, Clock::time_point end,
                std::uint64_t request, int parent) {
  Span s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count();
  s.parent = parent;
  s.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, std::map<std::uint64_t, double>> Tracer::SelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  }
  // Children of one parent run one after another on its thread, so their
  // durations are disjoint parts of the parent's interval.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, std::map<std::uint64_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name][spans_[i].request] += self[i];
  }
  return out;
}

double Tracer::MedianSelfMs(const std::string& name) const {
  const auto all = SelfMs();
  const auto it = all.find(name);
  if (it == all.end() || it->second.empty()) return 0.0;
  std::vector<double> v;
  for (const auto& [req, ms] : it->second) v.push_back(ms);
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"request\": %llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace m3perf
