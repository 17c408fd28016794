// In-memory span recorder for the traced runs. Spans are opened and closed
// by the benchmark's own code around calls into each layer's public
// functions (the program under test is not instrumented). Each span has a
// name, start, end, parent span and request id; all are kept in memory and
// written out once, when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace m3perf {

struct Span {
  const char* name = "";  // static string: the layer function's metric name
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the span list, -1 for a root
  std::uint64_t request = 0;  // spans of one query share this id
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer();

  /// A fresh request id.
  std::uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// Opens a span whose parent is this thread's innermost open span.
  int Begin(const char* name, std::uint64_t request);
  void End(int id);
  /// Records a finished span measured elsewhere (e.g. across threads).
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          std::uint64_t request, int parent = -1);

  /// Self time per span name and request: a span's duration minus the part
  /// of it its child spans cover, summed over the request's spans of that
  /// name. Milliseconds.
  std::map<std::string, std::map<std::uint64_t, double>> SelfMs() const;
  /// Median over requests of SelfMs()[name]; 0 when no request has it.
  double MedianSelfMs(const std::string& name) const;

  /// Writes one JSON object per span. False on I/O failure.
  bool Write(const std::string& path) const;
  std::size_t size() const;

 private:
  std::int64_t Now() const;

  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_request_{0};
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t request)
      : t_(t), id_(t.Begin(name, request)) {}
  ~ScopedSpan() { t_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  const int id_;
};

}  // namespace m3perf
