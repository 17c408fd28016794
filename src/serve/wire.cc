#include "serve/wire.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "pathdecomp/path_topology.h"

namespace m3::serve {
namespace {

// Cache-key schema tags: bump when the hashed field set changes so old and
// new processes can never alias keys. v2 query key: + topology shape. v2
// path key: the flat scenario columns instead of the lot's links and routes.
constexpr const char* kQueryKeySchema = "m3d/query-key/v2";
constexpr const char* kPathKeySchema = "m3d/path-key/v2";

// Upper bound on decoded string lengths (pure overread/OOM protection).
constexpr std::uint64_t kMaxStrLen = 1u << 20;

// ----- field walkers -----
//
// Every payload struct declares its fields once, in wire order, as
// `template <class IO> Status Fields(IO&, T&)` further down. Three walkers
// share that list: Writer (encode), Reader (decode, which also applies each
// field's decode-time rule) and KeyHasher (cache keys). Each offers the same
// primitives: Scalar (a fixed-width integer, enum or double, by bit
// pattern, little-endian hosts), Bool (one byte, 0 or 1) and Str (u64
// length + bytes).

// Emits fields into a byte sink: a payload string or a Hasher. Emitting
// never fails; the Status return only matches the Reader's.
template <class Sink>
struct Emitter {
  static constexpr bool kDecoding = false;

  template <class T>
  Status Scalar(const T& v) {
    sink.Bytes(&v, sizeof v);
    return Status::Ok();
  }
  Status Bool(bool v) { return Scalar(static_cast<std::uint8_t>(v ? 1 : 0)); }
  Status Str(const std::string& s) {
    Scalar(static_cast<std::uint64_t>(s.size()));
    sink.Bytes(s.data(), s.size());
    return Status::Ok();
  }

  Sink sink;
};

struct StringSink {
  void Bytes(const void* p, std::size_t n) { out.append(static_cast<const char*>(p), n); }
  std::string out;
};

using Writer = Emitter<StringSink>;
using KeyHasher = Emitter<Hasher>;

class Reader {
 public:
  static constexpr bool kDecoding = true;

  explicit Reader(const std::string& s) : s_(s) {}

  template <class T>
  Status Scalar(T& v) {
    if (sizeof v > remaining()) return Truncated(sizeof v);
    std::memcpy(&v, s_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return Status::Ok();
  }
  Status Bool(bool& v) {
    std::uint8_t b = 0;
    M3_RETURN_IF_ERROR(Scalar(b));
    if (b > 1) return Status::InvalidArgument("wire: bool byte " + std::to_string(b));
    v = b != 0;
    return Status::Ok();
  }
  Status Str(std::string& v) {
    std::uint64_t len = 0;
    M3_RETURN_IF_ERROR(Scalar(len));
    if (len > kMaxStrLen) {
      return Status::InvalidArgument("wire: string length " + std::to_string(len));
    }
    M3_RETURN_IF_ERROR(Need(len));
    v.assign(s_, pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return Status::Ok();
  }

  Status Need(std::uint64_t n) const { return n > remaining() ? Truncated(n) : Status::Ok(); }
  std::size_t remaining() const { return s_.size() - pos_; }

  Status ExpectEnd() const {
    if (pos_ != s_.size()) {
      return Status::InvalidArgument("wire: " + std::to_string(remaining()) +
                                     " trailing bytes after message");
    }
    return Status::Ok();
  }

 private:
  // Kept out of line so the per-field fast path is small enough to inline.
  [[gnu::cold, gnu::noinline]] Status Truncated(std::uint64_t n) const {
    return Status::DataLoss("wire: truncated message (need " + std::to_string(n) +
                            " bytes at offset " + std::to_string(pos_) + ", have " +
                            std::to_string(remaining()) + ")");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ----- field kinds that carry a decode-time rule -----

// An unsigned code below `limit`; anything else is "wire: <what> <value>".
template <class T>
struct Below {
  T& v;
  unsigned limit;
  const char* what;
};

// A u64 count, then that many T records. A count larger than the remaining
// payload could hold is refused before anything is allocated.
template <class T>
struct Records {
  std::vector<T>& v;
  const char* what;
};

// A percentile vector: empty, or exactly kNumPercentiles values (the only
// widths AggregateBuckets/CombineBuckets produce; readers index up to p100).
struct Percentiles {
  std::vector<double>& v;
};

template <class T>
constexpr bool kIsFixedArray = std::is_array_v<T>;
template <class T, std::size_t N>
constexpr bool kIsFixedArray<std::array<T, N>> = true;

// One field, dispatched on its type; structs walk their own Fields list.
template <class IO, class T>
Status Field(IO& io, T& v) {
  using U = std::remove_const_t<T>;
  if constexpr (std::is_same_v<U, bool>) {
    return io.Bool(v);
  } else if constexpr (std::is_arithmetic_v<U> || std::is_enum_v<U>) {
    return io.Scalar(v);
  } else if constexpr (std::is_same_v<U, std::string>) {
    return io.Str(v);
  } else if constexpr (kIsFixedArray<U>) {
    for (auto& e : v) M3_RETURN_IF_ERROR(Field(io, e));
    return Status::Ok();
  } else {
    return Fields(io, v);
  }
}

// The fields in order; the first error stops the walk.
template <class IO, class F, class... Fs>
Status Seq(IO& io, F&& f, Fs&&... fs) {
  M3_RETURN_IF_ERROR(Field(io, f));
  if constexpr (sizeof...(fs) == 0) {
    return Status::Ok();
  } else {
    return Seq(io, fs...);
  }
}

// Encoded size of a default T: the fewest bytes one T record can take
// (empty strings and lists), which bounds a decoded record count.
template <class T>
std::uint64_t MinBytes() {
  static const std::uint64_t bytes = [] {
    Writer w;
    T t{};
    (void)Field(w, t);
    return w.sink.out.size();
  }();
  return bytes;
}

template <class IO, class T>
Status Field(IO& io, Below<T> f) {
  M3_RETURN_IF_ERROR(io.Scalar(f.v));
  if constexpr (IO::kDecoding) {
    const auto raw = static_cast<unsigned>(f.v);
    if (raw >= f.limit) {
      return Status::InvalidArgument(std::string("wire: ") + f.what + " " + std::to_string(raw));
    }
  }
  return Status::Ok();
}

template <class IO, class T>
Status Field(IO& io, Records<T> f) {
  std::uint64_t n = f.v.size();
  M3_RETURN_IF_ERROR(io.Scalar(n));
  if constexpr (IO::kDecoding) {
    // Division form: `n * record size` can wrap for a hostile 64-bit count,
    // which would let the resize below throw past the bounds check.
    if (n > io.remaining() / MinBytes<T>()) {
      return Status::DataLoss(std::string("wire: ") + f.what + " " + std::to_string(n) +
                              " exceeds the remaining payload");
    }
    f.v.resize(static_cast<std::size_t>(n));
  }
  for (T& e : f.v) M3_RETURN_IF_ERROR(Field(io, e));
  return Status::Ok();
}

template <class IO>
Status Field(IO& io, Percentiles f) {
  std::uint64_t n = f.v.size();
  M3_RETURN_IF_ERROR(io.Scalar(n));
  if constexpr (IO::kDecoding) {
    if (n != 0 && n != kNumPercentiles) {
      return Status::InvalidArgument("wire: percentile vector length " + std::to_string(n));
    }
    M3_RETURN_IF_ERROR(io.Need(n * sizeof(double)));
    f.v.resize(static_cast<std::size_t>(n));
  }
  for (double& d : f.v) M3_RETURN_IF_ERROR(io.Scalar(d));
  return Status::Ok();
}

// ----- the field lists -----

template <class IO>
Status Fields(IO& io, NetConfig& c) {
  return Seq(io, Below<CcType>{c.cc, kNumCcTypes, "cc protocol"}, c.init_window, c.buffer,
             c.pfc, c.dctcp_k, c.dcqcn_kmin, c.dcqcn_kmax, c.hpcc_eta, c.hpcc_rate_ai_gbps,
             c.timely_tlow, c.timely_thigh, c.mtu, c.hdr, c.seed);
}

template <class IO>
Status Fields(IO& io, WireTopo& t) {
  return Seq(io, t.pods, t.racks_per_pod, t.hosts_per_rack, t.fabric_per_pod,
             t.spines_per_plane);
}

template <class IO>
Status Fields(IO& io, WireFlow& f) {
  return Seq(io, f.id, f.src_host, f.dst_host, f.size, f.arrival, f.priority);
}

template <class IO>
Status Fields(IO& io, PathEstimate& pe) {
  return Seq(io, pe.pct, pe.counts);
}

// Code, then message; the code is range-checked once both are read.
template <class IO>
Status Fields(IO& io, Status& st) {
  std::int32_t code = static_cast<std::int32_t>(st.code());
  M3_RETURN_IF_ERROR(io.Scalar(code));
  if constexpr (!IO::kDecoding) {
    return io.Str(st.message());
  } else {
    std::string msg;
    M3_RETURN_IF_ERROR(io.Str(msg));
    if (code < 0 || code >= kNumStatusCodes) {
      return Status::InvalidArgument("wire: status code " + std::to_string(code));
    }
    st = Status(static_cast<StatusCode>(code), std::move(msg));
    return Status::Ok();
  }
}

template <class IO>
Status Fields(IO& io, DegradationReport& d) {
  return Seq(io, d.paths_ok, d.paths_cached, d.paths_retried, d.paths_degraded, d.paths_dropped,
             d.errors_exception, d.errors_nonfinite, d.errors_deadline, d.errors_validation,
             d.clamped_values, d.first_error, d.brownout_level, d.paths_brownout);
}

template <class IO>
Status Fields(IO& io, ShardReportWire& s) {
  return Seq(io, s.shard, s.slots_assigned, s.slots_ok, s.slots_fallback, s.slots_dropped,
             s.retries, s.breaker_open);
}

template <class IO>
Status Fields(IO& io, ShardHealthWire& s) {
  return Seq(io, s.address, s.healthy, s.breaker_open, s.model_version, s.dispatches,
             s.failures, s.retries, s.slots_fallback, s.slots_dropped);
}

template <class IO>
Status Fields(IO& io, ServerStatsWire& s) {
  return Seq(io, s.queries_received, s.queries_ok, s.queries_rejected, s.queries_failed,
             s.query_cache, s.path_cache, s.queue_depth, s.queue_capacity, s.workers,
             s.model_version, s.model_crc, s.reloads_ok, s.reloads_failed, s.model_path,
             s.worker_mode, s.workers_configured, s.workers_alive, s.worker_spawns,
             s.worker_restarts, s.worker_crashes, s.watchdog_kills, s.garbage_replies,
             s.crash_retried_queries, s.breaker_trips, s.breaker_open, s.quarantined_digests,
             s.router_mode, Records<ShardHealthWire>{s.shards, "shard health count"},
             s.queries_shed, s.shed_by_reason, s.brownout_queries, s.brownout_level,
             s.in_flight_cost, s.cost_budget, s.persist_enabled, s.persist_segments_loaded,
             s.persist_entries_loaded, s.persist_entries_flushed, s.persist_records_corrupt,
             s.persist_digest_dropped, s.persist_flush_backlog);
}

template <class IO>
Status Fields(IO& io, QueryRequest& q) {
  return Seq(io, q.oversub, q.topo, q.cfg, q.num_paths, q.seed, q.use_context, q.strict,
             q.deadline_seconds, q.max_attempts, q.no_cache,
             Below<std::uint8_t>{q.priority, kNumPriorityClasses, "priority class"},
             Below<std::uint8_t>{q.brownout, 3, "brownout level"},
             Records<WireFlow>{q.flows, "flow count"});
}

template <class IO>
Status Fields(IO& io, QueryResponse& r) {
  M3_RETURN_IF_ERROR(Field(io, r.status));
  for (auto& pct : r.bucket_pct) M3_RETURN_IF_ERROR(Field(io, Percentiles{pct}));
  return Seq(io, r.total_counts, Percentiles{r.combined_pct}, r.wall_seconds, r.degradation,
             r.model_version, r.model_crc, r.query_cache_hit,
             Below<std::uint8_t>{r.shed_reason, kNumShedReasons, "shed reason"},
             Records<ShardReportWire>{r.shards, "shard report count"});
}

template <class IO>
Status Fields(IO& io, ReloadRequest& r) {
  return Field(io, r.checkpoint_path);
}

template <class IO>
Status Fields(IO& io, ReloadResponse& r) {
  return Seq(io, r.status, r.model_version, r.model_crc);
}

template <class IO>
Status Fields(IO& io, PingResponse& p) {
  return Seq(io, p.ready, p.worker_mode, p.model_version, p.workers_alive, p.router_mode,
             p.shards_healthy, p.shards_total, p.model_crc);
}

template <class IO>
Status Fields(IO& io, ShardQueryRequest& r) {
  return Seq(io, r.query, Records<std::uint32_t>{r.slots, "slot count"});
}

template <class IO>
Status Fields(IO& io, SlotEstimateWire& s) {
  return Seq(io, s.slot, s.estimate);
}

template <class IO>
Status Fields(IO& io, ShardQueryResponse& r) {
  return Seq(io, r.status, r.degradation, r.model_version, r.model_crc, r.wall_seconds,
             Records<SlotEstimateWire>{r.estimates, "estimate count"});
}

template <class IO>
Status Fields(IO& io, RouterPathValue& v) {
  return Seq(io, v.model_version, v.model_crc, v.estimate);
}

// Writer and KeyHasher only read the fields they walk.
template <class T>
T& Mut(const T& v) {
  return const_cast<T&>(v);
}

// Every payload opens with the version tag.
template <class... T>
std::string Encode(const T&... msg) {
  Writer w;
  (void)Seq(w, kWireVersion, Mut(msg)...);
  return std::move(w.sink.out);
}

template <class T>
StatusOr<T> Decode(const std::string& payload) {
  Reader r(payload);
  std::uint32_t version = 0;
  M3_RETURN_IF_ERROR(r.Scalar(version));
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: protocol version " + std::to_string(version) +
                                   " (this build speaks " + std::to_string(kWireVersion) + ")");
  }
  T msg{};
  M3_RETURN_IF_ERROR(Field(r, msg));
  M3_RETURN_IF_ERROR(r.ExpectEnd());
  return msg;
}

// Appends `prefix`, one printf-formatted line and a newline to `out`.
[[gnu::format(printf, 3, 4)]] void AppendLine(std::string& out, const std::string& prefix,
                                              const char* fmt, ...) {
  va_list ap;
  va_list again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::max(0, std::vsnprintf(nullptr, 0, fmt, ap));
  va_end(ap);
  out += prefix;
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);  // + the NUL, then '\n'
  std::vsnprintf(&out[at], static_cast<std::size_t>(n) + 1, fmt, again);
  va_end(again);
  out.back() = '\n';
}

}  // namespace

std::string EncodeQueryRequest(const QueryRequest& req) { return Encode(req); }
StatusOr<QueryRequest> DecodeQueryRequest(const std::string& payload) {
  return Decode<QueryRequest>(payload);
}

std::string EncodeQueryResponse(const QueryResponse& resp) { return Encode(resp); }
StatusOr<QueryResponse> DecodeQueryResponse(const std::string& payload) {
  return Decode<QueryResponse>(payload);
}

std::string EncodeStatsRequest() { return Encode(); }

std::string EncodeStats(const ServerStatsWire& stats) { return Encode(stats); }
StatusOr<ServerStatsWire> DecodeStats(const std::string& payload) {
  return Decode<ServerStatsWire>(payload);
}

std::string FormatStats(const ServerStatsWire& s, const std::string& line_prefix) {
  using ull = unsigned long long;
  const std::string& p = line_prefix;
  std::string out;
  AppendLine(out, p, "model: %s (v%llu crc %08x), reloads %llu ok / %llu failed",
             s.model_path.empty() ? "<none>" : s.model_path.c_str(), ull(s.model_version),
             s.model_crc, ull(s.reloads_ok), ull(s.reloads_failed));
  AppendLine(out, p,
             "queries: %llu received, %llu ok, %llu rejected, %llu shed, %llu failed; "
             "queue %u/%u, %u workers",
             ull(s.queries_received), ull(s.queries_ok), ull(s.queries_rejected),
             ull(s.queries_shed), ull(s.queries_failed), s.queue_depth, s.queue_capacity,
             s.workers);
  if (s.queries_rejected > 0 || s.queries_shed > 0 || s.brownout_queries > 0 ||
      s.brownout_level > 0) {
    AppendLine(out, p,
               "overload: shed by reason — %llu queue-full, %llu priority, %llu expired, "
               "%llu sojourn, %llu cost-budget, %llu router-budget",
               ull(s.shed_by_reason[1]), ull(s.shed_by_reason[2]), ull(s.shed_by_reason[3]),
               ull(s.shed_by_reason[4]), ull(s.shed_by_reason[5]), ull(s.shed_by_reason[6]));
    AppendLine(out, p,
               "overload: brownout level %u, %llu browned-out queries; "
               "in-flight cost %.1f / %.1f budget",
               s.brownout_level, ull(s.brownout_queries), s.in_flight_cost, s.cost_budget);
  }
  const std::pair<const char*, const std::uint64_t*> caches[] = {{"query", s.query_cache},
                                                                 {" path", s.path_cache}};
  for (const auto& [name, c] : caches) {
    AppendLine(out, p,
               "%s cache: %llu hits / %llu misses, %llu inserts, %llu evictions, %llu entries",
               name, ull(c[0]), ull(c[1]), ull(c[2]), ull(c[3]), ull(c[4]));
  }
  if (s.persist_enabled) {
    AppendLine(out, p, "persist: %llu segments loaded, %llu entries recovered",
               ull(s.persist_segments_loaded), ull(s.persist_entries_loaded));
    AppendLine(out, p, "persist: %llu entries flushed, %llu flush backlog",
               ull(s.persist_entries_flushed), ull(s.persist_flush_backlog));
    AppendLine(out, p, "persist: %llu corrupt records skipped, %llu digest-mismatch drops",
               ull(s.persist_records_corrupt), ull(s.persist_digest_dropped));
  }
  if (s.worker_mode) {
    AppendLine(out, p,
               "worker pool: %u/%u alive; %llu spawns, %llu restarts, %llu crashes, "
               "%llu watchdog kills, %llu garbage replies",
               s.workers_alive, s.workers_configured, ull(s.worker_spawns),
               ull(s.worker_restarts), ull(s.worker_crashes), ull(s.watchdog_kills),
               ull(s.garbage_replies));
    AppendLine(out, p,
               "breaker: %llu trips, %u quarantined digest(s)%s; "
               "%llu queries retried after a worker crash",
               ull(s.breaker_trips), s.quarantined_digests, s.breaker_open ? " [OPEN]" : "",
               ull(s.crash_retried_queries));
  }
  if (s.router_mode) {
    AppendLine(out, p, "router: %zu shard(s)", s.shards.size());
    for (const ShardHealthWire& sh : s.shards) {
      AppendLine(out, p,
                 "  %s — %s%s, model v%llu; %llu dispatches, %llu failures, %llu retries, "
                 "%llu fallback slots, %llu dropped slots",
                 sh.address.c_str(), sh.healthy ? "healthy" : "unhealthy",
                 sh.breaker_open ? " [breaker open]" : "", ull(sh.model_version),
                 ull(sh.dispatches), ull(sh.failures), ull(sh.retries),
                 ull(sh.slots_fallback), ull(sh.slots_dropped));
    }
  }
  return out;
}

std::string EncodeReloadRequest(const ReloadRequest& req) { return Encode(req); }
StatusOr<ReloadRequest> DecodeReloadRequest(const std::string& payload) {
  return Decode<ReloadRequest>(payload);
}

std::string EncodeReloadResponse(const ReloadResponse& resp) { return Encode(resp); }
StatusOr<ReloadResponse> DecodeReloadResponse(const std::string& payload) {
  return Decode<ReloadResponse>(payload);
}

std::string EncodePingRequest() { return Encode(); }

std::string EncodePingResponse(const PingResponse& resp) { return Encode(resp); }
StatusOr<PingResponse> DecodePingResponse(const std::string& payload) {
  return Decode<PingResponse>(payload);
}

std::string EncodeShardQueryRequest(const ShardQueryRequest& req) { return Encode(req); }
StatusOr<ShardQueryRequest> DecodeShardQueryRequest(const std::string& payload) {
  return Decode<ShardQueryRequest>(payload);
}

std::string EncodeShardQueryResponse(const ShardQueryResponse& resp) { return Encode(resp); }
StatusOr<ShardQueryResponse> DecodeShardQueryResponse(const std::string& payload) {
  return Decode<ShardQueryResponse>(payload);
}

std::string EncodePathEstimateValue(const PathEstimate& pe) { return Encode(pe); }
StatusOr<PathEstimate> DecodePathEstimateValue(const std::string& payload) {
  return Decode<PathEstimate>(payload);
}

std::string EncodeRouterPathValue(const RouterPathValue& v) { return Encode(v); }
StatusOr<RouterPathValue> DecodeRouterPathValue(const std::string& payload) {
  return Decode<RouterPathValue>(payload);
}

Hash128 QueryCacheKey(const QueryRequest& req, const Hash128& model_digest) {
  KeyHasher k;
  k.sink.Str(kQueryKeySchema).U64(model_digest.hi).U64(model_digest.lo);
  QueryRequest& q = Mut(req);
  (void)Seq(k, q.use_context, q.oversub, q.topo, q.cfg, q.num_paths, q.seed,
            Records<WireFlow>{q.flows, "flow count"});
  return k.sink.Finish();
}

Hash128 PathCacheKey(const PathScenario& scenario, const NetConfig& cfg,
                     bool use_context, const Hash128& model_digest) {
  KeyHasher k;
  Hasher& h = k.sink;
  h.Str(kPathKeySchema);
  h.U64(model_digest.hi).U64(model_digest.lo);
  h.Bool(use_context);
  (void)Field(k, Mut(cfg));
  // The flat columns pin the chain, the access links and every flow's span
  // and ends; a flow's route follows from them.
  h.I32(scenario.num_links);
  for (int hop = 0; hop < scenario.num_links; ++hop) {
    h.F64(scenario.hop_rate[static_cast<std::size_t>(hop)])
        .I64(scenario.hop_delay[static_cast<std::size_t>(hop)]);
  }
  h.U64(scenario.access_hop.size());
  for (std::size_t a = 0; a < scenario.access_hop.size(); ++a) {
    h.I32(scenario.access_hop[a]).F64(scenario.access_rate[a]);
  }
  h.U64(scenario.flows.size());
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    // One 34-byte record per flow: the bytes I64 size, I64 arrival, U8
    // priority, Bool is_fg and I32 entry, exit, src_access, dst_access would
    // absorb one field at a time.
    const ChainFlow& f = scenario.flows[i];
    unsigned char rec[34];
    const auto put = [&rec](std::size_t at, const auto& v) {
      std::memcpy(rec + at, &v, sizeof v);
    };
    put(0, f.size);
    put(8, f.arrival);
    rec[16] = f.priority;
    rec[17] = scenario.is_fg[i] != 0 ? 1 : 0;
    put(18, static_cast<std::int32_t>(scenario.entry_hop[i]));
    put(22, static_cast<std::int32_t>(scenario.exit_hop[i]));
    put(26, f.src_access);
    put(30, f.dst_access);
    h.Bytes(rec, sizeof rec);
  }
  return k.sink.Finish();
}

}  // namespace m3::serve
