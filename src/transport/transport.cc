#include "transport/transport.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "adm/wire.h"
#include "common/logging.h"
#include "transport/internal.h"

namespace simdb::transport {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The paper-figure backend: no bytes move, nothing is timed; the exchange
/// keeps its counted traffic and the cost model charges the modeled network
/// formula, exactly as before the transport seam existed.
class ModeledTransport final : public Transport {
 public:
  TransportKind kind() const override { return TransportKind::kModeled; }
  bool measures_wall_clock() const override { return false; }
  bool ShouldShip(size_t, uint64_t) const override { return false; }
  Status Ship(int, hyracks::Rows*, double*) override { return Status::OK(); }
  Status Drain(double) override {
    internal::GetMetrics().drains->Increment();
    return Status::OK();
  }
};

/// Installed fragment interpreter. Written once, during static
/// initialization of hyracks/fragment.cc (single-threaded, pre-main, and
/// pre-fork), read-only afterwards — so plain loads are race-free and the
/// forked workers inherit the pointer.
FragmentInterpreter g_fragment_interpreter = nullptr;

}  // namespace

Status Transport::ExecuteFragment(int, const std::string&, std::string*,
                                  double*) {
  return Status::Unsupported(std::string("transport '") + name() +
                             "' does not execute fragments");
}

Status Transport::CancelFragments(uint64_t, double) { return Status::OK(); }

std::vector<int> Transport::worker_pids() { return {}; }

void InstallFragmentInterpreter(FragmentInterpreter fn) {
  g_fragment_interpreter = fn;
}

FragmentInterpreter InstalledFragmentInterpreter() {
  return g_fragment_interpreter;
}

namespace internal {

Metrics& GetMetrics() {
  static Metrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    Metrics handles;
    handles.frames_sent = reg.GetCounter("transport.frames_sent");
    handles.frames_received = reg.GetCounter("transport.frames_received");
    handles.bytes_sent = reg.GetCounter("transport.bytes_sent");
    handles.bytes_received = reg.GetCounter("transport.bytes_received");
    handles.ship_errors = reg.GetCounter("transport.ship_errors");
    handles.drains = reg.GetCounter("transport.drains");
    handles.workers_spawned = reg.GetCounter("transport.workers_spawned");
    handles.serialize_nanos = reg.GetHistogram("transport.serialize_nanos");
    handles.deserialize_nanos =
        reg.GetHistogram("transport.deserialize_nanos");
    handles.rtt_micros = reg.GetHistogram("transport.rtt_micros");
    return handles;
  }();
  return m;
}

FragmentMetrics& GetFragmentMetrics() {
  static FragmentMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    FragmentMetrics handles;
    handles.dispatched = reg.GetCounter("transport.fragment.dispatched");
    handles.errors = reg.GetCounter("transport.fragment.errors");
    handles.fallbacks = reg.GetCounter("transport.fragment.fallbacks");
    handles.cancels_sent = reg.GetCounter("transport.fragment.cancels_sent");
    handles.request_bytes = reg.GetCounter("transport.fragment.request_bytes");
    handles.reply_bytes = reg.GetCounter("transport.fragment.reply_bytes");
    handles.remote_compute_micros =
        reg.GetHistogram("transport.fragment.remote_compute_micros");
    return handles;
  }();
  return m;
}

bool SocketFragmentsFromEnv() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at transport
  // construction, same idiom as KindFromEnv below.
  const char* env = std::getenv("SIMDB_SOCKET_FRAGMENTS");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "false") != 0;
}

}  // namespace internal

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kModeled:
      return "modeled";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

TransportKind KindFromEnv(TransportKind fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at engine
  // construction, same idiom as the SIMDB_SIMD override.
  const char* env = std::getenv("SIMDB_TRANSPORT");
  if (env == nullptr) return fallback;
  if (std::strcmp(env, "modeled") == 0) return TransportKind::kModeled;
  if (std::strcmp(env, "socket") == 0) return TransportKind::kSocket;
  SIMDB_LOG(kWarn) << "SIMDB_TRANSPORT=" << env
                   << " is not a transport backend; using "
                   << TransportKindName(fallback);
  return fallback;
}

void EncodeRowsFrame(const hyracks::Rows& rows, std::string* out) {
  internal::Metrics& m = internal::GetMetrics();
  uint64_t start = NowNanos();
  std::string payload;
  ByteWriter w(&payload);
  w.PutU32(static_cast<uint32_t>(rows.size()));
  for (const hyracks::Tuple& row : rows) {
    w.PutU32(static_cast<uint32_t>(row.size()));
    for (const adm::Value& v : row) v.Serialize(&w);
  }
  adm::WriteFrame(payload, out);
  m.serialize_nanos->Observe(NowNanos() - start);
  m.frames_sent->Increment();
  m.bytes_sent->Add(out->size());
}

Result<hyracks::Rows> DecodeRowsFrame(std::string_view frame) {
  internal::Metrics& m = internal::GetMetrics();
  uint64_t start = NowNanos();
  ByteReader outer(frame);
  SIMDB_ASSIGN_OR_RETURN(std::string_view payload, adm::ReadFrame(&outer));
  ByteReader r(payload);
  SIMDB_ASSIGN_OR_RETURN(uint32_t nrows, r.GetU32());
  hyracks::Rows rows;
  rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    SIMDB_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
    hyracks::Tuple row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      SIMDB_ASSIGN_OR_RETURN(adm::Value v, adm::Value::Deserialize(&r));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("rows frame has " +
                              std::to_string(r.remaining()) +
                              " trailing payload bytes");
  }
  m.deserialize_nanos->Observe(NowNanos() - start);
  m.frames_received->Increment();
  m.bytes_received->Add(frame.size());
  return rows;
}

std::unique_ptr<Transport> MakeTransport(TransportKind kind, int num_nodes) {
  internal::GetMetrics();  // register the catalogue for every backend
  switch (kind) {
    case TransportKind::kModeled:
      return std::make_unique<ModeledTransport>();
    case TransportKind::kSocket:
      return internal::MakeSocketTransport(num_nodes);
  }
  return std::make_unique<ModeledTransport>();
}

}  // namespace simdb::transport
