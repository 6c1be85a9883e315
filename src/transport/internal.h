#ifndef SIMDB_TRANSPORT_INTERNAL_H_
#define SIMDB_TRANSPORT_INTERNAL_H_

#include <memory>

#include "observability/metrics.h"
#include "transport/transport.h"

namespace simdb::transport::internal {

/// Cached handles to the transport.* metrics (registry lookups take a mutex;
/// shipping is a hot path). Construction registers every name, so a snapshot
/// taken after MakeTransport always shows the full catalogue — the two-way
/// check in CI depends on that.
struct Metrics {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_received;
  obs::Counter* ship_errors;
  obs::Counter* drains;
  obs::Counter* workers_spawned;
  obs::Histogram* serialize_nanos;
  obs::Histogram* deserialize_nanos;
  obs::Histogram* rtt_micros;
};

Metrics& GetMetrics();

/// Cached handles to the transport.fragment.* metrics (docs/DISTRIBUTED.md).
/// Registered separately from Metrics and only by the socket backend: the
/// modeled backend never dispatches fragments, and registering the names
/// for it would put emitted-but-never-incremented metrics into every
/// paper-figure profile snapshot the catalogue check audits.
struct FragmentMetrics {
  obs::Counter* dispatched;
  obs::Counter* errors;
  obs::Counter* fallbacks;
  obs::Counter* cancels_sent;
  obs::Counter* request_bytes;
  obs::Counter* reply_bytes;
  obs::Histogram* remote_compute_micros;
};

FragmentMetrics& GetFragmentMetrics();

/// Parses the SIMDB_SOCKET_FRAGMENTS environment toggle. Fragment dispatch
/// is ON by default on the socket backend; "0"/"off"/"false" fall back to
/// the PR 8 echo protocol (workers validate and echo, partitions computed in
/// the parent) for A/B benchmarking.
bool SocketFragmentsFromEnv();

std::unique_ptr<Transport> MakeSocketTransport(int num_nodes);

}  // namespace simdb::transport::internal

#endif  // SIMDB_TRANSPORT_INTERNAL_H_
