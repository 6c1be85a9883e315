#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace simbench {

/// One benchmark run, as the command line describes it.
struct RunOptions {
  std::string workload;  // select-serve | join-batch | join-serve | ingest-mixed
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics, tracing off. true: per-layer metrics from
  /// a traced run (spans kept in memory, profiles on).
  bool trace = false;
  /// Scratch directory for engine data and the trace file; removed data
  /// directories are recreated per run.
  std::string work_dir;
  /// Engine and serving worker threads: nproc.
  int threads = 1;
  /// Recorded in the provenance block only.
  std::string git_sha;
  std::string source_digest;
};

/// Everything a run reports. `details` is a JSON object (provenance and
/// run diagnostics) printed before the result line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::string details;
  std::string error;  // set when the run could not be carried out
};

bool IsWorkload(const std::string& name);
RunResult RunWorkload(const RunOptions& options);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
