#ifndef SIMDB_HYRACKS_SCHEDULER_H_
#define SIMDB_HYRACKS_SCHEDULER_H_

#include "hyracks/exec.h"

namespace simdb::hyracks {

/// Dependency-scheduled task-graph executor: the one runtime every Job runs
/// on.
///
/// The job DAG of operators is expanded into a finer task graph:
///   - a partition-local node becomes one task per partition, depending only
///     on the same partition of each input — a partition pipelines through a
///     chain of local operators without waiting for its siblings;
///   - an exchange becomes one routing task (runs once, after every input
///     partition) plus one build task per destination partition, all builds
///     running in parallel;
///   - a BarrierOperator (RANK-ASSIGN, LIMIT) becomes a single barrier task
///     over its fully materialized inputs.
///
/// Ready tasks are submitted to the context's thread pool; intermediate
/// partitions are released as soon as their per-partition reference count
/// drops to zero. When no pool is available (or when invoked from a pool
/// worker) the graph runs inline in deterministic topological order.
///
/// Failure contract, identical under any pool size and interleaving: every
/// runnable task completes (tasks downstream of a failure are skipped, never
/// aborted mid-flight), then the failure of the lowest node id — and within
/// it the lowest partition, with node-level failures first — is reported as
/// "node N (NAME): [partition P: ]message". Only the serving checks
/// (cancellation, deadline, task and memory quotas) report their status
/// unprefixed.
class Scheduler {
 public:
  static Result<PartitionedRows> Run(const Job& job, ExecContext& ctx);

  /// The tuple-steal plan Run will use: steals[i] is true iff node i is an
  /// exchange whose single input has exactly one consumer edge. Exposed so
  /// the DAG verifier can check steal legality against the same decision the
  /// scheduler executes.
  static std::vector<bool> PlannedSteals(const Job& job);
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_SCHEDULER_H_
