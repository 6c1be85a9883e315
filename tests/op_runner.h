// Runs one operator over fixed partitioned inputs through Scheduler::Run, so
// operator tests exercise the same runtime as queries: every input becomes a
// source node that emits its partition p, and the operator under test is the
// job's root.
#ifndef SIMDB_TESTS_OP_RUNNER_H_
#define SIMDB_TESTS_OP_RUNNER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hyracks/exec.h"
#include "hyracks/scheduler.h"

namespace simdb::hyracks {

/// Source operator emitting partition p of a fixed input.
class FixedRowsOp : public PartitionOperator {
 public:
  explicit FixedRowsOp(PartitionedRows rows) : rows_(std::move(rows)) {}
  std::string name() const override { return "FIXED-ROWS"; }
  int num_inputs() const override { return 0; }
  Result<Rows> ExecutePartition(ExecContext&, int p,
                                const std::vector<const Rows*>&) override {
    return rows_[static_cast<size_t>(p)];
  }

 private:
  PartitionedRows rows_;
};

/// Runs `op` as the root of a job fed by one FixedRowsOp per input. Each
/// input must have ctx.topology.total_partitions() partitions. When `stats`
/// is non-null it receives the operator's OpStats (also on failure, when
/// any of its tasks ran).
inline Result<PartitionedRows> RunOp(
    const ExecContext& ctx, std::unique_ptr<Operator> op,
    const std::vector<const PartitionedRows*>& inputs,
    OpStats* stats = nullptr) {
  const size_t parts = static_cast<size_t>(ctx.topology.total_partitions());
  Job job;
  std::vector<int> sources;
  for (const PartitionedRows* in : inputs) {
    if (in->size() != parts) {
      return Status::Internal("input has " + std::to_string(in->size()) +
                              " partitions, topology has " +
                              std::to_string(parts));
    }
    sources.push_back(
        job.Add(std::make_unique<FixedRowsOp>(*in), {}, RowSchema()));
  }
  job.Add(std::move(op), std::move(sources), RowSchema());
  ExecStats exec_stats;
  ExecContext run_ctx = ctx;
  run_ctx.stats = &exec_stats;
  Result<PartitionedRows> out = Scheduler::Run(job, run_ctx);
  if (stats != nullptr) {
    for (OpStats& s : exec_stats.ops) {
      if (s.node_id == job.root()) *stats = std::move(s);
    }
  }
  return out;
}

}  // namespace simdb::hyracks

#endif  // SIMDB_TESTS_OP_RUNNER_H_
