// Checks the task-graph scheduler against oracles computed in the test
// itself: exact outputs (byte-identical serialization, not just multisets)
// and exact error strings for injected failures, under pool sizes 1, 2 and 8
// and with no pool at all, plus identical OpStats traffic counters across
// pool sizes. Diamond and REPLICATE (shared-node) job shapes, exchanges
// (hash, broadcast, gather, merge-gather) and barrier operators
// (RANK-ASSIGN, a wrong-partition-count barrier) are all exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"
#include "hyracks/budget.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_group.h"
#include "hyracks/ops_scan.h"
#include "hyracks/scheduler.h"

namespace simdb::hyracks {
namespace {

using adm::Value;

/// Deterministic source: `per_partition` ints per partition, valued so every
/// partition's rows are distinct.
class IntSourceOp : public PartitionOperator {
 public:
  explicit IntSourceOp(int per_partition) : per_partition_(per_partition) {}
  std::string name() const override { return "INT-SOURCE"; }
  int num_inputs() const override { return 0; }
  Result<Rows> ExecutePartition(ExecContext&, int p,
                                const std::vector<const Rows*>&) override {
    Rows rows;
    rows.reserve(static_cast<size_t>(per_partition_));
    for (int i = 0; i < per_partition_; ++i) {
      rows.push_back({Value::Int64(p * 1000 + i)});
    }
    return rows;
  }

 private:
  int per_partition_;
};

/// Passes rows through, failing on the listed partitions.
class FailOp : public PartitionOperator {
 public:
  explicit FailOp(std::set<int> bad) : bad_(std::move(bad)) {}
  std::string name() const override { return "FAIL"; }
  Result<Rows> ExecutePartition(ExecContext&, int p,
                                const std::vector<const Rows*>& inputs)
      override {
    if (bad_.count(p) > 0) {
      return Status::Internal("boom " + std::to_string(p));
    }
    return *inputs[0];
  }

 private:
  std::set<int> bad_;
};

/// Exact serialization: partition order and row order must match, not just
/// the multiset — the scheduler is deterministic.
std::string Serialize(const PartitionedRows& rows) {
  std::string out;
  for (size_t p = 0; p < rows.size(); ++p) {
    out += "p" + std::to_string(p) + ":";
    for (const Tuple& t : rows[p]) {
      out += "[";
      for (const Value& v : t) out += v.ToJson() + ",";
      out += "]";
    }
    out += "\n";
  }
  return out;
}

/// Everything in OpStats that must be identical across pool sizes (timings
/// excluded).
std::vector<std::string> SummarizeOps(const ExecStats& stats) {
  std::vector<std::string> out;
  for (const OpStats& op : stats.ops) {
    std::string s = std::to_string(op.node_id) + " " + op.name + " in=[";
    for (int in : op.input_ops) s += std::to_string(in) + ",";
    s += "] barrier=" + std::to_string(op.barrier) +
         " stage=" + std::to_string(op.stage) +
         " rows_in=" + std::to_string(op.rows_in) +
         " rows=" + std::to_string(op.rows_out) +
         " local=" + std::to_string(op.local_bytes) +
         " remote=" + std::to_string(op.remote_bytes) +
         " transfers=" + std::to_string(op.remote_transfers) + " parts=[";
    for (uint64_t r : op.partition_rows) s += std::to_string(r) + ",";
    s += "]";
    out.push_back(std::move(s));
  }
  return out;
}

struct RunOutcome {
  Status status = Status::OK();
  std::string rows;
  std::vector<std::string> ops;
};

RunOutcome RunJob(const Job& job, size_t pool_size) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
  ExecStats stats;
  ExecContext ctx;
  ctx.pool = pool.get();
  ctx.topology = {2, 2};  // 2 nodes x 2 partitions
  ctx.stats = &stats;
  Result<PartitionedRows> out = Scheduler::Run(job, ctx);
  RunOutcome o;
  EXPECT_TRUE(stats.has_task_dag);
  if (out.ok()) {
    o.rows = Serialize(*out);
    o.ops = SummarizeOps(stats);
  } else {
    o.status = out.status();
  }
  return o;
}

constexpr int kParts = 4;  // RunJob's 2x2 topology
constexpr size_t kPoolSizes[] = {0, 1, 2, 8};  // 0 = no pool (inline)

/// Runs `job` at every pool size and checks each run against the expected
/// serialized rows; OpStats must match the inline run's exactly.
void ExpectRowsAtEveryPoolSize(const Job& job, const std::string& expected) {
  std::vector<std::string> inline_ops;
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    EXPECT_EQ(o.rows, expected) << "pool " << pool;
    if (pool == 0) inline_ops = o.ops;
    EXPECT_EQ(o.ops, inline_ops) << "pool " << pool;
  }
}

/// Runs `job` at every pool size (several trials each, so failures race)
/// and checks the reported error.
void ExpectErrorAtEveryPoolSize(const Job& job, StatusCode code,
                                const std::string& expected) {
  for (size_t pool : kPoolSizes) {
    for (int trial = 0; trial < 5; ++trial) {
      RunOutcome o = RunJob(job, pool);
      ASSERT_FALSE(o.status.ok()) << "pool " << pool;
      EXPECT_EQ(o.status.code(), code) << "pool " << pool;
      EXPECT_EQ(o.status.message(), expected) << "pool " << pool;
    }
  }
}

/// A job result with every row in partition 0.
std::string GatheredRows(Rows rows) {
  PartitionedRows out(kParts);
  out[0] = std::move(rows);
  return Serialize(out);
}

/// Diamond: one source feeding two branches that reunite, then a hash
/// repartition, group, per-partition sort and a merge gather.
Job MakeDiamondJob() {
  Job job;
  int src =
      job.Add(std::make_unique<IntSourceOp>(50), {}, RowSchema({"v"}));
  int hi = job.Add(std::make_unique<SelectOp>(
                       *Call("gt", {Col(0, "v"), Lit(Value::Int64(1500))})),
                   {src}, RowSchema({"v"}));
  int doubled = job.Add(
      std::make_unique<AssignOp>(
          std::vector<ExprPtr>{*Call("mul", {Col(0, "v"),
                                             Lit(Value::Int64(2))})},
          std::vector<std::string>{"v2"}),
      {src}, RowSchema({"v", "v2"}));
  int proj = job.Add(std::make_unique<ProjectOp>(std::vector<int>{1}),
                     {doubled}, RowSchema({"v2"}));
  int uni = job.Add(std::make_unique<UnionAllOp>(), {hi, proj},
                    RowSchema({"v"}));
  int hx = job.Add(std::make_unique<HashExchangeOp>(std::vector<int>{0}),
                   {uni}, RowSchema({"v"}));
  int grp = job.Add(
      std::make_unique<HashGroupOp>(
          std::vector<ExprPtr>{Col(0, "v")},
          std::vector<AggSpec>{{AggSpec::Kind::kCount, nullptr, "cnt"}}),
      {hx}, RowSchema({"v", "cnt"}));
  int sorted = job.Add(std::make_unique<SortOp>(std::vector<SortKey>{{0, true}}),
                       {grp}, RowSchema({"v", "cnt"}));
  job.Add(std::make_unique<MergeGatherOp>(std::vector<SortKey>{{0, true}}),
          {sorted}, RowSchema({"v", "cnt"}));
  return job;
}

/// REPLICATE: a shared node with two consumers (one through a broadcast),
/// gathered and rank-assigned (a barrier operator) at the root.
Job MakeReplicateJob() {
  Job job;
  int src =
      job.Add(std::make_unique<IntSourceOp>(20), {}, RowSchema({"v"}));
  int shared = job.Add(
      std::make_unique<AssignOp>(
          std::vector<ExprPtr>{*Call("mul", {Col(0, "v"),
                                             Lit(Value::Int64(3))})},
          std::vector<std::string>{"v3"}),
      {src}, RowSchema({"v", "v3"}));
  int branch_a = job.Add(std::make_unique<ProjectOp>(std::vector<int>{1}),
                         {shared}, RowSchema({"v3"}));
  int branch_b = job.Add(std::make_unique<ProjectOp>(std::vector<int>{0}),
                         {shared}, RowSchema({"v"}));
  int bcast = job.Add(std::make_unique<BroadcastExchangeOp>(), {branch_b},
                      RowSchema({"v"}));
  int uni = job.Add(std::make_unique<UnionAllOp>(), {branch_a, bcast},
                    RowSchema({"x"}));
  int gather =
      job.Add(std::make_unique<GatherOp>(), {uni}, RowSchema({"x"}));
  job.Add(std::make_unique<RankAssignOp>(), {gather},
          RowSchema({"x", "rank"}));
  return job;
}

/// The diamond's answer from IntSourceOp(50)'s values alone: every v > 1500
/// once plus every 2v, counted per value, merged into ascending order.
std::string DiamondExpected() {
  std::map<int64_t, int64_t> counts;
  for (int p = 0; p < kParts; ++p) {
    for (int i = 0; i < 50; ++i) {
      int64_t v = p * 1000 + i;
      if (v > 1500) ++counts[v];
      ++counts[2 * v];
    }
  }
  Rows rows;
  for (const auto& [v, n] : counts) {
    rows.push_back({Value::Int64(v), Value::Int64(n)});
  }
  return GatheredRows(std::move(rows));
}

/// The REPLICATE job's answer: partition p holds 3v for its own source rows,
/// then the broadcast copy of every v; gathered in partition order and
/// ranked from 0.
std::string ReplicateExpected() {
  Rows rows;
  for (int p = 0; p < kParts; ++p) {
    for (int i = 0; i < 20; ++i) {
      rows.push_back({Value::Int64(3 * (p * 1000 + i))});
    }
    for (int q = 0; q < kParts; ++q) {
      for (int i = 0; i < 20; ++i) rows.push_back({Value::Int64(q * 1000 + i)});
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r].push_back(Value::Int64(static_cast<int64_t>(r)));
  }
  return GatheredRows(std::move(rows));
}

TEST(SchedulerTest, DiamondMatchesOracleAtEveryPoolSize) {
  ExpectRowsAtEveryPoolSize(MakeDiamondJob(), DiamondExpected());
}

TEST(SchedulerTest, ReplicateMatchesOracleAtEveryPoolSize) {
  ExpectRowsAtEveryPoolSize(MakeReplicateJob(), ReplicateExpected());
}

TEST(SchedulerTest, LowestFailingPartitionWinsUnderAnyInterleaving) {
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  int fail = job.Add(std::make_unique<FailOp>(std::set<int>{1, 3}), {src},
                     RowSchema({"v"}));
  job.Add(std::make_unique<GatherOp>(), {fail}, RowSchema({"v"}));
  ExpectErrorAtEveryPoolSize(job, StatusCode::kInternal,
                             "node 1 (FAIL): partition 1: boom 1");
}

TEST(SchedulerTest, LowestFailingNodeWinsAcrossParallelBranches) {
  // Two independent branches fail; the lower node id must be reported no
  // matter which branch's task happens to fail first on the pool.
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  int f1 = job.Add(std::make_unique<FailOp>(std::set<int>{3}), {src},
                   RowSchema({"v"}));
  int f2 = job.Add(std::make_unique<FailOp>(std::set<int>{0}), {src},
                   RowSchema({"v"}));
  int uni =
      job.Add(std::make_unique<UnionAllOp>(), {f1, f2}, RowSchema({"v"}));
  job.Add(std::make_unique<GatherOp>(), {uni}, RowSchema({"v"}));
  ExpectErrorAtEveryPoolSize(job, StatusCode::kInternal,
                             "node 1 (FAIL): partition 3: boom 3");
}

TEST(SchedulerTest, ExchangeRoutingErrorIsNodeLevel) {
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  job.Add(std::make_unique<HashExchangeOp>(std::vector<int>{5}), {src},
          RowSchema({"v"}));
  ExpectErrorAtEveryPoolSize(
      job, StatusCode::kInternal,
      "node 1 (HASH-EXCHANGE): HASH-EXCHANGE key column out of range");
}

TEST(SchedulerTest, BarrierOperatorErrorIsNodeLevel) {
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  job.Add(std::make_unique<RankAssignOp>(), {src}, RowSchema({"v", "rank"}));
  ExpectErrorAtEveryPoolSize(job, StatusCode::kInternal,
                             "node 1 (RANK-ASSIGN): RANK-ASSIGN requires a "
                             "gathered (single-partition) input");
}

/// A barrier that returns one partition whatever the topology.
class OnePartitionBarrierOp : public BarrierOperator {
 public:
  std::string name() const override { return "ONE-PARTITION"; }
  Result<PartitionedRows> Execute(
      ExecContext&,
      const std::vector<const PartitionedRows*>& inputs) override {
    PartitionedRows out(1);
    for (const Rows& part : *inputs[0]) {
      out[0].insert(out[0].end(), part.begin(), part.end());
    }
    return out;
  }
};

TEST(SchedulerTest, WrongPartitionCountIsANodeFailure) {
  // Reported with the node prefix like every other node failure, and the
  // consumer downstream of it never runs.
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  int bad = job.Add(std::make_unique<OnePartitionBarrierOp>(), {src},
                    RowSchema({"v"}));
  job.Add(std::make_unique<FailOp>(std::set<int>{0, 1, 2, 3}), {bad},
          RowSchema({"v"}));
  ExpectErrorAtEveryPoolSize(
      job, StatusCode::kInternal,
      "node 1 (ONE-PARTITION): produced 1 partitions, expected 4");
}

TEST(SchedulerTest, ValidationErrorIsNodeLevel) {
  // DATA-SCAN fails in Prepare (no catalog), while the graph is built: a
  // node-level error, without a partition.
  Job job;
  job.Add(std::make_unique<DataScanOp>("nonexistent"), {}, RowSchema({"t"}));
  ExpectErrorAtEveryPoolSize(job, StatusCode::kInternal,
                             "node 0 (DATA-SCAN(nonexistent)): no catalog");
}

TEST(SchedulerTest, SharedInputIsNotCorruptedByExchangeStealing) {
  // One node feeds both a gather and a hash exchange. Neither may steal
  // tuples from the shared input: the gather must deliver every source row
  // in order, and the hash exchange every row once, to its routed partition.
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(10), {}, RowSchema({"v"}));
  int g = job.Add(std::make_unique<GatherOp>(), {src}, RowSchema({"v"}));
  int hx = job.Add(std::make_unique<HashExchangeOp>(std::vector<int>{0}),
                   {src}, RowSchema({"v"}));
  job.Add(std::make_unique<UnionAllOp>(), {g, hx}, RowSchema({"v"}));
  PartitionedRows source(kParts);
  for (int p = 0; p < kParts; ++p) {
    for (int i = 0; i < 10; ++i) {
      source[static_cast<size_t>(p)].push_back({Value::Int64(p * 1000 + i)});
    }
  }
  ExecContext route_ctx;
  Result<ExchangeOperator::Routing> routing =
      HashExchangeOp({0}).Route(route_ctx, source);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();
  PartitionedRows expected(kParts);
  for (const Rows& part : source) {
    expected[0].insert(expected[0].end(), part.begin(), part.end());
  }
  for (size_t p = 0; p < source.size(); ++p) {
    for (size_t i = 0; i < source[p].size(); ++i) {
      expected[static_cast<size_t>(routing->destinations[p][i])].push_back(
          source[p][i]);
    }
  }
  ExpectRowsAtEveryPoolSize(job, Serialize(expected));
}

/// Merge gather whose one-shot Route() burns measurable wall time. Routing
/// stays implicit (empty table), like the real MergeGatherOp.
class SlowRouteMergeGatherOp : public MergeGatherOp {
 public:
  using MergeGatherOp::MergeGatherOp;
  std::string name() const override { return "SLOW-MERGE-GATHER"; }
  Result<Routing> Route(ExecContext& ctx, const PartitionedRows& in) override {
    Stopwatch sw;
    while (sw.ElapsedSeconds() < 0.1) {
    }
    return ExchangeOperator::Route(ctx, in);
  }
};

TEST(SchedulerTest, MergeGatherRouteTimeNotChargedToIdleDestinations) {
  // Regression: implicit-routing exchanges (gather, merge-gather, broadcast)
  // used to spread the one-shot Route() cost evenly over every destination
  // partition, so a merge-gather that steals all tuples into destination 0
  // charged idle victims 1/parts of the route time each. With a 100 ms burn
  // and 4 partitions the old even spread puts ~25 ms on each victim; the
  // fixed accounting leaves them at build-only cost (microseconds).
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(40), {}, RowSchema({"v"}));
  job.Add(std::make_unique<SlowRouteMergeGatherOp>(
              std::vector<SortKey>{{0, true}}),
          {src}, RowSchema({"v"}));
  for (size_t pool : {size_t{0}, size_t{2}}) {
    std::unique_ptr<ThreadPool> tp;
    if (pool > 0) tp = std::make_unique<ThreadPool>(pool);
    ExecStats stats;
    ExecContext ctx;
    ctx.pool = tp.get();
    ctx.topology = {2, 2};
    ctx.stats = &stats;
    Result<PartitionedRows> out = Scheduler::Run(job, ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const OpStats* mg = nullptr;
    for (const OpStats& op : stats.ops) {
      if (op.name == "SLOW-MERGE-GATHER") mg = &op;
    }
    ASSERT_NE(mg, nullptr);
    EXPECT_EQ(mg->partition_rows, (std::vector<uint64_t>{160, 0, 0, 0}));
    ASSERT_EQ(mg->partition_seconds.size(), 4u);
    for (int p = 1; p < 4; ++p) {
      EXPECT_LT(mg->partition_seconds[p], 0.010)
          << "victim partition " << p << " charged route time (pool " << pool
          << ")";
    }
  }
}

// ---------- Memory budget with shared row payloads ----------
//
// Rows share their string payloads across operators, while the budget
// charges every partition its logical bytes. These runs pin the contract:
// charged bytes return to exactly 0 after success, operator failure,
// cancellation and quota refusal, under every pool size, and the root
// output is never released (its rows hold shared string payloads, so a
// premature free is a use-after-free under ASan and a wrong answer here).

/// Rows of an id and a string too long to stay inline (a shared payload).
class LongStringSourceOp : public PartitionOperator {
 public:
  std::string name() const override { return "LONG-STRING-SOURCE"; }
  int num_inputs() const override { return 0; }
  Result<Rows> ExecutePartition(ExecContext&, int p,
                                const std::vector<const Rows*>&) override {
    Rows rows;
    for (int i = 0; i < 40; ++i) {
      int64_t id = p * 1000 + i;
      rows.push_back({Value::Int64(id),
                      Value::String("payload-shared-by-every-copy-" +
                                    std::to_string(id))});
    }
    return rows;
  }
};

/// Passes rows through; the first task to run it cancels the query.
class CancelOp : public PartitionOperator {
 public:
  explicit CancelOp(CancellationToken* token) : token_(token) {}
  std::string name() const override { return "CANCEL"; }
  Result<Rows> ExecutePartition(ExecContext&, int,
                                const std::vector<const Rows*>& inputs)
      override {
    token_->RequestCancel();
    return *inputs[0];
  }

 private:
  CancellationToken* token_;
};

/// Source -> ASSIGN -> HASH-EXCHANGE -> `middle` -> SORT -> MERGE-GATHER ->
/// PROJECT: local, exchange and barrier-free tasks each release inputs.
Job MakeBudgetJob(std::unique_ptr<PartitionOperator> middle) {
  Job job;
  int src = job.Add(std::make_unique<LongStringSourceOp>(), {},
                    RowSchema({"id", "s"}));
  int assigned = job.Add(
      std::make_unique<AssignOp>(
          std::vector<ExprPtr>{*Call("mul", {Col(0, "id"),
                                             Lit(Value::Int64(7))})},
          std::vector<std::string>{"id7"}),
      {src}, RowSchema({"id", "s", "id7"}));
  int hx = job.Add(std::make_unique<HashExchangeOp>(std::vector<int>{2}),
                   {assigned}, RowSchema({"id", "s", "id7"}));
  int mid = job.Add(std::move(middle), {hx}, RowSchema({"id", "s", "id7"}));
  int sorted = job.Add(
      std::make_unique<SortOp>(std::vector<SortKey>{{0, false}}), {mid},
      RowSchema({"id", "s", "id7"}));
  int gathered = job.Add(
      std::make_unique<MergeGatherOp>(std::vector<SortKey>{{0, false}}),
      {sorted}, RowSchema({"id", "s", "id7"}));
  job.Add(std::make_unique<ProjectOp>(std::vector<int>{1, 0}), {gathered},
          RowSchema({"s", "id"}));
  return job;
}

struct BudgetedRun {
  Status status = Status::OK();
  std::string rows;
  int64_t in_use_after = -1;
  int64_t peak = 0;
};

BudgetedRun RunWithBudget(const Job& job, size_t pool_size,
                          int64_t max_memory_bytes,
                          const CancellationToken* cancel = nullptr) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
  ResourceBudget budget(max_memory_bytes, /*max_tasks=*/0);
  ExecContext ctx;
  ctx.pool = pool.get();
  ctx.topology = {2, 2};
  ctx.budget = &budget;
  ctx.cancel = cancel;
  Result<PartitionedRows> out = Scheduler::Run(job, ctx);
  BudgetedRun r;
  r.in_use_after = budget.memory_in_use();
  r.peak = budget.peak_memory_bytes();
  if (out.ok()) {
    r.rows = Serialize(*out);
  } else {
    r.status = out.status();
  }
  return r;
}

TEST(SchedulerBudgetTest, ChargesReturnToZeroAfterSuccess) {
  Job job = MakeBudgetJob(std::make_unique<FailOp>(std::set<int>{}));
  // The budget job's answer: every (s, id) in descending id order.
  std::vector<int64_t> ids;
  for (int p = 0; p < kParts; ++p) {
    for (int i = 0; i < 40; ++i) ids.push_back(p * 1000 + i);
  }
  std::sort(ids.rbegin(), ids.rend());
  Rows rows;
  for (int64_t id : ids) {
    rows.push_back({Value::String("payload-shared-by-every-copy-" +
                                  std::to_string(id)),
                    Value::Int64(id)});
  }
  const std::string expected = GatheredRows(std::move(rows));
  for (size_t pool : kPoolSizes) {
    for (int rep = 0; rep < 5; ++rep) {
      BudgetedRun r = RunWithBudget(job, pool, /*max_memory_bytes=*/0);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      // The root output survived every release and is read after the run.
      EXPECT_EQ(r.rows, expected) << "pool " << pool;
      EXPECT_GT(r.peak, 0) << "pool " << pool;
      EXPECT_EQ(r.in_use_after, 0) << "pool " << pool;
    }
  }
}

TEST(SchedulerBudgetTest, ChargesReturnToZeroAfterOperatorFailure) {
  Job job = MakeBudgetJob(std::make_unique<FailOp>(std::set<int>{1, 3}));
  for (size_t pool : kPoolSizes) {
    for (int rep = 0; rep < 5; ++rep) {
      BudgetedRun r = RunWithBudget(job, pool, /*max_memory_bytes=*/0);
      EXPECT_EQ(r.status.code(), StatusCode::kInternal) << "pool " << pool;
      EXPECT_NE(r.status.message().find("boom 1"), std::string::npos)
          << r.status.ToString();
      EXPECT_GT(r.peak, 0) << "pool " << pool;
      EXPECT_EQ(r.in_use_after, 0) << "pool " << pool;
    }
  }
}

TEST(SchedulerBudgetTest, ChargesReturnToZeroAfterCancellation) {
  for (size_t pool : kPoolSizes) {
    for (int rep = 0; rep < 5; ++rep) {
      CancellationToken token;
      Job job = MakeBudgetJob(std::make_unique<CancelOp>(&token));
      BudgetedRun r = RunWithBudget(job, pool, /*max_memory_bytes=*/0, &token);
      EXPECT_EQ(r.status.code(), StatusCode::kCancelled)
          << "pool " << pool << ": " << r.status.ToString();
      EXPECT_GT(r.peak, 0) << "pool " << pool;
      EXPECT_EQ(r.in_use_after, 0) << "pool " << pool;
    }
  }
}

TEST(SchedulerBudgetTest, ChargesReturnToZeroAfterQuotaRefusal) {
  Job job = MakeBudgetJob(std::make_unique<FailOp>(std::set<int>{}));
  BudgetedRun unlimited = RunWithBudget(job, 2, /*max_memory_bytes=*/0);
  ASSERT_TRUE(unlimited.status.ok());
  for (size_t pool : kPoolSizes) {
    BudgetedRun r = RunWithBudget(job, pool, unlimited.peak / 2);
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << "pool " << pool << ": " << r.status.ToString();
    EXPECT_EQ(r.in_use_after, 0) << "pool " << pool;
  }
}

}  // namespace
}  // namespace simdb::hyracks
