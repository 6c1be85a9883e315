// Batch execution path: the columnar/SIMD pipeline must be answer-identical
// to the tuple path, surface its exec.batch.* counters in query profiles,
// and keep the inverted-index posting-cache copy counter at zero (the
// T-occurrence kernel counts directly over the cached dense-slot arrays).
// Operator-level cases pin the per-invocation argument memo and the
// NL-JOIN batch path with swapped argument sides against the tuple path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/logging.h"
#include "core/query_processor.h"
#include "hyracks/expr.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_join.h"
#include "observability/profile.h"
#include "similarity/simd_kernels.h"
#include "storage/file_util.h"
#include "storage/inverted_index.h"

namespace simdb {
namespace {

using adm::Value;

class BatchExecTest : public ::testing::Test {
 protected:
  BatchExecTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_batch_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    core::EngineOptions options;
    options.data_dir = dir_;
    options.topology = {2, 2};
    options.num_threads = 2;
    engine_ = std::make_unique<core::QueryProcessor>(options);
  }
  ~BatchExecTest() override { storage::RemoveAllBestEffort(dir_); }

  void LoadReviews() {
    ASSERT_TRUE(
        engine_->Execute("create dataset Reviews primary key id;").ok());
    struct Row {
      int64_t id;
      const char* name;
      const char* summary;
    };
    const Row rows[] = {
        {1, "james", "this movie touched my heart"},
        {2, "mary", "great product fantastic gift"},
        {3, "mario", "different than my usual but good"},
        {4, "jamie", "better ever than i expected"},
        {5, "maria", "the best car charger i ever bought"},
        {6, "marla", "great product really fantastic gift"},
        {7, "bob", "xy"},
        {8, "al", "great gift"},
    };
    for (const Row& r : rows) {
      ASSERT_TRUE(engine_
                      ->Insert("Reviews",
                               Value::MakeObject(
                                   {{"id", Value::Int64(r.id)},
                                    {"reviewerName", Value::String(r.name)},
                                    {"summary", Value::String(r.summary)}}))
                      .ok());
    }
    ASSERT_TRUE(
        engine_
            ->Execute(
                "create index nix on Reviews(reviewerName) type ngram(2);"
                "create index smix on Reviews(summary) type keyword;")
            .ok());
  }

  /// Runs a query and returns its sorted JSON rows.
  std::vector<std::string> Run(const std::string& aql) {
    core::QueryResult result;
    Status s = engine_->Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    last_ = std::move(result);
    std::vector<std::string> rows;
    for (const Value& v : last_.rows) rows.push_back(v.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Sums a counter across every operator of the last profiled query.
  /// Returns -1 when no operator emitted it at all.
  int64_t ProfileCounter(const std::string& name) {
    if (last_.profile == nullptr) return -1;
    bool found = false;
    uint64_t total = 0;
    for (const obs::OperatorProfile& op : last_.profile->operators) {
      for (const auto& [n, v] : op.counters) {
        if (n == name) {
          found = true;
          total += v;
        }
      }
    }
    return found ? static_cast<int64_t>(total) : -1;
  }

  std::string dir_;
  std::unique_ptr<core::QueryProcessor> engine_;
  core::QueryResult last_;
};

const char* kJaccardSelect =
    "for $t in dataset Reviews where "
    "similarity-jaccard(word-tokens($t.summary), "
    "word-tokens('great product fantastic gift')) >= 0.5 "
    "return $t.id";

const char* kEditDistanceSelect =
    "for $t in dataset Reviews "
    "where edit-distance($t.reviewerName, 'marla') <= 1 "
    "return $t.id";

const char* kJaccardJoin =
    "count(for $o in dataset Reviews for $i in dataset Reviews "
    "where similarity-jaccard(word-tokens($o.summary), "
    "word-tokens($i.summary)) >= 0.5 and $o.id < $i.id "
    "return {'o': $o.id, 'i': $i.id})";

// The batch path keeps the posting-cache copy counter at zero: ScanCount
// counts occurrences directly over the cached dense-slot arrays. Forcing
// batch execution off flips the same searches onto the gather path, which
// must report the copies it makes.
TEST_F(BatchExecTest, PostingCacheCopiesDropToZeroOnBatchPath) {
  LoadReviews();
  engine_->set_profile_queries(true);

  std::vector<std::string> batched = Run(kJaccardSelect);
  ASSERT_NE(last_.profile, nullptr);
  EXPECT_EQ(ProfileCounter("invindex.posting_cache.bytes_copied"), 0);
  // The index probe and the verify SELECT vectorize (plain ASSIGNs in the
  // same plan legitimately report fallback rows).
  EXPECT_GT(ProfileCounter("exec.batch.rows"), 0);

  engine_->set_batch_execution(false);
  std::vector<std::string> tuple = Run(kJaccardSelect);
  EXPECT_GT(ProfileCounter("invindex.posting_cache.bytes_copied"), 0);
  EXPECT_EQ(ProfileCounter("exec.batch.rows"), 0);
  EXPECT_GT(ProfileCounter("exec.batch.fallback_rows"), 0);

  EXPECT_EQ(batched, tuple);
}

// Every batch-capable operator always emits the full exec.batch.* set when
// profiling (zeros included) — the CI catalogue diff relies on profile
// counter names being a deterministic function of the operators that ran.
TEST_F(BatchExecTest, BatchCounterTrioPresentInProfile) {
  LoadReviews();
  engine_->set_profile_queries(true);
  Run(kJaccardSelect);
  ASSERT_NE(last_.profile, nullptr);
  for (const char* name : {"exec.batch.rows", "exec.batch.batches",
                           "exec.batch.fallback_rows", "exec.batch.memo_hits"}) {
    EXPECT_GE(ProfileCounter(name), 0) << name << " missing from profile";
  }
  EXPECT_GT(ProfileCounter("exec.batch.batches"), 0);
}

// Batch on/off must be answer-identical across plan shapes: indexed
// selection (Jaccard + edit distance), similarity join, and the three-stage
// join (index joins disabled).
TEST_F(BatchExecTest, BatchAndTupleRowsIdentical) {
  LoadReviews();
  const std::string queries[] = {kJaccardSelect, kEditDistanceSelect,
                                 kJaccardJoin};
  std::vector<std::vector<std::string>> batched;
  for (const std::string& q : queries) batched.push_back(Run(q));
  // Three-stage shape.
  engine_->opt_context().enable_index_join = false;
  batched.push_back(Run(kJaccardJoin));
  engine_->opt_context().enable_index_join = true;

  engine_->set_batch_execution(false);
  std::vector<std::vector<std::string>> tuple;
  for (const std::string& q : queries) tuple.push_back(Run(q));
  engine_->opt_context().enable_index_join = false;
  tuple.push_back(Run(kJaccardJoin));

  ASSERT_EQ(batched.size(), tuple.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], tuple[i]) << "query " << i;
  }
  EXPECT_FALSE(batched[0].empty());
  EXPECT_FALSE(batched[1].empty());
}

// Small batch sizes chunk the pipeline without changing answers.
TEST_F(BatchExecTest, TinyBatchSizeIsAnswerIdentical) {
  LoadReviews();
  std::vector<std::string> big = Run(kJaccardSelect);
  engine_->set_batch_size(2);
  std::vector<std::string> tiny = Run(kJaccardSelect);
  EXPECT_EQ(big, tiny);
  engine_->set_batch_size(1024);
}

// Direct storage-layer check: SearchTOccurrence with a scratch (counter
// array over dense slots) must return exactly the gather path's pks and
// copy nothing, while the gather path reports its copies.
TEST(InvertedIndexBatchTest, ScratchPathMatchesGatherAndCopiesNothing) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_batch_idx_" + std::to_string(::getpid())))
                        .string();
  storage::RemoveAllBestEffort(dir);
  auto index = storage::InvertedIndex::Open(dir);
  ASSERT_TRUE(index.ok());
  std::vector<std::pair<std::string, int64_t>> postings;
  for (int64_t pk = 0; pk < 200; ++pk) {
    postings.emplace_back("tok" + std::to_string(pk % 7), pk);
    postings.emplace_back("tok" + std::to_string((pk + 1) % 7), pk);
    postings.emplace_back("rare" + std::to_string(pk % 31), pk);
  }
  ASSERT_TRUE((*index)->BulkLoad(std::move(postings)).ok());

  const std::vector<std::string> query = {"tok1", "tok2", "tok3", "rare5"};
  for (int t = 1; t <= 3; ++t) {
    storage::InvertedSearchStats gather_stats;
    auto gather = (*index)->SearchTOccurrence(query, t, &gather_stats);
    ASSERT_TRUE(gather.ok());
    EXPECT_GT(gather_stats.bytes_copied, 0u);

    simd::TOccurrenceScratch scratch;
    storage::InvertedSearchStats batch_stats;
    auto batched =
        (*index)->SearchTOccurrence(query, t, &batch_stats, &scratch);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(batch_stats.bytes_copied, 0u);
    EXPECT_EQ(*gather, *batched) << "t=" << t;
    EXPECT_TRUE(std::is_sorted(batched->begin(), batched->end()));
  }
  storage::RemoveAllBestEffort(dir);
}

// ---------- operator level: argument memo, swapped NL-JOIN sides ----------

/// One operator run with batch execution on or off: its rows (as JSON, in
/// output order) or its status, and its counters.
struct OpRun {
  Status status;
  std::vector<std::string> rows;
  hyracks::OpCounterSink sink;

  uint64_t Counter(const char* name) const {
    uint64_t total = 0;
    for (const auto& [n, v] : sink.entries) {
      if (std::strcmp(n, name) == 0) total += v;
    }
    return total;
  }
};

OpRun RunPartition(hyracks::PartitionOperator& op,
                   const std::vector<const hyracks::Rows*>& inputs,
                   bool batch, int batch_size = 1024) {
  OpRun run;
  hyracks::ExecContext ctx;
  ctx.batch_execution = batch;
  ctx.batch_size = batch_size;
  ctx.counters = &run.sink;
  Result<hyracks::Rows> out = op.ExecutePartition(ctx, 0, inputs);
  run.status = out.status();
  if (out.ok()) {
    for (const hyracks::Tuple& row : *out) {
      std::string line;
      for (const Value& v : row) line += v.ToJson() + "|";
      run.rows.push_back(std::move(line));
    }
  }
  return run;
}

hyracks::ExprPtr MustCall(const std::string& name,
                          std::vector<hyracks::ExprPtr> args) {
  Result<hyracks::ExprPtr> e = hyracks::Call(name, std::move(args));
  SIMDB_CHECK(e.ok()) << e.status().ToString();
  return *e;
}

hyracks::ExprPtr Field(hyracks::ExprPtr base, const std::string& field) {
  return std::make_shared<hyracks::FieldAccessExpr>(std::move(base), field);
}

Value Ints(std::vector<int64_t> items) {
  Value::Array out;
  for (int64_t i : items) out.push_back(Value::Int64(i));
  return Value::MakeArray(std::move(out));
}

Value Strs(std::vector<std::string> items) {
  Value::Array out;
  for (const std::string& s : items) out.push_back(Value::String(s));
  return Value::MakeArray(std::move(out));
}

void ExpectSameRun(const OpRun& batched, const OpRun& tuple) {
  EXPECT_EQ(batched.status.code(), tuple.status.code());
  EXPECT_EQ(batched.status.ToString(), tuple.status.ToString());
  EXPECT_EQ(batched.rows, tuple.rows);
}

// Repeated strings on both sides go through one shared memo (both arguments
// are word-tokens of a string) and answer exactly as the tuple path does.
TEST(ArgMemoTest, RepeatedStringsOnBothSidesAnswerIdentically) {
  const char* texts[] = {"great product fantastic gift", "great gift",
                         "great great gift gift", "", "xy"};
  hyracks::Rows in;
  for (int i = 0; i < 40; ++i) {
    in.push_back({Value::String(texts[i % 5]),
                  Value::String(texts[(i * 3 + 1) % 5])});
  }
  hyracks::SelectOp op(MustCall(
      "similarity-jaccard-check",
      {MustCall("word-tokens", {hyracks::Col(0, "a")}),
       MustCall("word-tokens", {hyracks::Col(1, "b")}),
       hyracks::Lit(Value::Double(0.5))}));
  OpRun batched = RunPartition(op, {&in}, true);
  OpRun tuple = RunPartition(op, {&in}, false);
  ASSERT_TRUE(batched.status.ok()) << batched.status.ToString();
  ExpectSameRun(batched, tuple);
  EXPECT_FALSE(batched.rows.empty());
  // 80 arguments over 5 distinct strings: 5 encodings, 75 memo hits.
  EXPECT_EQ(batched.Counter("exec.batch.memo_hits"), 75u);
  EXPECT_EQ(batched.Counter("exec.batch.rows"), 40u);
  EXPECT_EQ(tuple.Counter("exec.batch.memo_hits"), 0u);
}

// Memoized encodings keep EncodePair's dispatch: an empty token list (from
// a memoized empty string) pairs with int lists in the int64 space, with
// string lists in the string space, and mixed or non-list values fall back
// to the tuple evaluator.
TEST(ArgMemoTest, EmptyTokenListsAgainstIntListsKeepDispatch) {
  const Value others[] = {Ints({1, 2}),       Ints({}),
                          Strs({"a", "b"}),   Strs({"b", "b"}),
                          Value::MakeArray({Value::String("a"),
                                            Value::Int64(1)}),
                          Ints({7, 7, 8})};
  const char* texts[] = {"", "a b", "", "b b"};
  hyracks::Rows in;
  for (int i = 0; i < 48; ++i) {
    in.push_back({Value::String(texts[i % 4]), others[i % 6]});
  }
  for (double delta : {0.0, 0.5, 1.0}) {
    hyracks::SelectOp op(MustCall(
        "similarity-jaccard-check",
        {MustCall("word-tokens", {hyracks::Col(0, "a")}),
         hyracks::Col(1, "b"), hyracks::Lit(Value::Double(delta))}));
    OpRun batched = RunPartition(op, {&in}, true);
    OpRun tuple = RunPartition(op, {&in}, false);
    ASSERT_TRUE(batched.status.ok()) << batched.status.ToString();
    ExpectSameRun(batched, tuple);
    // arg_a reads 3 distinct strings (45 hits); arg_b reads no string.
    EXPECT_EQ(batched.Counter("exec.batch.memo_hits"), 45u) << delta;
    // The mixed list (8 rows) and "a b" / "b b" against the non-empty
    // [7, 7, 8] (8 rows) fall back; "" against it stays batched.
    EXPECT_EQ(batched.Counter("exec.batch.fallback_rows"), 16u) << delta;
  }
}

// An argument whose Eval fails is never memoized: a repeated erroring
// string input gives the tuple path's status, on batch and tuple path.
TEST(ArgMemoTest, RepeatedErroringInputKeepsTupleStatus) {
  hyracks::Rows in = {
      {Strs({"a"}), Value::String("a b")},
      {Strs({"a"}), Value::String("a b")},
      {Value::String("oops"), Value::String("a b")},
      {Value::String("oops"), Value::String("a b")},
  };
  hyracks::SelectOp op(MustCall(
      "similarity-jaccard-check",
      {MustCall("word-tokens", {hyracks::Col(1, "b")}),
       MustCall("sort-list", {hyracks::Col(0, "a")}),
       hyracks::Lit(Value::Double(0.5))}));
  OpRun batched = RunPartition(op, {&in}, true);
  OpRun tuple = RunPartition(op, {&in}, false);
  EXPECT_FALSE(tuple.status.ok());
  ExpectSameRun(batched, tuple);
  // The error also surfaces when the erroring string comes first.
  hyracks::Rows reversed(in.rbegin(), in.rend());
  batched = RunPartition(op, {&reversed}, true);
  tuple = RunPartition(op, {&reversed}, false);
  EXPECT_FALSE(tuple.status.ok());
  ExpectSameRun(batched, tuple);
}

// Arguments that compute different functions of the same string keep
// separate memos: "a b" read raw is not a list, so the tuple path's type
// error must surface even after word-tokens("a b") was memoized.
TEST(ArgMemoTest, DifferentFunctionsOfOneStringDoNotShareEntries) {
  hyracks::Rows in = {{Value::String("a b"), Strs({"a", "b"})},
                      {Value::String("c"), Value::String("a b")}};
  hyracks::SelectOp op(MustCall(
      "similarity-jaccard-check",
      {MustCall("word-tokens", {hyracks::Col(0, "a")}), hyracks::Col(1, "b"),
       hyracks::Lit(Value::Double(0.5))}));
  OpRun batched = RunPartition(op, {&in}, true);
  OpRun tuple = RunPartition(op, {&in}, false);
  EXPECT_EQ(tuple.status.code(), StatusCode::kTypeError);
  ExpectSameRun(batched, tuple);
}

// The edit-distance corner-case join reads its search key from the right
// input and the record from the left: edit-distance-check($skey@1,
// $r@0.name, k). The batch path takes it (no tuple fallback) and is
// bit-identical to the tuple path.
TEST(SwappedSidesNlJoinTest, EditDistanceBatchesAndMatchesTuplePath) {
  const char* names[] = {"maria", "mario", "marla", "jo", "j", "bob", "bo"};
  hyracks::Rows left, right;
  for (int64_t i = 0; i < 7; ++i) {
    left.push_back({Value::MakeObject({{"id", Value::Int64(i)},
                                       {"name", Value::String(names[i])}})});
  }
  for (const char* key : {"jo", "b", "ma", "", "mari"}) {
    right.push_back({Value::String(key)});
  }
  for (int64_t k : {0, 1, 2}) {
    hyracks::NestedLoopJoinOp op(MustCall(
        "edit-distance-check",
        {hyracks::Col(1, "skey"), Field(hyracks::Col(0, "r"), "name"),
         hyracks::Lit(Value::Int64(k))}));
    OpRun batched = RunPartition(op, {&left, &right}, true);
    OpRun tuple = RunPartition(op, {&left, &right}, false);
    ASSERT_TRUE(batched.status.ok()) << batched.status.ToString();
    ExpectSameRun(batched, tuple);
    EXPECT_FALSE(batched.rows.empty()) << k;
    EXPECT_EQ(batched.Counter("exec.batch.fallback_rows"), 0u) << k;
    EXPECT_EQ(batched.Counter("exec.batch.rows"), 35u) << k;
  }
}

// Swapped-side Jaccard join: every placement of erroring values reports the
// tuple path's first error. The tuple path evaluates a(r0), b(l0),
// a(r1..rn), b(l1..), and the two arguments fail with different messages.
TEST(SwappedSidesNlJoinTest, JaccardFirstErrorMatchesTuplePath) {
  const std::vector<std::string> lefts[] = {
      {"a", "b", "c"}, {"b", "c"}, {"a", "b", "c"}};
  const char* rights[] = {"a b", "a b c", "c", "a b"};
  hyracks::ExprPtr pred = MustCall(
      "similarity-jaccard-check",
      {MustCall("word-tokens", {hyracks::Col(1, "skey")}),
       MustCall("sort-list", {Field(hyracks::Col(0, "r"), "tokens")}),
       hyracks::Lit(Value::Double(0.6))});
  hyracks::NestedLoopJoinOp op(pred);
  // Bit i of `bad` (over 3 left + 4 right rows) swaps row i's value for
  // one that fails sort-list (left: a string) or word-tokens (right: an
  // int).
  for (int bad = 0; bad < (1 << 7); ++bad) {
    hyracks::Rows left, right;
    for (int i = 0; i < 3; ++i) {
      Value tokens = (bad >> i & 1) != 0 ? Value::String("x")
                                         : Strs(lefts[i]);
      left.push_back({Value::MakeObject({{"tokens", tokens}})});
    }
    for (int j = 0; j < 4; ++j) {
      right.push_back({(bad >> (3 + j) & 1) != 0
                           ? Value::Int64(j)
                           : Value::String(rights[j])});
    }
    OpRun batched = RunPartition(op, {&left, &right}, true);
    OpRun tuple = RunPartition(op, {&left, &right}, false);
    ExpectSameRun(batched, tuple);
    if (bad == 0) {
      ASSERT_TRUE(batched.status.ok());
      EXPECT_FALSE(batched.rows.empty());
      EXPECT_EQ(batched.Counter("exec.batch.fallback_rows"), 0u);
      // Repeated strings on each side hit the shared memo.
      EXPECT_GT(batched.Counter("exec.batch.memo_hits"), 0u);
    }
  }
}

// A predicate error on a pair of the first left row (the kernels cannot
// take a non-list) comes before a later right row's argument error, in
// either argument order, as on the tuple path.
TEST(SwappedSidesNlJoinTest, FirstRowPredicateErrorPrecedesLaterArgError) {
  hyracks::Rows left = {{Value::MakeObject({{"x", Value::Int64(5)}})},
                        {Value::MakeObject({{"x", Strs({"a"})}})}};
  hyracks::Rows right = {{Value::String("a")}, {Value::Int64(7)}};
  hyracks::ExprPtr l = Field(hyracks::Col(0, "l"), "x");
  hyracks::ExprPtr r = MustCall("word-tokens", {hyracks::Col(1, "r")});
  for (bool swapped : {false, true}) {
    hyracks::NestedLoopJoinOp op(
        MustCall("similarity-jaccard-check",
                 {swapped ? r : l, swapped ? l : r,
                  hyracks::Lit(Value::Double(0.5))}));
    OpRun batched = RunPartition(op, {&left, &right}, true);
    OpRun tuple = RunPartition(op, {&left, &right}, false);
    EXPECT_EQ(tuple.status.ToString(),
              "TypeError: similarity-jaccard expects two lists");
    ExpectSameRun(batched, tuple);
  }
}

// ---------- operator level: HASH-JOIN similarity residual ----------

// The batched HASH-JOIN residual against the tuple path. Keys match several
// build rows (and a NULL key or 1.0 against 1 match none); the probe lists
// include a mixed-type list (which the kernel cannot take, so those pairs
// fall back) and empty lists. Bit i of `bad` turns one row's value into a
// non-list its argument rejects: sort-list on a probe row's string, or
// word-tokens on a build row's int, with different messages, one of them on
// a build row no probe row matches. Rows, their order and the first error
// must be identical, in either argument order and for batch sizes that
// flush mid-probe.
TEST(HashJoinResidualTest, BatchedResidualMatchesTuplePath) {
  const Value mixed = Value::MakeArray({Value::String("a"), Value::Int64(1)});
  hyracks::ExprPtr l = MustCall("sort-list", {hyracks::Col(1, "ltokens")});
  hyracks::ExprPtr r = MustCall("word-tokens", {hyracks::Col(3, "rtext")});
  const size_t bad_left[] = {0, 1, 4};   // probe rows that can turn bad
  const size_t bad_right[] = {1, 2, 5};  // build rows; row 1 never matches
  for (bool swapped : {false, true}) {
    hyracks::HashJoinOp op(
        {0}, {0},
        MustCall("similarity-jaccard-check",
                 {swapped ? r : l, swapped ? l : r,
                  hyracks::Lit(Value::Double(0.5))}));
    for (int bad = 0; bad < 64; ++bad) {
      hyracks::Rows left = {
          {Value::Int64(1), Strs({"a", "b", "c"})},
          {Value::Int64(2), Strs({"b", "b"})},
          {Value::Int64(1), Strs({})},
          {Value::Int64(3), mixed},
          {Value::Int64(2), Strs({"c"})},
          {Value::Null(), Strs({"a"})},
          {Value::Int64(1), Strs({"a", "b"})},
      };
      hyracks::Rows right = {
          {Value::Int64(1), Value::String("b a")},
          {Value::Int64(99), Value::String("never matches")},
          {Value::Int64(2), Value::String("b")},
          {Value::Int64(1), Value::String("c b a")},
          {Value::Int64(3), Value::String("a")},
          {Value::Int64(2), Value::String("")},
          {Value::Int64(1), Value::String("a")},
          {Value::Int64(3), Value::String("b b")},
          {Value::Double(1.0), Value::String("a b")},
      };
      for (int i = 0; i < 3; ++i) {
        if ((bad >> i & 1) != 0) left[bad_left[i]][1] = Value::String("x");
        if ((bad >> (3 + i) & 1) != 0) right[bad_right[i]][1] = Value::Int64(7);
      }
      for (int batch_size : {1, 3, 1024}) {
        SCOPED_TRACE("swapped=" + std::to_string(swapped) + " bad=" +
                     std::to_string(bad) +
                     " batch_size=" + std::to_string(batch_size));
        OpRun batched = RunPartition(op, {&left, &right}, true, batch_size);
        OpRun tuple = RunPartition(op, {&left, &right}, false, batch_size);
        ExpectSameRun(batched, tuple);
        // Only the build row no probe row matches may fail unnoticed.
        EXPECT_EQ(tuple.status.ok(), (bad & ~(1 << 3)) == 0);
        if (bad != 0) continue;
        ASSERT_TRUE(batched.status.ok()) << batched.status.ToString();
        EXPECT_FALSE(batched.rows.empty());
        EXPECT_EQ(batched.Counter("join.matches"),
                  tuple.Counter("join.matches"));
        EXPECT_EQ(batched.Counter("join.residual_dropped"),
                  tuple.Counter("join.residual_dropped"));
        // The mixed list's pairs fall back; everything else is batched.
        EXPECT_EQ(batched.Counter("exec.batch.fallback_rows"), 2u);
        EXPECT_EQ(batched.Counter("exec.batch.rows") +
                      batched.Counter("exec.batch.fallback_rows"),
                  batched.Counter("join.matches"));
        EXPECT_EQ(tuple.Counter("exec.batch.rows"), 0u);
      }
    }
  }
}

// Join keys match on bit-exact equality, as the key encoding they replace
// did: 1 and 1.0, -0.0 and 0.0 differ; the same NaN, equal strings and
// equal lists match.
TEST(HashJoinResidualTest, KeysMatchBitExactly) {
  const double nan = std::nan("");
  hyracks::Rows left = {{Value::Int64(1)},       {Value::Double(-0.0)},
                        {Value::Double(nan)},    {Value::String("k")},
                        {Ints({1, 2})},          {Value::Missing()}};
  hyracks::Rows right = {{Value::Double(1.0)},   {Value::Double(0.0)},
                         {Value::Double(nan)},   {Value::String("k")},
                         {Ints({1, 2})},         {Value::Int64(1)},
                         {Value::Missing()}};
  hyracks::HashJoinOp op({0}, {0});
  OpRun run = RunPartition(op, {&left, &right}, true);
  ASSERT_TRUE(run.status.ok());
  EXPECT_EQ(run.rows, (std::vector<std::string>{
                          "1|1|", "nan|nan|", "\"k\"|\"k\"|", "[1,2]|[1,2]|"}));
}

}  // namespace
}  // namespace simdb
