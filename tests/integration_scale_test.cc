// Integration tests at a few-thousand-record scale using the calibrated
// synthetic datasets: the full paper query workload (Figures 21/23/26) runs
// through every optimizer path and the answers of rival plans must agree.
// These are the same queries the benchmarks time, run here as correctness
// checks under ctest.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/logging.h"
#include "core/query_processor.h"
#include "datagen/textgen.h"
#include "storage/file_util.h"

namespace simdb::core {
namespace {

class IntegrationScaleTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRecords = 2500;

  IntegrationScaleTest() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_integ_" + std::to_string(::getpid())))
               .string();
    storage::RemoveAllBestEffort(dir_);
    EngineOptions options;
    options.data_dir = dir_;
    options.topology = {4, 2};  // the paper's 2-partitions-per-node layout
    options.num_threads = 2;
    engine_ = std::make_unique<QueryProcessor>(options);

    Status s = engine_->Execute(
        "create dataset AmazonReview primary key id;"
        "create index smix on AmazonReview(summary) type keyword;"
        "create index nix on AmazonReview(reviewerName) type ngram(2);");
    SIMDB_CHECK(s.ok()) << s.ToString();
    datagen::TextDatasetGenerator gen(datagen::AmazonProfile(), 2026);
    for (int64_t i = 0; i < kRecords; ++i) {
      SIMDB_CHECK(engine_->Insert("AmazonReview", gen.NextRecord(i)).ok());
    }
    gen_ = std::make_unique<datagen::TextDatasetGenerator>(std::move(gen));
  }
  ~IntegrationScaleTest() override { storage::RemoveAllBestEffort(dir_); }

  int64_t RunCount(const std::string& aql) {
    QueryResult result;
    Status s = engine_->Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    if (!s.ok() || result.rows.size() != 1 || !result.rows[0].is_int64()) {
      return -1;
    }
    return result.rows[0].AsInt64();
  }

  std::string dir_;
  std::unique_ptr<QueryProcessor> engine_;
  std::unique_ptr<datagen::TextDatasetGenerator> gen_;
};

TEST_F(IntegrationScaleTest, JaccardSelectionSweep) {
  datagen::WorkloadSampler sampler(gen_->texts(), 11);
  for (double threshold : {0.2, 0.5, 0.8}) {
    auto value = sampler.SampleWithMinWords(3);
    ASSERT_TRUE(value.ok());
    std::string query =
        "count(for $t in dataset AmazonReview where "
        "similarity-jaccard(word-tokens($t.summary), word-tokens('" + *value +
        "')) >= " + std::to_string(threshold) + " return $t)";
    int64_t indexed = RunCount(query);
    engine_->opt_context().enable_index_select = false;
    int64_t scanned = RunCount(query);
    engine_->opt_context().enable_index_select = true;
    EXPECT_EQ(indexed, scanned) << "threshold " << threshold;
    EXPECT_GE(indexed, 1);  // the query value itself is in the data
  }
}

TEST_F(IntegrationScaleTest, EditDistanceSelectionSweep) {
  datagen::WorkloadSampler sampler(gen_->names(), 13);
  for (int k : {1, 2, 3}) {
    auto value = sampler.SampleWithMinChars(8);
    ASSERT_TRUE(value.ok());
    std::string query =
        "count(for $t in dataset AmazonReview where "
        "edit-distance($t.reviewerName, '" + *value + "') <= " +
        std::to_string(k) + " return $t)";
    int64_t indexed = RunCount(query);
    engine_->opt_context().enable_index_select = false;
    int64_t scanned = RunCount(query);
    engine_->opt_context().enable_index_select = true;
    EXPECT_EQ(indexed, scanned) << "k " << k;
    EXPECT_GE(indexed, 1);
  }
}

TEST_F(IntegrationScaleTest, JoinPlansAgreeAtScale) {
  std::string query =
      "count(for $o in dataset AmazonReview for $i in dataset AmazonReview "
      "where similarity-jaccard(word-tokens($o.summary), "
      "word-tokens($i.summary)) >= 0.8 and $o.id < 40 and $o.id < $i.id "
      "return {'o': $o.id})";
  auto& opt = engine_->opt_context();
  int64_t indexed = RunCount(query);
  opt.enable_index_join = false;
  int64_t three_stage = RunCount(query);
  opt.enable_three_stage_join = false;
  int64_t nested = RunCount(query);
  opt.enable_index_join = true;
  opt.enable_three_stage_join = true;
  EXPECT_EQ(indexed, nested);
  EXPECT_EQ(three_stage, nested);
  EXPECT_GT(nested, 0);  // near-duplicates guarantee matches
}

TEST_F(IntegrationScaleTest, EditDistanceJoinWithCornersAtScale) {
  // Short names in the pool hit the runtime corner case for k=3.
  std::string query =
      "count(for $o in dataset AmazonReview for $i in dataset AmazonReview "
      "where edit-distance($o.reviewerName, $i.reviewerName) <= 3 "
      "and $o.id < 15 and $o.id < $i.id return {'o': $o.id})";
  int64_t indexed = RunCount(query);
  engine_->opt_context().enable_index_join = false;
  int64_t nested = RunCount(query);
  engine_->opt_context().enable_index_join = true;
  EXPECT_EQ(indexed, nested);
  EXPECT_GT(nested, 0);
}

TEST_F(IntegrationScaleTest, MultiWayOrderingsAgree) {
  std::string jac =
      "similarity-jaccard(word-tokens($o.summary), "
      "word-tokens($i.summary)) >= 0.8";
  std::string ed = "edit-distance($o.reviewerName, $i.reviewerName) <= 1";
  auto query = [&](const std::string& a, const std::string& b) {
    return "count(for $o in dataset AmazonReview "
           "for $i in dataset AmazonReview "
           "where $o.id < 30 and " + a + " and " + b +
           " and $o.id < $i.id return {'o': $o.id})";
  };
  int64_t jac_first = RunCount(query(jac, ed));
  int64_t ed_first = RunCount(query(ed, jac));
  engine_->opt_context().enable_index_join = false;
  int64_t no_index = RunCount(query(jac, ed));
  engine_->opt_context().enable_index_join = true;
  EXPECT_EQ(jac_first, ed_first);
  EXPECT_EQ(jac_first, no_index);
}

}  // namespace
}  // namespace simdb::core
