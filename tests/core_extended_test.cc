#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/query_processor.h"
#include "core/three_stage.h"
#include "observability/profile.h"
#include "storage/file_util.h"

namespace simdb::core {
namespace {

using adm::Value;

class CoreExtendedTest : public ::testing::Test {
 protected:
  CoreExtendedTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_corex_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    EngineOptions options;
    options.data_dir = dir_;
    options.topology = {2, 2};
    options.num_threads = 2;
    engine_ = std::make_unique<QueryProcessor>(options);
  }
  ~CoreExtendedTest() override { storage::RemoveAllBestEffort(dir_); }

  void Load(const std::string& dataset,
            const std::vector<std::pair<std::string, std::string>>& rows) {
    ASSERT_TRUE(
        engine_->Execute("create dataset " + dataset + " primary key id;")
            .ok());
    int64_t id = 1;
    for (const auto& [name, text] : rows) {
      ASSERT_TRUE(engine_
                      ->Insert(dataset,
                               Value::MakeObject(
                                   {{"id", Value::Int64(id++)},
                                    {"name", Value::String(name)},
                                    {"text", Value::String(text)}}))
                      .ok());
    }
  }

  int64_t RunCount(const std::string& aql) {
    QueryResult result;
    Status s = engine_->Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    last_ = result;
    if (result.rows.size() != 1 || !result.rows[0].is_int64()) return -1;
    return result.rows[0].AsInt64();
  }

  bool RuleFired(const std::string& name) {
    return std::find(last_.fired_rules.begin(), last_.fired_rules.end(),
                     name) != last_.fired_rules.end();
  }

  std::string dir_;
  std::unique_ptr<QueryProcessor> engine_;
  QueryResult last_;
};

// ---------- cross-dataset three-stage join (union token order) ----------

TEST_F(CoreExtendedTest, CrossDatasetThreeStageMatchesNl) {
  Load("Left", {{"a", "red apple pie"},
                {"b", "green apple pie"},
                {"c", "blue sky high"},
                {"d", ""}});
  Load("Right", {{"x", "red apple pie"},
                 {"y", "totally different words here"},
                 {"z", "green apple tart"},
                 {"w", ""}});
  std::string query =
      "count(for $l in dataset Left for $r in dataset Right "
      "where similarity-jaccard(word-tokens($l.text), "
      "word-tokens($r.text)) >= 0.5 return {'l': $l.id, 'r': $r.id})";
  int64_t three_stage = RunCount(query);
  EXPECT_TRUE(RuleFired("three-stage-similarity-join"));
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested = RunCount(query);
  EXPECT_FALSE(RuleFired("three-stage-similarity-join"));
  EXPECT_EQ(three_stage, nested);
  EXPECT_GE(three_stage, 2);  // at least (a,x) and the apple-pie overlaps
}

TEST_F(CoreExtendedTest, FilteredSidesStillAgree) {
  Load("Docs", {{"a", "one two three"},
                {"b", "one two three"},
                {"c", "one two four"},
                {"d", "five six seven"},
                {"e", "one two three"}});
  // Different filters on the two sides force the union-based token order.
  std::string query =
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where similarity-jaccard(word-tokens($l.text), "
      "word-tokens($r.text)) >= 0.6 and $l.id <= 3 and $r.id >= 2 "
      "return {'l': $l.id, 'r': $r.id})";
  int64_t three_stage = RunCount(query);
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested = RunCount(query);
  EXPECT_EQ(three_stage, nested);
}

// ---------- contains() join through the n-gram index ----------

TEST_F(CoreExtendedTest, ContainsJoinIndexMatchesNl) {
  Load("Serials", {{"KX750-A11", "p1"},
                   {"KX750-B20", "p2"},
                   {"QM300-C05", "p3"},
                   {"X7", "p4"}});
  Load("Fragments", {{"750", "f1"}, {"300-C", "f2"}, {"Q", "f3"}});
  ASSERT_TRUE(engine_
                  ->Execute("create index six on Serials(name) type ngram(2);")
                  .ok());
  std::string query =
      "count(for $f in dataset Fragments for $s in dataset Serials "
      "where contains($s.name, $f.name) return {'f': $f.id, 's': $s.id})";
  int64_t indexed = RunCount(query);
  EXPECT_TRUE(RuleFired("introduce-similarity-index-join"));
  engine_->opt_context().enable_index_join = false;
  int64_t nested = RunCount(query);
  engine_->opt_context().enable_index_join = true;
  // "Q" is shorter than the gram length -> runtime corner-case path.
  EXPECT_EQ(indexed, nested);
  EXPECT_EQ(indexed, 2 + 1 + 1);  // 750 in two serials, 300-C in one, Q in one
}

// ---------- exact-match via the secondary B+-tree ----------

TEST_F(CoreExtendedTest, ExactMatchSelectionUsesBtree) {
  Load("Users", {{"maria", "t"}, {"james", "t"}, {"maria", "u"}});
  ASSERT_TRUE(
      engine_->Execute("create index nbt on Users(name) type btree;").ok());
  int64_t count = RunCount(
      "count(for $u in dataset Users where $u.name = 'maria' return $u)");
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
  std::string plan = last_.logical_plan;
  EXPECT_NE(plan.find("BTREE-SEARCH"), std::string::npos);
}

// ---------- dice / cosine and the sugar operator ----------

TEST_F(CoreExtendedTest, DiceAndCosineMeasures) {
  Load("Docs", {{"a", "one two three"}, {"b", "one two six"},
                {"c", "seven eight nine"}});
  // dice({one,two,three},{one,two,six}) = 2*2/6 = 0.667.
  int64_t dice = RunCount(
      "set simfunction 'dice'; set simthreshold '0.6'; "
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where word-tokens($l.text) ~= word-tokens($r.text) "
      "and $l.id < $r.id return {'l': $l.id})");
  EXPECT_EQ(dice, 1);
  int64_t cosine = RunCount(
      "set simfunction 'cosine'; set simthreshold '0.6'; "
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where word-tokens($l.text) ~= word-tokens($r.text) "
      "and $l.id < $r.id return {'l': $l.id})");
  EXPECT_EQ(cosine, 1);  // cos = 2/3 ~ 0.667
}

// ---------- edit distance over ordered lists (paper Section 3.1) ----------

TEST_F(CoreExtendedTest, EditDistanceOnOrderedLists) {
  Load("Docs", {{"a", "better than i expected"},
                {"b", "better than expected"},
                {"c", "nothing alike at all"}});
  int64_t count = RunCount(
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where edit-distance(word-tokens($l.text), word-tokens($r.text)) <= 1 "
      "and $l.id < $r.id return {'l': $l.id})");
  EXPECT_EQ(count, 1);  // a vs b: one word deleted
}

// ---------- index-based T-occurrence selection ----------

TEST_F(CoreExtendedTest, IndexedJaccardSelectionMatchesScan) {
  ASSERT_TRUE(engine_
                  ->Execute("create dataset D primary key id;"
                            "create index ix on D(text) type keyword;")
                  .ok());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine_
                    ->Insert("D", Value::MakeObject(
                                      {{"id", Value::Int64(i)},
                                       {"text", Value::String(
                                            "tok" + std::to_string(i % 7) +
                                            " tok" + std::to_string(i % 5) +
                                            " tok" + std::to_string(i % 3))}}))
                    .ok());
  }
  std::string query =
      "count(for $d in dataset D where "
      "similarity-jaccard(word-tokens($d.text), "
      "word-tokens('tok1 tok2 tok0')) >= 0.5 return $d)";
  int64_t indexed = RunCount(query);
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
  engine_->opt_context().enable_index_select = false;
  int64_t scanned = RunCount(query);
  EXPECT_FALSE(RuleFired("introduce-similarity-select-index"));
  EXPECT_EQ(indexed, scanned);
  EXPECT_GT(indexed, 0);
}

TEST_F(CoreExtendedTest, ThreeStageTemplateTextIsValidAqlPlus) {
  for (bool self_like : {true, false}) {
    std::string text = ThreeStageTemplateText(0.5, self_like);
    EXPECT_NE(text.find("##LEFT2"), std::string::npos);
    EXPECT_NE(text.find("$$LPK2"), std::string::npos);
    EXPECT_NE(text.find("prefix-len-jaccard"), std::string::npos);
    EXPECT_EQ(text.find("@DELTA@"), std::string::npos);  // substituted
    if (!self_like) {
      EXPECT_NE(text.find("union("), std::string::npos);
    }
  }
}

// ---------- misc query features ----------

TEST_F(CoreExtendedTest, LimitClause) {
  Load("Docs", {{"a", "x"}, {"b", "x"}, {"c", "x"}, {"d", "x"}});
  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("for $d in dataset Docs order by $d.id "
                            "limit 2 return $d.id",
                            &result)
                  .ok());
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_F(CoreExtendedTest, OrderByMultipleKeysMixedDirections) {
  Load("Docs", {{"b", "1"}, {"a", "1"}, {"a", "2"}});
  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("for $d in dataset Docs "
                            "order by $d.name asc, $d.id desc "
                            "return $d.id",
                            &result)
                  .ok());
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0].AsInt64(), 3);  // (a, id 3), (a, id 2), (b, id 1)
  EXPECT_EQ(result.rows[1].AsInt64(), 2);
  EXPECT_EQ(result.rows[2].AsInt64(), 1);
}

TEST_F(CoreExtendedTest, ExplicitJoinClause) {
  Load("Docs", {{"a", "x"}, {"b", "y"}});
  Load("Others", {{"a", "z"}});
  int64_t count = RunCount(
      "count(join $d in dataset Docs, $o in dataset Others "
      "on $d.name = $o.name return {'d': $d.id})");
  EXPECT_EQ(count, 1);
}

TEST_F(CoreExtendedTest, DataPersistsAcrossEngineInstances) {
  Load("Docs", {{"a", "persisted text"}});
  ASSERT_TRUE(engine_->catalog()->Find("Docs")->FlushAll().ok());
  // A new engine over the same directory re-opens the LSM components; the
  // catalog metadata is session-scoped, so re-declare and re-attach.
  EngineOptions options;
  options.data_dir = dir_;
  options.topology = {2, 2};
  QueryProcessor engine2(options);
  ASSERT_TRUE(engine2.Execute("create dataset Docs primary key id;").ok());
  QueryResult result;
  ASSERT_TRUE(engine2.Execute(
      "count(for $d in dataset Docs return $d)", &result).ok());
  EXPECT_EQ(result.rows[0].AsInt64(), 1);
}

TEST_F(CoreExtendedTest, CornerCaseOnlyJoinStillCorrect) {
  // Every outer key is shorter than the gram length: the entire stream goes
  // through the corner-case path (Figure 14's lower branch).
  Load("Short", {{"a", "t"}, {"b", "u"}});
  Load("Names", {{"ab", "x"}, {"xy", "y"}});
  ASSERT_TRUE(
      engine_->Execute("create index nx on Names(name) type ngram(2);").ok());
  std::string query =
      "count(for $s in dataset Short for $n in dataset Names "
      "where edit-distance($s.name, $n.name) <= 1 "
      "return {'s': $s.id, 'n': $n.id})";
  int64_t indexed = RunCount(query);
  engine_->opt_context().enable_index_join = false;
  int64_t nested = RunCount(query);
  engine_->opt_context().enable_index_join = true;
  EXPECT_EQ(indexed, nested);
  EXPECT_EQ(indexed, 2);  // "a"->"ab", "b"? ed("b","ab")=1 yes; "xy" no
}

// ---------- DML statements ----------

TEST_F(CoreExtendedTest, InsertStatement) {
  ASSERT_TRUE(engine_->Execute("create dataset Docs primary key id;").ok());
  ASSERT_TRUE(engine_
                  ->Execute("insert into Docs {'id': 1, 'name': 'a'};"
                            "insert into Docs [{'id': 2, 'name': 'b'},"
                            "                  {'id': 3, 'name': 'c'}];")
                  .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 3);
}

TEST_F(CoreExtendedTest, InsertMaintainsIndexes) {
  ASSERT_TRUE(engine_
                  ->Execute("create dataset Docs primary key id;"
                            "create index nx on Docs(name) type ngram(2);"
                            "insert into Docs {'id': 1, 'name': 'maria'};")
                  .ok());
  int64_t count = RunCount(
      "count(for $d in dataset Docs "
      "where edit-distance($d.name, 'marla') <= 1 return $d)");
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
}

TEST_F(CoreExtendedTest, DeleteStatement) {
  Load("Docs", {{"a", "keep"}, {"b", "drop"}, {"c", "drop"}});
  ASSERT_TRUE(
      engine_->Execute("delete $d from dataset Docs where $d.text = 'drop'")
          .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 1);
  // Delete-all (no where clause).
  ASSERT_TRUE(engine_->Execute("delete $d from dataset Docs").ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 0);
}

TEST_F(CoreExtendedTest, DeleteWithSimilarityPredicate) {
  Load("Docs", {{"maria", "x"}, {"marla", "x"}, {"james", "x"}});
  ASSERT_TRUE(engine_
                  ->Execute("delete $d from dataset Docs "
                            "where edit-distance($d.name, 'maria') <= 1")
                  .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 1);
}

TEST_F(CoreExtendedTest, LoadStatement) {
  std::string path = dir_ + "_load.json";
  ASSERT_TRUE(storage::WriteFileAtomic(
                  path,
                  "{\"id\": 1, \"name\": \"a\"}\n"
                  "\n"
                  "{\"id\": 2, \"name\": \"b\"}\n")
                  .ok());
  ASSERT_TRUE(engine_
                  ->Execute("create dataset Docs primary key id;"
                            "load dataset Docs from '" + path + "'")
                  .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 2);
  storage::RemoveAllBestEffort(path);
}

TEST_F(CoreExtendedTest, LoadRejectsBadJson) {
  std::string path = dir_ + "_bad.json";
  ASSERT_TRUE(storage::WriteFileAtomic(path, "{not json}\n").ok());
  ASSERT_TRUE(engine_->Execute("create dataset Docs primary key id;").ok());
  EXPECT_FALSE(
      engine_->Execute("load dataset Docs from '" + path + "'").ok());
  storage::RemoveAllBestEffort(path);
}

TEST_F(CoreExtendedTest, InsertRejectsNonConstant) {
  ASSERT_TRUE(engine_->Execute("create dataset Docs primary key id;").ok());
  EXPECT_FALSE(
      engine_->Execute("insert into Docs {'id': $x}").ok());
  EXPECT_FALSE(engine_->Execute("insert into Docs 42").ok());
}

TEST_F(CoreExtendedTest, RowMultiplyingOuterDoesNotDuplicateSurrogates) {
  // Regression: when the outer branch of an index join is itself a join that
  // yields several rows per base record, the surrogate optimization must not
  // apply (duplicate surrogates would square the duplication at the
  // resolution join). Probe has two rows matching the same review group.
  Load("Reviews", {{"a", "one two three"},
                   {"b", "one two three"},
                   {"c", "four five six"}});
  ASSERT_TRUE(engine_
                  ->Execute("create index kw on Reviews(text) type keyword;"
                            "create dataset Probe primary key id;"
                            "insert into Probe [{'id': 1, 'tag': 'x'},"
                            "                   {'id': 2, 'tag': 'x'}];")
                  .ok());
  // Give every review the same tag so each probe row matches every review.
  std::string query =
      "count(for $p in dataset Probe for $o in dataset Reviews "
      "for $i in dataset Reviews "
      "where $p.tag = 'x' "
      "and similarity-jaccard(word-tokens($o.text), word-tokens($i.text)) "
      ">= 0.9 and $o.id < $i.id return {'p': $p.id, 'o': $o.id})";
  int64_t optimized = RunCount(query);
  engine_->opt_context().enable_index_join = false;
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested = RunCount(query);
  engine_->opt_context().enable_index_join = true;
  engine_->opt_context().enable_three_stage_join = true;
  EXPECT_EQ(optimized, nested);
  EXPECT_EQ(nested, 2);  // pair (a,b), seen through each of the 2 probe rows
}

TEST_F(CoreExtendedTest, VerificationUsesCheckVariants) {
  Load("Docs", {{"maria", "one two"}, {"marla", "one three"}});
  // A scan-based selection keeps the predicate in a SELECT, where the
  // finalize pass must swap in the check variant.
  auto plan = engine_->Explain(
      "for $t in dataset Docs "
      "where similarity-jaccard(word-tokens($t.text), "
      "word-tokens('one two five')) >= 0.5 return $t");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The final pass swaps verification predicates for the early-terminating
  // check variants (paper Section 3.2).
  EXPECT_NE(plan->find("similarity-jaccard-check"), std::string::npos);
  // And the answers stay the same as the plain-function evaluation.
  int64_t count = RunCount(
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where similarity-jaccard(word-tokens($l.text), "
      "word-tokens($r.text)) >= 0.3 and $l.id < $r.id return $l)");
  EXPECT_EQ(count, 1);  // {one,two} vs {one,three}: 1/3 >= 0.3
}

// The three-stage plan after the cleanup rules: the verify is the prefix
// HASH-JOIN's similarity-jaccard-check residual (batched), stage 3 joins the
// rid pairs on plain variables (no record constructor or field-access
// ASSIGN), and the dedup GROUP-BY carries no aggregate.
TEST_F(CoreExtendedTest, ThreeStagePlanVerifiesInsidePrefixJoin) {
  EngineOptions options;
  options.data_dir = dir_ + "_verify";
  options.topology = {2, 2};
  options.num_threads = 2;
  options.verify_plans = true;  // rule contracts + plan and DAG verifiers
  engine_ = std::make_unique<QueryProcessor>(options);
  Load("Docs", {{"a", "red apple pie"},
                {"b", "green apple pie"},
                {"c", "red apple pie crust"},
                {"d", "blue sky"},
                {"e", "blue sky high"}});
  const std::string query =
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where similarity-jaccard(word-tokens($l.text), "
      "word-tokens($r.text)) >= 0.5 and $l.id < $r.id "
      "return {'l': $l.id, 'r': $r.id})";
  engine_->set_profile_queries(true);
  int64_t three_stage = RunCount(query);
  storage::RemoveAllBestEffort(options.data_dir);
  ASSERT_TRUE(RuleFired("three-stage-similarity-join"));
  for (const char* rule :
       {"fold-field-of-record", "remove-dead-variables",
        "inline-single-use-let", "merge-adjacent-projects"}) {
    EXPECT_TRUE(RuleFired(rule)) << rule;
  }

  const std::string& plan = last_.logical_plan;
  std::vector<std::string> lines;
  for (size_t start = 0; start < plan.size();) {
    size_t end = plan.find('\n', start);
    if (end == std::string::npos) end = plan.size();
    lines.push_back(plan.substr(start, end - start));
    start = end + 1;
  }
  int check_joins = 0;
  for (const std::string& line : lines) {
    if (line.find("similarity-jaccard-check(") != std::string::npos) {
      ++check_joins;
      EXPECT_NE(line.find("JOIN cond=and(eq("), std::string::npos) << line;
    }
    EXPECT_EQ(line.find("similarity-jaccard("), std::string::npos) << line;
    EXPECT_EQ(line.find(".lid"), std::string::npos) << line;
    EXPECT_EQ(line.find("{lid"), std::string::npos) << line;
    if (line.find("_glid:=") != std::string::npos) {
      EXPECT_EQ(line.find("agg("), std::string::npos) << line;
    }
  }
  EXPECT_EQ(check_joins, 1) << plan;

  ASSERT_NE(last_.profile, nullptr);
  int batched_joins = 0;
  for (const obs::OperatorProfile& op : last_.profile->operators) {
    for (const char* stage3 : {"{lid", ".lid", ".rid"}) {
      EXPECT_EQ(op.name.find(stage3), std::string::npos) << op.name;
    }
    uint64_t matches = 0, batch_rows = 0, fallback = 0;
    bool batch = false;
    for (const auto& [name, value] : op.counters) {
      if (name == "join.matches") matches = value;
      if (name == "exec.batch.rows") batch_rows = value, batch = true;
      if (name == "exec.batch.fallback_rows") fallback = value;
    }
    if (op.name == "HASH-JOIN" && batch) {
      ++batched_joins;
      EXPECT_EQ(batch_rows, matches);
      EXPECT_EQ(fallback, 0u);
    }
  }
  EXPECT_EQ(batched_joins, 1);

  engine_->opt_context().enable_three_stage_join = false;
  EXPECT_EQ(three_stage, RunCount(query));
  EXPECT_EQ(three_stage, 3);  // (a,b) 2/4, (a,c) 3/4 and (d,e) 2/3
}

TEST_F(CoreExtendedTest, ExplainStatement) {
  Load("Docs", {{"maria", "x"}});
  ASSERT_TRUE(
      engine_->Execute("create index nx on Docs(name) type ngram(2);").ok());
  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("explain for $d in dataset Docs "
                            "where edit-distance($d.name, 'marla') <= 1 "
                            "return $d",
                            &result)
                  .ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NE(result.rows[0].AsString().find("INDEX-SEARCH"),
            std::string::npos);
  // Explain must not execute anything: the dataset stays intact and another
  // query still runs.
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 1);
}

}  // namespace
}  // namespace simdb::core
