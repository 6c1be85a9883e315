// Table 6: T-occurrence candidate-set size vs. final result size for the
// indexed Jaccard selection, by threshold. The paper's shape: both shrink as
// the threshold rises, and the result/candidate ratio falls (6.7% -> 1.9% ->
// 0.3%), i.e. low thresholds do proportionally more wasted primary lookups.
#include <cstdio>

#include "bench/bench_util.h"
#include "similarity/jaccard.h"
#include "storage/index_tokens.h"

using namespace simdb;
using namespace simdb::bench;

namespace {

Status Run() {
  BenchEnv env({2, 2});
  core::QueryProcessor& engine = env.engine();
  int64_t count = Scaled(20000);

  PrintTitle("Table 6: candidate vs. result size, indexed Jaccard selection",
             "paper: ratio B/C falls as the threshold rises");

  SIMDB_ASSIGN_OR_RETURN(auto gen,
                         LoadTextDataset(engine, "AmazonReview",
                                         datagen::AmazonProfile(), count));
  SIMDB_RETURN_IF_ERROR(engine.Execute(
      "create index smix on AmazonReview(summary) type keyword;"));
  storage::Dataset* ds = engine.catalog()->Find("AmazonReview");
  const storage::IndexSpec* spec = ds->FindIndex("smix");

  datagen::WorkloadSampler sampler(gen->texts());
  const int kQueries = 20;

  PrintRow({"threshold", "results (B)", "candidates (C)", "ratio B/C"});
  for (double threshold : {0.2, 0.5, 0.8}) {
    uint64_t total_candidates = 0;
    int64_t total_results = 0;
    for (int q = 0; q < kQueries; ++q) {
      SIMDB_ASSIGN_OR_RETURN(std::string value, sampler.SampleWithMinWords(3));
      // Candidate count straight from the T-occurrence search.
      SIMDB_ASSIGN_OR_RETURN(
          std::vector<std::string> tokens,
          storage::ExtractIndexTokens(*spec, adm::Value::String(value)));
      int t = similarity::JaccardTOccurrence(static_cast<int>(tokens.size()),
                                             threshold);
      for (int p = 0; p < ds->num_partitions(); ++p) {
        storage::InvertedSearchStats stats;
        SIMDB_RETURN_IF_ERROR(ds->inverted_index(p, "smix")
                                  ->SearchTOccurrence(tokens, t, &stats)
                                  .status());
        total_candidates += stats.candidates;
      }
      // Result count through the engine (verification applied).
      std::string escaped;
      for (char c : value) {
        if (c == '\'') continue;
        escaped.push_back(c);
      }
      SIMDB_ASSIGN_OR_RETURN(
          QueryTiming timing,
          TimeQuery(engine,
                    "count(for $t in dataset AmazonReview where "
                    "similarity-jaccard(word-tokens($t.summary), "
                    "word-tokens('" + escaped + "')) >= " +
                        std::to_string(threshold) + " return $t)"));
      total_results += timing.result_count;
    }
    double avg_b = static_cast<double>(total_results) / kQueries;
    double avg_c = static_cast<double>(total_candidates) / kQueries;
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1f%%",
                  avg_c > 0 ? 100.0 * avg_b / avg_c : 0.0);
    char b_str[32], c_str[32];
    std::snprintf(b_str, sizeof(b_str), "%.1f", avg_b);
    std::snprintf(c_str, sizeof(c_str), "%.1f", avg_c);
    PrintRow({std::to_string(threshold).substr(0, 3), b_str, c_str, ratio});
  }
  std::printf("records: %lld, %d queries per threshold\n",
              static_cast<long long>(count), kQueries);
  return Status::OK();
}

}  // namespace

int main() {
  Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
