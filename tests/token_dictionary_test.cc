// TokenDictionary and decoded-posting-list-cache coverage: id round-trips,
// frequency-ordered id assignment, unknown-token probes, cache hit/miss
// accounting, bounded eviction, and — critically — invalidation after
// Insert/Remove/BulkLoad (a stale cache must fail here, not in production).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "storage/file_util.h"
#include "storage/inverted_index.h"
#include "storage/token_dictionary.h"

namespace simdb::storage {
namespace {

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("simdb_tokdict_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    SIMDB_CHECK(EnsureDir(path_).ok()) << path_;
  }
  ~TempDir() { RemoveAllBestEffort(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------- TokenDictionary ----------

TEST(TokenDictionaryTest, RoundTrip) {
  TokenDictionary dict;
  uint32_t a = dict.GetOrAssign("apple");
  uint32_t b = dict.GetOrAssign("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.GetOrAssign("apple"), a);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.TokenOf(a), "apple");
  EXPECT_EQ(dict.TokenOf(b), "banana");
  ASSERT_TRUE(dict.Lookup("banana").has_value());
  EXPECT_EQ(*dict.Lookup("banana"), b);
}

TEST(TokenDictionaryTest, UnknownTokenLookup) {
  TokenDictionary dict;
  dict.GetOrAssign("known");
  EXPECT_FALSE(dict.Lookup("unknown").has_value());
  EXPECT_FALSE(TokenDictionary().Lookup("anything").has_value());
}

TEST(TokenDictionaryTest, FrequencyOrderAscendingWithTokenTiebreak) {
  TokenDictionary dict;
  dict.BuildFrequencyOrdered({{"common", 10},
                              {"rare", 1},
                              {"mid", 5},
                              {"also-rare", 1}});
  // Ascending frequency; equal counts ordered by token text.
  EXPECT_EQ(dict.TokenOf(0), "also-rare");
  EXPECT_EQ(dict.TokenOf(1), "rare");
  EXPECT_EQ(dict.TokenOf(2), "mid");
  EXPECT_EQ(dict.TokenOf(3), "common");
  EXPECT_EQ(dict.size(), 4u);
}

TEST(TokenDictionaryTest, RebuildIsStable) {
  // The same census produces the same ids regardless of input order.
  std::vector<std::pair<std::string, uint64_t>> counts = {
      {"x", 3}, {"y", 1}, {"z", 3}, {"w", 2}};
  TokenDictionary d1, d2;
  d1.BuildFrequencyOrdered(counts);
  std::reverse(counts.begin(), counts.end());
  d2.BuildFrequencyOrdered(counts);
  ASSERT_EQ(d1.size(), d2.size());
  for (uint32_t id = 0; id < d1.size(); ++id) {
    EXPECT_EQ(d1.TokenOf(id), d2.TokenOf(id));
  }
}

// ---------- InvertedIndex dictionary integration ----------

TEST(InvertedIndexDictionaryTest, BulkLoadBuildsFrequencyOrder) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  // "hot" on 3 records, "warm" on 2, "cold" on 1.
  ASSERT_TRUE(index
                  ->BulkLoad({{"hot", 1},
                              {"hot", 2},
                              {"hot", 3},
                              {"warm", 1},
                              {"warm", 2},
                              {"cold", 3}})
                  .ok());
  const TokenDictionary& dict = index->dictionary();
  ASSERT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.TokenOf(0), "cold");
  EXPECT_EQ(dict.TokenOf(1), "warm");
  EXPECT_EQ(dict.TokenOf(2), "hot");
}

TEST(InvertedIndexDictionaryTest, OpenRebuildsFromExistingRuns) {
  TempDir dir;
  std::string path = dir.path() + "/inv";
  {
    auto index = *InvertedIndex::Open(path);
    ASSERT_TRUE(index->Insert({"persisted", "tokens"}, 7).ok());
    ASSERT_TRUE(index->Flush().ok());
  }
  auto reopened = *InvertedIndex::Open(path);
  EXPECT_TRUE(reopened->dictionary().Lookup("persisted").has_value());
  EXPECT_TRUE(reopened->dictionary().Lookup("tokens").has_value());
  EXPECT_FALSE(reopened->dictionary().Lookup("fresh").has_value());
  EXPECT_EQ(*reopened->PostingList("persisted"),
            (std::vector<int64_t>{7}));
}

TEST(InvertedIndexDictionaryTest, UnknownTokenProbesAreEmptyAndFree) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->Insert({"a"}, 1).ok());
  InvertedSearchStats stats;
  auto result = index->SearchTOccurrence({"nope"}, 1, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(stats.lists_probed, 1u);
  // Unknown tokens bypass both the cache and the LSM.
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

// ---------- posting-list cache ----------

TEST(PostingCacheTest, SecondProbeHitsCache) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->BulkLoad({{"t", 1}, {"t", 2}}).ok());
  InvertedSearchStats stats;
  ASSERT_TRUE(index->SearchTOccurrence({"t"}, 1, &stats).ok());
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  ASSERT_TRUE(index->SearchTOccurrence({"t"}, 1, &stats).ok());
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(index->cached_lists(), 1u);
}

TEST(PostingCacheTest, DisabledCacheDecodesEveryTime) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->BulkLoad({{"t", 1}}).ok());
  index->set_cache_budget_postings(0);
  InvertedSearchStats stats;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(index->SearchTOccurrence({"t"}, 1, &stats).ok());
  }
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(index->cached_lists(), 0u);
}

TEST(PostingCacheTest, InsertInvalidates) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->Insert({"t"}, 1).ok());
  EXPECT_EQ(*index->PostingList("t"), (std::vector<int64_t>{1}));  // warm
  ASSERT_TRUE(index->Insert({"t"}, 2).ok());
  // A stale cache would still return {1}.
  EXPECT_EQ(*index->PostingList("t"), (std::vector<int64_t>{1, 2}));
}

TEST(PostingCacheTest, RemoveInvalidates) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->Insert({"t"}, 1).ok());
  ASSERT_TRUE(index->Insert({"t"}, 2).ok());
  EXPECT_EQ(*index->PostingList("t"), (std::vector<int64_t>{1, 2}));  // warm
  ASSERT_TRUE(index->Remove({"t"}, 1).ok());
  EXPECT_EQ(*index->PostingList("t"), (std::vector<int64_t>{2}));
}

TEST(PostingCacheTest, BulkLoadInvalidates) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->Insert({"t"}, 1).ok());
  EXPECT_EQ(*index->PostingList("t"), (std::vector<int64_t>{1}));  // warm
  ASSERT_TRUE(index->BulkLoad({{"t", 5}}).ok());
  EXPECT_EQ(*index->PostingList("t"), (std::vector<int64_t>{1, 5}));
}

TEST(PostingCacheTest, InvalidationAlsoReachesSearch) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->Insert({"x", "y"}, 1).ok());
  auto before = index->SearchTOccurrence({"x", "y"}, 2);  // warms both lists
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, (std::vector<int64_t>{1}));
  ASSERT_TRUE(index->Insert({"x", "y"}, 2).ok());
  auto after = index->SearchTOccurrence({"x", "y"}, 2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, (std::vector<int64_t>{1, 2}));
}

TEST(PostingCacheTest, BudgetBoundsCachedPostings) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  std::vector<std::pair<std::string, int64_t>> postings;
  for (int t = 0; t < 10; ++t) {
    for (int64_t pk = 0; pk < 100; ++pk) {
      postings.emplace_back("tok" + std::to_string(t), pk);
    }
  }
  ASSERT_TRUE(index->BulkLoad(std::move(postings)).ok());
  index->set_cache_budget_postings(250);  // room for two 100-posting lists
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(index->PostingList("tok" + std::to_string(t)).ok());
  }
  EXPECT_LE(index->cached_postings(), 250u);
  EXPECT_GT(index->cached_lists(), 0u);
  // Oversized single lists are never cached.
  index->set_cache_budget_postings(10);
  ASSERT_TRUE(index->PostingList("tok0").ok());
  EXPECT_LE(index->cached_postings(), 10u);
}

TEST(PostingCacheTest, CachedAndUncachedSearchesAgree) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  std::vector<std::pair<std::string, int64_t>> postings;
  for (int64_t pk = 0; pk < 200; ++pk) {
    postings.emplace_back("a" + std::to_string(pk % 7), pk);
    postings.emplace_back("b" + std::to_string(pk % 3), pk);
  }
  ASSERT_TRUE(index->BulkLoad(std::move(postings)).ok());
  std::vector<std::string> query = {"a0", "a1", "b0", "b2", "missing"};
  for (int t = 1; t <= 3; ++t) {
    index->set_cache_budget_postings(1000);  // room for every list
    ASSERT_TRUE(index->SearchTOccurrence(query, t).ok());  // warm
    InvertedSearchStats cached_stats;
    auto cached = index->SearchTOccurrence(query, t, &cached_stats);
    EXPECT_EQ(cached_stats.cache_misses, 0u);
    index->set_cache_budget_postings(0);
    InvertedSearchStats uncached_stats;
    auto uncached = index->SearchTOccurrence(query, t, &uncached_stats);
    EXPECT_EQ(uncached_stats.cache_hits, 0u);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(uncached.ok());
    EXPECT_EQ(*cached, *uncached) << "t=" << t;
  }
}

}  // namespace
}  // namespace simdb::storage
