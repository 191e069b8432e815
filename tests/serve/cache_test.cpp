// PosteriorCache unit tests: LRU eviction order, lookup promotion, the
// refresh-in-place contract for live entries, and the disk tier's
// byte-identical round trip through the shared ArtifactStore cell format.
#include "serve/cache.hpp"

#include <filesystem>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "artifact/cell_store.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

namespace fs = std::filesystem;
using srm::serve::CacheTier;
using srm::serve::PosteriorCache;
using srm::support::Json;

/// A minimal but CellStore-valid envelope: the disk tier validates the
/// "hash" and "schema_version" members on load.
Json envelope(const std::string& hash, std::int64_t payload) {
  Json cell = Json::Object{};
  cell.set("schema_version", srm::artifact::kSchemaVersion);
  cell.set("hash", hash);
  cell.set("result", payload);
  return cell;
}

fs::path scratch(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("srm_serve_cache_" + name);
  fs::remove_all(dir);
  return dir;
}

TEST(PosteriorCache, CapacityMustBeAtLeastOne) {
  EXPECT_THROW(PosteriorCache(0, std::nullopt), srm::InvalidArgument);
}

TEST(PosteriorCache, EvictsLeastRecentlyUsed) {
  PosteriorCache cache(2, std::nullopt);
  cache.insert("aaaa", envelope("aaaa", 1));
  cache.insert("bbbb", envelope("bbbb", 2));
  cache.insert("cccc", envelope("cccc", 3));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains_in_memory("aaaa"));
  EXPECT_TRUE(cache.contains_in_memory("bbbb"));
  EXPECT_TRUE(cache.contains_in_memory("cccc"));
  EXPECT_FALSE(cache.lookup("aaaa").has_value());
}

TEST(PosteriorCache, LookupRefreshesRecency) {
  PosteriorCache cache(2, std::nullopt);
  cache.insert("aaaa", envelope("aaaa", 1));
  cache.insert("bbbb", envelope("bbbb", 2));

  const auto hit = cache.lookup("aaaa");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second, CacheTier::kMemory);

  // "bbbb" is now the least recently used entry and must be the victim.
  cache.insert("cccc", envelope("cccc", 3));
  EXPECT_TRUE(cache.contains_in_memory("aaaa"));
  EXPECT_FALSE(cache.contains_in_memory("bbbb"));
  EXPECT_TRUE(cache.contains_in_memory("cccc"));
}

TEST(PosteriorCache, ReinsertOfLiveEntryRefreshesInPlace) {
  PosteriorCache cache(2, std::nullopt);
  cache.insert("aaaa", envelope("aaaa", 1));
  cache.insert("bbbb", envelope("bbbb", 2));
  cache.insert("aaaa", envelope("aaaa", 9));

  // No duplicate list node: size and eviction count are unchanged, the
  // envelope is the refreshed one, and "aaaa" is most recently used.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  const auto hit = cache.lookup("aaaa");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first.at("result").as_int(), 9);

  cache.insert("cccc", envelope("cccc", 3));
  EXPECT_TRUE(cache.contains_in_memory("aaaa"));
  EXPECT_FALSE(cache.contains_in_memory("bbbb"));
}

TEST(PosteriorCache, MissWithoutDiskTierReturnsNothing) {
  PosteriorCache cache(4, std::nullopt);
  EXPECT_FALSE(cache.has_disk_tier());
  EXPECT_FALSE(cache.lookup("aaaa").has_value());
}

TEST(PosteriorCache, CellFromAnOlderSchemaIsRefused) {
  // A disk cell an older build wrote (schema 1: model2/3/4 draws from the
  // retired libm likelihood path) is refused with a plain message, never
  // served as if this build had computed it.
  const auto dir = scratch("old_schema");
  Json stale = envelope("aaaa", 7);
  stale.set("schema_version", std::int64_t{1});
  srm::artifact::CellStore(dir).save("aaaa", stale);
  PosteriorCache cache(4, dir);
  try {
    (void)cache.lookup("aaaa");
    ADD_FAILURE() << "a schema-1 cell was served";
  } catch (const srm::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "has schema version 1, this build expects 2"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(PosteriorCache, DiskTierRoundTripsBytes) {
  const auto dir = scratch("roundtrip");
  const Json original = envelope("aaaa", 7);
  {
    PosteriorCache cache(4, dir);
    EXPECT_TRUE(cache.has_disk_tier());
    cache.insert("aaaa", original);
  }

  // A fresh cache over the same directory answers from disk first, then
  // from the promoted in-memory copy — all byte-identical.
  PosteriorCache cache(4, dir);
  const auto cold = cache.lookup("aaaa");
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->second, CacheTier::kDisk);
  EXPECT_EQ(cold->first.dump(), original.dump());

  const auto warm = cache.lookup("aaaa");
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->second, CacheTier::kMemory);
  EXPECT_EQ(warm->first.dump(), original.dump());
  fs::remove_all(dir);
}

TEST(PosteriorCache, EvictedEntryIsReServedFromDiskByteIdentical) {
  const auto dir = scratch("evict");
  PosteriorCache cache(1, dir);
  const Json original = envelope("aaaa", 5);
  cache.insert("aaaa", original);
  cache.insert("bbbb", envelope("bbbb", 6));
  EXPECT_FALSE(cache.contains_in_memory("aaaa"));
  EXPECT_EQ(cache.evictions(), 1u);

  const auto reloaded = cache.lookup("aaaa");
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->second, CacheTier::kDisk);
  EXPECT_EQ(reloaded->first.dump(), original.dump());
  fs::remove_all(dir);
}

TEST(PosteriorCache, EvictionIsMemoryOnlyTheCellFileSurvives) {
  const auto dir = scratch("file_survives");
  PosteriorCache cache(1, dir);
  cache.insert("aaaa", envelope("aaaa", 5));
  cache.insert("bbbb", envelope("bbbb", 6));

  const srm::artifact::CellStore store(dir);
  EXPECT_TRUE(store.contains("aaaa"));
  EXPECT_TRUE(store.contains("bbbb"));
  fs::remove_all(dir);
}

}  // namespace
