#include "server/explain_cache.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace xplain {
namespace server {
namespace {

ExplainCacheOptions SingleShard(size_t max_bytes) {
  ExplainCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = max_bytes;
  return options;
}

TEST(ExplainCacheTest, MissThenHit) {
  ExplainCache cache(SingleShard(1024));
  EXPECT_FALSE(cache.Lookup("k1").has_value());
  cache.Insert("k1", "payload-1");
  auto hit = cache.Lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-1");
  const ExplainCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(ExplainCacheTest, InsertReplacesExistingEntry) {
  ExplainCache cache(SingleShard(1024));
  cache.Insert("k", "old");
  cache.Insert("k", "new");
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.GetStats().entries, 1);
}

TEST(ExplainCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry is key (2 bytes) + payload (10 bytes) = 12 bytes; a
  // 30-byte budget holds two entries.
  ExplainCache cache(SingleShard(30));
  cache.Insert("k1", std::string(10, 'a'));
  cache.Insert("k2", std::string(10, 'b'));
  // Touch k1 so k2 is the LRU victim.
  EXPECT_TRUE(cache.Lookup("k1").has_value());
  cache.Insert("k3", std::string(10, 'c'));
  EXPECT_TRUE(cache.Lookup("k1").has_value());
  EXPECT_FALSE(cache.Lookup("k2").has_value());  // evicted
  EXPECT_TRUE(cache.Lookup("k3").has_value());
  const ExplainCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_LE(stats.bytes, 30);
}

TEST(ExplainCacheTest, OversizedEntryIsNotCached) {
  ExplainCache cache(SingleShard(16));
  cache.Insert("big", std::string(100, 'x'));
  EXPECT_FALSE(cache.Lookup("big").has_value());
  EXPECT_EQ(cache.GetStats().entries, 0);
  EXPECT_EQ(cache.GetStats().bytes, 0);
}

TEST(ExplainCacheTest, InvalidateAllDropsEverything) {
  ExplainCache cache(SingleShard(1024));
  cache.Insert("k1", "a");
  cache.Insert("k2", "b");
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Lookup("k1").has_value());
  EXPECT_FALSE(cache.Lookup("k2").has_value());
  const ExplainCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.invalidations, 2);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
}

TEST(ExplainCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  ExplainCacheOptions options;
  options.num_shards = 3;  // rounds to 4
  options.max_bytes = 4096;
  ExplainCache cache(options);
  // Keys land on different shards but behave like one logical cache.
  // (Appending, not "key" + std::to_string(i): GCC 12 at -O3 flags the
  // latter with a false -Wrestrict.)
  auto numbered = [](std::string prefix, int i) {
    prefix += std::to_string(i);
    return prefix;
  };
  for (int i = 0; i < 32; ++i) {
    cache.Insert(numbered("key", i), numbered("v", i));
  }
  for (int i = 0; i < 32; ++i) {
    auto hit = cache.Lookup(numbered("key", i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, numbered("v", i));
  }
  EXPECT_EQ(cache.GetStats().entries, 32);
}

TEST(ExplainCacheTest, ConcurrentMixedUseIsSafeAndCountsAddUp) {
  ExplainCache cache(ExplainCacheOptions{});
  constexpr int kThreads = 8;
  // Divisible by 3 so every thread performs exactly 2/3 lookups.
  constexpr int kOpsPerThread = 501;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key" + std::to_string(i % 50);
        if ((t + i) % 3 == 0) {
          cache.Insert(key, "payload" + std::to_string(i));
        } else {
          auto hit = cache.Lookup(key);
          if (hit.has_value()) {
            EXPECT_EQ(hit->rfind("payload", 0), 0u);
          }
        }
        if (i == kOpsPerThread / 2 && t == 0) cache.InvalidateAll();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ExplainCache::Stats stats = cache.GetStats();
  // Every non-insert op counted exactly one hit or miss.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<int64_t>(kThreads) * kOpsPerThread * 2 / 3);
  EXPECT_GE(stats.entries, 0);
}

TEST(ExplainCacheTest, StressShardStatsStayConsistent) {
  // 8 threads hammer a small, eviction-heavy cache with mixed
  // Get/Put/Invalidate. Keys and payloads have uniform lengths, so the
  // byte accounting has one exact answer: after the threads join,
  // bytes == entries * (key_len + payload_len) must hold no matter how
  // inserts, evictions, and invalidations interleaved — any lost update
  // or double-count under contention breaks the equality.
  ExplainCacheOptions options;
  options.num_shards = 4;
  options.max_bytes = 4 * 1024;  // tight: forces steady eviction traffic
  ExplainCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 3000;
  constexpr int kKeySpace = 200;
  const std::string payload(24, 'p');
  auto key_for = [](int i) {
    // "k0000".."k0199": uniform 5-byte keys.
    std::string n = std::to_string(i % kKeySpace);
    std::string key = "k";
    key.append(4 - n.size(), '0');
    key += n;
    return key;
  };
  const int64_t entry_bytes =
      static_cast<int64_t>(key_for(0).size() + payload.size());
  // Thread 0 invalidates on every 16th op of its first half only. In its
  // second half it alone inserts 150 distinct keys, more than the four
  // 1 KB shards hold together (35 entries each), so some shard must evict
  // whatever the interleaving. Invalidating throughout let thread 0, when
  // it ran last, wipe the cache before any shard filled: no eviction.
  auto invalidates = [](int t, int i) {
    return t == 0 && i < kOpsPerThread / 2 && (t * 7 + i) % 16 == 15;
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int op = (t * 7 + i) % 16;
        if (op < 6) {
          cache.Insert(key_for(t * 31 + i), payload);
        } else if (invalidates(t, i)) {
          cache.InvalidateAll();
        } else {
          (void)cache.Lookup(key_for(i));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ExplainCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.bytes, stats.entries * entry_bytes);
  EXPECT_LE(stats.bytes, static_cast<int64_t>(options.max_bytes));
  EXPECT_GT(stats.evictions, 0);        // the tight budget was exercised
  EXPECT_GT(stats.invalidations, 0);    // so was InvalidateAll
  // Lookup counted exactly one hit or miss per call; reconstruct the call
  // count from the deterministic op schedule.
  int64_t lookups = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const int op = (t * 7 + i) % 16;
      if (op >= 6 && !invalidates(t, i)) ++lookups;
    }
  }
  EXPECT_EQ(stats.hits + stats.misses, lookups);
}

}  // namespace
}  // namespace server
}  // namespace xplain
