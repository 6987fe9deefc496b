#include "gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace gt::gpusim {
namespace {

TEST(SmCache, MissThenHit) {
  SmCache cache(1024);
  EXPECT_FALSE(cache.access({0, 0, 0}, 100));
  EXPECT_TRUE(cache.access({0, 0, 0}, 100));
  EXPECT_EQ(cache.loaded_bytes(), 100u);
  EXPECT_EQ(cache.hit_bytes(), 100u);
}

TEST(SmCache, DistinctKeysAreDistinctLines) {
  SmCache cache(1024);
  EXPECT_FALSE(cache.access({0, 0, 0}, 10));
  EXPECT_FALSE(cache.access({0, 1, 0}, 10));
  EXPECT_FALSE(cache.access({1, 0, 0}, 10));
  EXPECT_FALSE(cache.access({0, 0, 1}, 10));
  EXPECT_EQ(cache.loaded_bytes(), 40u);
  EXPECT_EQ(cache.resident_bytes(), 40u);
}

TEST(SmCache, LruEviction) {
  SmCache cache(100);
  cache.access({0, 0, 0}, 60);
  cache.access({0, 1, 0}, 40);
  // Touch row 0 so row 1 becomes LRU.
  cache.access({0, 0, 0}, 60);
  // New line evicts row 1 (LRU), not row 0.
  cache.access({0, 2, 0}, 40);
  EXPECT_TRUE(cache.access({0, 0, 0}, 60));   // still resident
  EXPECT_FALSE(cache.access({0, 1, 0}, 40));  // was evicted
}

TEST(SmCache, OversizedLineStreamsWithoutResidency) {
  SmCache cache(100);
  EXPECT_FALSE(cache.access({0, 0, 0}, 500));
  EXPECT_EQ(cache.loaded_bytes(), 500u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  // Not retained: next access misses again.
  EXPECT_FALSE(cache.access({0, 0, 0}, 500));
}

TEST(SmCache, ClearResetsEverything) {
  SmCache cache(100);
  cache.access({0, 0, 0}, 50);
  cache.access({0, 0, 0}, 50);
  cache.clear();
  EXPECT_EQ(cache.loaded_bytes(), 0u);
  EXPECT_EQ(cache.hit_bytes(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_FALSE(cache.access({0, 0, 0}, 50));
}

TEST(SmCache, ResidentNeverExceedsCapacity) {
  SmCache cache(256);
  for (std::uint32_t r = 0; r < 100; ++r) {
    cache.access({0, r, 0}, 48);
    EXPECT_LE(cache.resident_bytes(), 256u);
  }
}

TEST(SmCache, ZeroByteLinesAreRetained) {
  SmCache cache(0);
  EXPECT_FALSE(cache.access({0, 0, 0}, 0));
  EXPECT_FALSE(cache.access({0, 1, 0}, 0));
  EXPECT_TRUE(cache.access({0, 0, 0}, 0));
  EXPECT_TRUE(cache.access({0, 1, 0}, 0));
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

// The textbook list + hash-map LRU, kept as the oracle the flat SmCache is
// compared against access by access.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool access(const CacheKey& key, std::size_t bytes) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hit_bytes += bytes;
      return true;
    }
    loaded_bytes += bytes;
    if (bytes > capacity_) return false;
    while (resident_bytes + bytes > capacity_ && !lru_.empty()) {
      resident_bytes -= lru_.back().second;
      map_.erase(lru_.back().first);
      lru_.pop_back();
    }
    lru_.emplace_front(key, bytes);
    map_[key] = lru_.begin();
    resident_bytes += bytes;
    return false;
  }

  void clear() {
    lru_.clear();
    map_.clear();
    resident_bytes = loaded_bytes = hit_bytes = 0;
  }

  bool resident(const CacheKey& key) const { return map_.contains(key); }

  std::size_t loaded_bytes = 0;
  std::size_t hit_bytes = 0;
  std::size_t resident_bytes = 0;

 private:
  using Entry = std::pair<CacheKey, std::size_t>;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map_;
};

/// One access on both caches; true when every observable agrees.
::testing::AssertionResult same_access(SmCache& cache, ReferenceLru& ref,
                                       const CacheKey& key, std::size_t bytes) {
  const bool hit = cache.access(key, bytes);
  const bool ref_hit = ref.access(key, bytes);
  if (hit == ref_hit && cache.loaded_bytes() == ref.loaded_bytes &&
      cache.hit_bytes() == ref.hit_bytes &&
      cache.resident_bytes() == ref.resident_bytes)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "key (" << key.buffer << "," << key.row << "," << key.chunk
         << ") bytes " << bytes << ": hit " << hit << " vs " << ref_hit
         << ", loaded " << cache.loaded_bytes() << " vs " << ref.loaded_bytes
         << ", hit_bytes " << cache.hit_bytes() << " vs " << ref.hit_bytes
         << ", resident " << cache.resident_bytes() << " vs "
         << ref.resident_bytes;
}

struct StreamSpec {
  const char* name;
  bool zipf;                // else uniform keys
  std::uint32_t universe;   // distinct rows per (buffer, chunk)
  std::size_t capacity;     // bytes
  std::size_t clear_every;  // 0 = never
};

// Mixed line sizes: zero-byte lines, small and row-sized lines, and lines
// larger than the whole cache. Sizes are drawn per access, so hits also see
// a size other than the one the line was loaded with.
std::size_t draw_bytes(Xoshiro256& rng, std::size_t capacity) {
  switch (rng.uniform(8)) {
    case 0: return 0;
    case 1: return capacity + 1 + rng.uniform(64);
    case 2: return 4;
    case 3: return 1 + rng.uniform(1000);
    default: return 64 * (1 + rng.uniform(4));
  }
}

CacheKey draw_key(Xoshiro256& rng, const StreamSpec& spec) {
  const auto row =
      spec.zipf ? static_cast<std::uint32_t>(
                      std::pow(static_cast<double>(spec.universe),
                               rng.uniform_real()) - 1.0)  // density ~ 1/row
                : static_cast<std::uint32_t>(rng.uniform(spec.universe));
  return CacheKey{static_cast<std::uint32_t>(rng.uniform(3)), row,
                  static_cast<std::uint32_t>(rng.uniform(2))};
}

TEST(SmCacheDifferential, MatchesReferenceLruOnRandomStreams) {
  const StreamSpec specs[] = {
      {"zipf-thrash", true, 100000, 4096, 0},
      {"uniform-clear1000", false, 512, 16384, 1000},
      {"zipf-sm-sized", true, 5000, 128 * 1024, 7919},
      {"uniform-tiny-cache", false, 64, 1024, 0},
      {"zero-capacity", false, 300, 0, 5000},
  };
  for (const StreamSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    Xoshiro256 rng(42);
    SmCache cache(spec.capacity);
    ReferenceLru ref(spec.capacity);
    std::size_t hits = 0, evicting_misses = 0;
    for (std::size_t i = 0; i < 100000; ++i) {
      if (spec.clear_every != 0 && i % spec.clear_every == 0) {
        cache.clear();
        ref.clear();
      }
      const CacheKey key = draw_key(rng, spec);
      const std::size_t bytes = draw_bytes(rng, spec.capacity);
      const std::size_t hit_before = ref.hit_bytes;
      const std::size_t loaded_before = ref.loaded_bytes;
      const std::size_t resident_before = ref.resident_bytes;
      ASSERT_TRUE(same_access(cache, ref, key, bytes)) << "access " << i;
      if (ref.hit_bytes != hit_before) ++hits;
      if (ref.loaded_bytes != loaded_before && bytes <= spec.capacity &&
          ref.resident_bytes < resident_before + bytes)
        ++evicting_misses;
    }
    // The streams must actually exercise both paths.
    EXPECT_GT(hits, 100u);
    if (spec.capacity > 0) {
      EXPECT_GT(evicting_misses, 1000u);
    }
  }
}

TEST(SmCacheDifferential, ManyClearCyclesBehaveLikeFresh) {
  constexpr std::size_t kCapacity = 2048;
  const StreamSpec spec{"zipf", true, 2000, kCapacity, 0};
  Xoshiro256 rng(7);
  SmCache cycled(kCapacity);
  for (int cycle = 0; cycle < 20000; ++cycle) {
    for (int i = 0; i < 1 + cycle % 97; ++i)
      cycled.access(draw_key(rng, spec), draw_bytes(rng, kCapacity));
    cycled.clear();
  }
  SmCache fresh(kCapacity);
  for (std::size_t i = 0; i < 50000; ++i) {
    const CacheKey key = draw_key(rng, spec);
    const std::size_t bytes = draw_bytes(rng, kCapacity);
    ASSERT_EQ(cycled.access(key, bytes), fresh.access(key, bytes))
        << "access " << i;
    ASSERT_EQ(cycled.loaded_bytes(), fresh.loaded_bytes()) << "access " << i;
    ASSERT_EQ(cycled.hit_bytes(), fresh.hit_bytes()) << "access " << i;
    ASSERT_EQ(cycled.resident_bytes(), fresh.resident_bytes())
        << "access " << i;
  }
}

TEST(SmCacheDifferential, EvictionsWorkThroughIndexGrowth) {
  // Ten 100-byte lines fill the cache; then 5000 zero-byte lines grow the
  // index many times over while they stay live, with a 100-byte line every
  // 500 of them evicting one of the first ten mid-growth. Finally 100-byte
  // lines drain everything, evicting thousands of lines out of the grown
  // index.
  constexpr std::size_t kCapacity = 1000;
  SmCache cache(kCapacity);
  ReferenceLru ref(kCapacity);
  std::uint32_t row = 0;
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(same_access(cache, ref, {1, row++, 0}, 100));
  for (std::uint32_t z = 0; z < 5000; ++z) {
    ASSERT_TRUE(same_access(cache, ref, {0, z, 0}, 0)) << "zero line " << z;
    if (z % 500 == 499) {
      ASSERT_TRUE(same_access(cache, ref, {1, row++, 0}, 100));
    }
  }
  for (std::uint32_t z = 0; z < 5000; z += 7) {
    ASSERT_TRUE(cache.access({0, z, 0}, 0))
        << "zero line " << z << " lost across index growth";
    ASSERT_TRUE(ref.access({0, z, 0}, 0));
  }
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(same_access(cache, ref, {1, row++, 0}, 100));
  for (std::uint32_t z = 0; z < 5000; ++z)
    ASSERT_TRUE(same_access(cache, ref, {0, z, 0}, 0)) << "zero line " << z;
}

// ---- Run access -------------------------------------------------------------
// access_run(buffer, first, n, bytes) is defined as n access() calls on rows
// first .. first+n-1 (chunk 0), so the oracle expands every run into exactly
// those accesses.

::testing::AssertionResult same_run(SmCache& cache, ReferenceLru& ref,
                                    std::uint32_t buffer, std::uint32_t first,
                                    std::uint32_t n, std::size_t bytes) {
  cache.access_run(buffer, first, n, bytes);
  for (std::uint32_t k = 0; k < n; ++k)
    ref.access({buffer, first + k, 0}, bytes);
  if (cache.loaded_bytes() == ref.loaded_bytes &&
      cache.hit_bytes() == ref.hit_bytes &&
      cache.resident_bytes() == ref.resident_bytes)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "run (" << buffer << "," << first << "," << n << ") bytes "
         << bytes << ": loaded " << cache.loaded_bytes() << " vs "
         << ref.loaded_bytes << ", hit_bytes " << cache.hit_bytes() << " vs "
         << ref.hit_bytes << ", resident " << cache.resident_bytes() << " vs "
         << ref.resident_bytes;
}

/// Pins the whole recency order of `keys`: evicts with fresh `line`-byte
/// misses one at a time and, after each, requires the same keys resident
/// in both caches. Residency is probed on a copy, so probing moves nothing.
::testing::AssertionResult same_eviction_order(
    SmCache& cache, ReferenceLru& ref, const std::vector<CacheKey>& keys,
    std::size_t line, std::size_t misses) {
  for (std::uint32_t i = 0; i < misses; ++i) {
    if (auto r = same_access(cache, ref, {99, i, 0}, line); !r) return r;
    for (const CacheKey& key : keys) {
      SmCache probe = cache;
      if (probe.access(key, 0) != ref.resident(key))
        return ::testing::AssertionFailure()
               << "after fresh miss " << i << ": row " << key.row
               << " of buffer " << key.buffer << " resident "
               << !ref.resident(key) << " vs " << ref.resident(key);
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<CacheKey> run_keys(std::uint32_t buffer, std::uint32_t first,
                               std::uint32_t n) {
  std::vector<CacheKey> keys;
  for (std::uint32_t k = 0; k < n; ++k) keys.push_back({buffer, first + k, 0});
  return keys;
}

TEST(SmCacheRun, EqualsItsAccessesOnAColdAndAWarmCache) {
  SmCache cache(1024);
  ReferenceLru ref(1024);
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 8, 32));  // cold: 8 misses
  EXPECT_EQ(cache.loaded_bytes(), 8u * 32);
  ASSERT_TRUE(same_access(cache, ref, {2, 0, 0}, 64));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 8, 32));  // establishes the memo
  ASSERT_TRUE(same_access(cache, ref, {2, 1, 0}, 64));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 8, 32));  // memo hit
  EXPECT_EQ(cache.hit_bytes(), 16u * 32);
  ASSERT_TRUE(same_run(cache, ref, 1, 3, 0, 32));  // empty run: no-op
  ASSERT_TRUE(same_run(cache, ref, 1, 3, 1, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 8, 32));
  EXPECT_TRUE(same_eviction_order(cache, ref, run_keys(1, 0, 8), 64, 16));
}

// A hit on a member other than the head breaks the segment: the next run
// must not splice the stale [hi, lo] chain, which no longer holds row 2.
TEST(SmCacheRun, MemberHitDropsTheMemo) {
  SmCache cache(12 * 32);
  ReferenceLru ref(12 * 32);
  ASSERT_TRUE(same_access(cache, ref, {2, 0, 0}, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));  // memo set
  ASSERT_TRUE(same_access(cache, ref, {1, 2, 0}, 32));  // member hit
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  std::vector<CacheKey> keys = run_keys(1, 0, 6);
  keys.push_back({2, 0, 0});
  EXPECT_TRUE(same_eviction_order(cache, ref, keys, 32, 12));
}

// Evicting the run's tail-ward row frees its slab line for reuse: the
// next run must miss on it rather than splice through the recycled line.
TEST(SmCacheRun, MemberEvictionDropsTheMemo) {
  SmCache cache(8 * 32);
  ReferenceLru ref(8 * 32);
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));  // memo set
  for (std::uint32_t i = 0; i < 3; ++i)  // the third evicts row 0
    ASSERT_TRUE(same_access(cache, ref, {2, i, 0}, 32));
  ASSERT_FALSE(ref.resident({1, 0, 0}));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  EXPECT_TRUE(same_eviction_order(cache, ref, run_keys(1, 0, 6), 32, 8));
}

// clear() recycles every slab line; the lines the memo named now hold
// other keys, which must be loaded as misses, not spliced as hits.
TEST(SmCacheRun, ClearDropsTheMemo) {
  SmCache cache(16 * 32);
  ReferenceLru ref(16 * 32);
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));  // memo set
  cache.clear();
  ref.clear();
  for (std::uint32_t i = 0; i < 6; ++i)  // reuse slab lines 0..5
    ASSERT_TRUE(same_access(cache, ref, {2, i, 0}, 32));
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  EXPECT_EQ(cache.hit_bytes(), 0u);
  ASSERT_TRUE(same_run(cache, ref, 1, 0, 6, 32));
  EXPECT_TRUE(same_eviction_order(cache, ref, run_keys(1, 0, 6), 32, 16));
}

struct RunStreamSpec {
  const char* name;
  std::size_t capacity;     // bytes
  std::size_t clear_every;  // 0 = never
};

TEST(SmCacheRunDifferential, MatchesReferenceLruOnMixedStreams) {
  // Repeated and overlapping runs over two buffers, including empty and
  // one-row runs; a weight-row-sized 32 B line is the common case.
  struct RunShape {
    std::uint32_t buffer, first, n;
  };
  const RunShape menu[] = {{1, 0, 64}, {1, 0, 64}, {1, 0, 32}, {1, 16, 48},
                           {2, 0, 64}, {1, 0, 1},  {1, 5, 0},  {2, 3, 17}};
  const RunStreamSpec specs[] = {
      {"runs-fit", 64 * 1024, 0},
      {"run-larger-than-cache", 40 * 32, 0},  // members evict each other
      {"clear-every-500", 16 * 1024, 500},
      {"tiny", 256, 0},
      {"zero-capacity", 0, 3000},
  };
  for (const RunStreamSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    Xoshiro256 rng(4242);
    SmCache cache(spec.capacity);
    ReferenceLru ref(spec.capacity);
    std::size_t whole_hit_runs = 0;
    for (std::size_t i = 0; i < 40000; ++i) {
      if (spec.clear_every != 0 && i % spec.clear_every == 0) {
        cache.clear();
        ref.clear();
      }
      const std::uint64_t op = rng.uniform(10);
      if (op < 5) {
        RunShape run = menu[rng.uniform(std::size(menu))];
        if (op == 0)
          run = {static_cast<std::uint32_t>(rng.uniform(3)),
                 static_cast<std::uint32_t>(rng.uniform(100)),
                 static_cast<std::uint32_t>(rng.uniform(80))};
        const std::size_t bytes =
            rng.uniform(6) == 0 ? draw_bytes(rng, spec.capacity) : 32;
        const std::size_t hit_before = ref.hit_bytes;
        ASSERT_TRUE(same_run(cache, ref, run.buffer, run.first, run.n, bytes))
            << "op " << i;
        if (run.n > 1 && bytes > 0 &&
            ref.hit_bytes - hit_before == run.n * bytes)
          ++whole_hit_runs;
      } else {
        const CacheKey key{static_cast<std::uint32_t>(rng.uniform(3)),
                           static_cast<std::uint32_t>(rng.uniform(128)),
                           static_cast<std::uint32_t>(rng.uniform(2))};
        ASSERT_TRUE(
            same_access(cache, ref, key, draw_bytes(rng, spec.capacity)))
            << "op " << i;
      }
    }
    // Runs that hit throughout are the ones the memo can serve.
    EXPECT_GT(whole_hit_runs, 100u);
  }
}

}  // namespace
}  // namespace gt::gpusim
