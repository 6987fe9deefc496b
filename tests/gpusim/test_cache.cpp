#include "gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <list>
#include <unordered_map>
#include <utility>

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

}  // namespace
}  // namespace gt::gpusim
