#include "gpusim/cache.hpp"

namespace gt::gpusim {

namespace {
constexpr std::size_t kMinSlots = 16;  // power of two
}  // namespace

SmCache::SmCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes), slots_(kMinSlots), mask_(kMinSlots - 1) {}

void SmCache::miss(const CacheKey& key, std::size_t bytes) {
  loaded_bytes_ += bytes;
  if (bytes > capacity_bytes_) return;
  while (resident_bytes_ + bytes > capacity_bytes_ && tail_ != kNil)
    evict_lru();

  std::uint32_t i;
  if (free_ != kNil) {
    i = free_;
    free_ = slab_[i].next;
  } else {
    i = static_cast<std::uint32_t>(slab_used_++);
    if (i == slab_.size()) slab_.emplace_back();
  }
  slab_[i] = Line{key, kNil, head_, bytes};
  if (head_ == kNil)
    tail_ = i;
  else
    slab_[head_].prev = i;
  head_ = i;
  resident_bytes_ += bytes;

  if (2 * (lines_ + 1) > slots_.size()) grow_index();
  index_insert(i);
  ++lines_;
}

void SmCache::access_run(std::uint32_t buffer, std::uint32_t first,
                         std::uint32_t n, std::size_t bytes) {
  if (n == 0) return;
  if (run_.n != n || run_.buffer != buffer || run_.first != first) {
    // Establish: row `first` must be resident with rows first+1 .. first+n-1
    // stacked head-ward of it, one link each.
    const std::uint32_t lo = find({buffer, first, 0});
    std::uint32_t hi = lo;
    for (std::uint32_t k = 1; k < n && hi != kNil; ++k) {
      hi = slab_[hi].prev;
      if (hi != kNil && !(slab_[hi].key == CacheKey{buffer, first + k, 0}))
        hi = kNil;
    }
    if (hi == kNil) {
      for (std::uint32_t k = 0; k < n; ++k)
        access({buffer, first + k, 0}, bytes);
      return;
    }
    run_ = Run{buffer, first, n, lo, hi};
  }
  splice_to_front(run_.hi, run_.lo);
  hit_bytes_ += n * bytes;
}

void SmCache::splice_to_front(std::uint32_t hi, std::uint32_t lo) noexcept {
  if (hi == head_) return;
  const std::uint32_t before = slab_[hi].prev;
  const std::uint32_t after = slab_[lo].next;
  slab_[before].next = after;
  if (after == kNil)
    tail_ = before;
  else
    slab_[after].prev = before;
  slab_[hi].prev = kNil;
  slab_[lo].next = head_;
  slab_[head_].prev = lo;
  head_ = hi;
}

void SmCache::evict_lru() {
  const std::uint32_t v = tail_;
  Line& victim = slab_[v];
  if (in_run(victim.key)) run_.n = 0;
  resident_bytes_ -= victim.bytes;
  index_erase(victim.key);
  tail_ = victim.prev;
  if (tail_ == kNil)
    head_ = kNil;
  else
    slab_[tail_].next = kNil;
  victim.next = free_;
  free_ = v;
  --lines_;
}

void SmCache::index_insert(std::uint32_t line) noexcept {
  std::size_t i = CacheKeyHash{}(slab_[line].key) & mask_;
  while (slots_[i].gen == gen_) i = (i + 1) & mask_;
  slots_[i] = Slot{gen_, line};
}

void SmCache::index_erase(const CacheKey& key) noexcept {
  std::size_t i = CacheKeyHash{}(key) & mask_;
  while (slots_[i].gen != gen_ || !(slab_[slots_[i].line].key == key))
    i = (i + 1) & mask_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move one before its home slot, so every live key
  // stays reachable from its home without tombstones.
  for (std::size_t j = i;;) {
    j = (j + 1) & mask_;
    if (slots_[j].gen != gen_) break;
    const std::size_t home =
        CacheKeyHash{}(slab_[slots_[j].line].key) & mask_;
    if (((j - home) & mask_) >= ((j - i) & mask_)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i].gen = 0;  // generations start at 1, so 0 is never live
}

void SmCache::grow_index() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& s : old)
    if (s.gen == gen_) index_insert(s.line);
}

void SmCache::clear() noexcept {
  ++gen_;
  run_.n = 0;
  slab_used_ = 0;
  free_ = head_ = tail_ = kNil;
  lines_ = 0;
  resident_bytes_ = 0;
  loaded_bytes_ = 0;
  hit_bytes_ = 0;
}

}  // namespace gt::gpusim
