#include "sampling/hash_table.hpp"

#include <stdexcept>

namespace gt::sampling {

namespace {
bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

VidHashTable::VidHashTable(std::size_t stripes) : stripes_(stripes) {
  if (!is_power_of_two(stripes))
    throw std::invalid_argument("stripe count must be a power of two");
}

Vid VidHashTable::insert_or_get(Vid orig, bool* is_new) {
  Stripe& stripe = stripes_[stripe_of(orig)];
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(stripe.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  auto [it, inserted] = stripe.map.try_emplace(orig, 0);
  if (inserted) {
    const Vid id = next_id_.fetch_add(1, std::memory_order_acq_rel);
    it->second = id;
    std::lock_guard order_lock(order_mu_);
    if (id >= order_.size()) order_.resize(id + 1, kInvalidVid);
    order_[id] = orig;
  }
  if (is_new != nullptr) *is_new = inserted;
  return it->second;
}

Vid VidHashTable::lookup(Vid orig) const {
  const Stripe& stripe = stripes_[stripe_of(orig)];
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(stripe.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  auto it = stripe.map.find(orig);
  return it == stripe.map.end() ? kInvalidVid : it->second;
}

void VidHashTable::insertion_order_into(std::vector<Vid>& out) const {
  std::lock_guard lock(order_mu_);
  out.assign(order_.begin(), order_.end());
}

void VidHashTable::clear() {
  for (Stripe& s : stripes_) s.map.clear();
  next_id_.store(0, std::memory_order_release);
  {
    std::lock_guard lock(order_mu_);
    order_.clear();
  }
  reset_contention_counters();
}

void VidHashTable::reset_contention_counters() noexcept {
  acquisitions_.store(0, std::memory_order_relaxed);
  contended_.store(0, std::memory_order_relaxed);
}

}  // namespace gt::sampling
