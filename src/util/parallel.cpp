#include "util/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "util/log.hpp"
#include "util/parse.hpp"

namespace gt {

namespace {

thread_local bool t_on_compute_worker = false;

std::size_t default_threads() {
  if (const char* env = std::getenv("GT_COMPUTE_THREADS")) {
    bool valid = false;
    const std::size_t v = parse_thread_count(env, &valid);
    if (valid) return v;
    log_warn("parallel: ignoring invalid GT_COMPUTE_THREADS='", env,
             "' (want an integer in [1, ", kMaxComputeThreads,
             "]); using the hardware default");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 16);
}

struct Engine {
  std::mutex mu;
  std::size_t threads = default_threads();
  std::unique_ptr<ThreadPool> pool;  // lazy; absent while threads == 1
};

Engine& engine() {
  static Engine* e = new Engine();  // leaked: workers may outlive main's statics
  return *e;
}

}  // namespace

std::size_t parse_thread_count(const char* text, bool* valid) {
  const std::optional<std::uint64_t> v =
      text == nullptr ? std::nullopt : parse_uint(text, 1);
  *valid = v.has_value();
  return v ? std::min<std::uint64_t>(*v, kMaxComputeThreads) : 0;
}

std::size_t compute_threads() {
  Engine& e = engine();
  std::lock_guard lock(e.mu);
  return e.threads;
}

void set_compute_threads(std::size_t n) {
  Engine& e = engine();
  std::lock_guard lock(e.mu);
  const std::size_t want = n == 0 ? default_threads() : n;
  if (want == e.threads && (want == 1 || e.pool != nullptr)) return;
  e.threads = want;
  e.pool.reset();  // next compute_pool() call respawns at the new size
}

ThreadPool* compute_pool() {
  Engine& e = engine();
  std::lock_guard lock(e.mu);
  if (e.threads <= 1) return nullptr;
  if (!e.pool) e.pool = std::make_unique<ThreadPool>(e.threads);
  return e.pool.get();
}

bool on_compute_worker() { return t_on_compute_worker; }

namespace detail {
ComputeWorkerScope::ComputeWorkerScope() { t_on_compute_worker = true; }
ComputeWorkerScope::~ComputeWorkerScope() { t_on_compute_worker = false; }
}  // namespace detail

}  // namespace gt
