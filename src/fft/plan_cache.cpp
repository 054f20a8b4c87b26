#include "fft/plan_cache.h"

#include <atomic>
#include <tuple>
#include <unordered_map>

#include "obs/context.h"

namespace ls3df {

namespace {

// Grid extents are far below 2^21, so a shape packs into one key.
long long shape_key(Vec3i s) {
  return (static_cast<long long>(s.x) << 42) |
         (static_cast<long long>(s.y) << 21) | static_cast<long long>(s.z);
}

std::uint64_t next_cache_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// One thread's plans within one cache instance. Only the owning thread
// touches a shard after registration, so lookups are lock-free.
struct FftPlanCache::Shard {
  template <typename Real>
  using Plans3D =
      std::unordered_map<long long, std::unique_ptr<BasicFft3D<Real>>>;
  std::tuple<Plans3D<double>, Plans3D<float>> plans3d;
  std::unordered_map<int, std::unique_ptr<Fft1D>> plans1d;
};

FftPlanCache::FftPlanCache() : id_(next_cache_id()) {}
FftPlanCache::~FftPlanCache() = default;

FftPlanCache::Shard* FftPlanCache::shard_for_this_thread() {
  // Keyed by the cache's process-unique id, not its address: a cache
  // constructed at a reused address gets a fresh id, so this thread can
  // never be handed a dead cache's shard.
  thread_local std::unordered_map<std::uint64_t, Shard*> cache;
  auto it = cache.find(id_);
  if (it != cache.end()) return it->second;
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.emplace(id_, shard);
  return shard;
}

template <typename Real>
const BasicFft3D<Real>& FftPlanCache::plan(Vec3i shape) {
  auto& plans =
      std::get<Shard::Plans3D<Real>>(shard_for_this_thread()->plans3d);
  auto& slot = plans[shape_key(shape)];
  if (!slot) slot = std::make_unique<BasicFft3D<Real>>(shape);
  return *slot;
}
template const Fft3D& FftPlanCache::plan<double>(Vec3i);
template const Fft3DF& FftPlanCache::plan<float>(Vec3i);

const Fft1D& FftPlanCache::plan_1d(int n) {
  auto& slot = shard_for_this_thread()->plans1d[n];
  if (!slot) slot = std::make_unique<Fft1D>(n);
  return *slot;
}

int FftPlanCache::thread_plan_count() {
  return static_cast<int>(
      std::get<Shard::Plans3D<double>>(shard_for_this_thread()->plans3d)
          .size());
}

FftPlanCache& FftPlanCache::process_default() {
  static FftPlanCache cache;
  return cache;
}

namespace {

FftPlanCache& active_cache() {
  FftPlanCache* plans = obs_context().plans;
  return plans ? *plans : FftPlanCache::process_default();
}

}  // namespace

template <typename Real>
const BasicFft3D<Real>& fft_plan(Vec3i shape) {
  return active_cache().plan<Real>(shape);
}
template const Fft3D& fft_plan<double>(Vec3i);
template const Fft3DF& fft_plan<float>(Vec3i);

const Fft1D& fft1d_plan(int n) { return active_cache().plan_1d(n); }

int fft_plan_cache_size() { return active_cache().thread_plan_count(); }

}  // namespace ls3df
