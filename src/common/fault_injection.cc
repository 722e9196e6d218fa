#include "common/fault_injection.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <thread>

namespace mbp::fault {
namespace {

// The per-point PCG stream selector, so a point's draw sequence is a pure
// function of (seed, name). This is NOT standard FNV-1a-64 (common/hash.h):
// its offset basis is the standard 14695981039346656037 with the last
// digit missing. Fault streams and MBP_CHAOS_SEED replays are keyed on
// these exact values, so the constant stays as it is; the assert pins it.
constexpr uint64_t NonStandardFnv64(std::string_view s) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : s) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}
static_assert(NonStandardFnv64("a") == 0x44bd8ad473cd9906ull);

}  // namespace

// Per-point state: its own mutex (points never contend with each other),
// its own PCG stream, and its counters.
struct FaultInjector::Point {
  explicit Point(uint64_t seed, uint64_t stream, PointSchedule s)
      : schedule(s), rng(seed, stream) {}

  std::mutex mutex;
  PointSchedule schedule;
  Pcg32 rng;
  uint64_t hits = 0;
  uint64_t fires = 0;
};

struct FaultInjector::Impl {
  // shared_mutex: evaluation takes a read lock to resolve name -> Point
  // (the map only mutates under Arm/Reset, which take the write lock).
  mutable std::shared_mutex map_mutex;
  // std::map for stable iteration order in Stats(); node-based, so Point
  // addresses stay valid while evaluators hold them under the read lock.
  std::map<std::string, Point, std::less<>> points;
  uint64_t seed = 0;
};

FaultInjector::FaultInjector() : impl_(new Impl) {}
FaultInjector::~FaultInjector() { delete impl_; }

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector;
  return *injector;
}

void FaultInjector::Seed(uint64_t seed) {
  std::unique_lock lock(impl_->map_mutex);
  impl_->seed = seed;
}

void FaultInjector::Arm(std::string_view point, PointSchedule schedule) {
  std::unique_lock lock(impl_->map_mutex);
  const uint64_t stream = NonStandardFnv64(point);
  // Point holds a mutex (not assignable): re-arming replaces the node.
  const auto it = impl_->points.find(point);
  if (it != impl_->points.end()) impl_->points.erase(it);
  impl_->points.try_emplace(std::string(point), impl_->seed, stream,
                            schedule);
  any_armed_.store(true, std::memory_order_release);
}

void FaultInjector::Reset() {
  std::unique_lock lock(impl_->map_mutex);
  any_armed_.store(false, std::memory_order_release);
  impl_->points.clear();
  total_fires_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFire(std::string_view point) {
  if (!any_armed_.load(std::memory_order_acquire)) return false;
  std::shared_lock map_lock(impl_->map_mutex);
  const auto it = impl_->points.find(point);
  if (it == impl_->points.end()) return false;
  Point& p = it->second;
  std::lock_guard point_lock(p.mutex);
  const uint64_t hit = p.hits++;
  if (hit < p.schedule.skip_first) return false;
  if (p.fires >= p.schedule.max_fires) return false;
  // probability >= 1 skips the draw so pure count schedules consume no
  // stream state and stay exact.
  if (p.schedule.probability < 1.0 &&
      p.rng.NextDouble() >= p.schedule.probability) {
    return false;
  }
  ++p.fires;
  total_fires_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t FaultInjector::MaybeDelay(std::string_view point) {
  if (!any_armed_.load(std::memory_order_acquire)) return 0;
  uint64_t delay = 0;
  {
    std::shared_lock map_lock(impl_->map_mutex);
    const auto it = impl_->points.find(point);
    if (it == impl_->points.end()) return 0;
    delay = it->second.schedule.delay_micros;
  }
  if (!ShouldFire(point) || delay == 0) return 0;
  std::this_thread::sleep_for(std::chrono::microseconds(delay));
  return delay;
}

void FaultInjector::MaybeCrash(std::string_view point) {
  if (ShouldFire(point)) _exit(137);
}

std::vector<PointStats> FaultInjector::Stats() const {
  std::shared_lock lock(impl_->map_mutex);
  std::vector<PointStats> out;
  out.reserve(impl_->points.size());
  for (auto& [name, point] : impl_->points) {
    PointStats s;
    s.point = name;
    {
      std::lock_guard point_lock(const_cast<Point&>(point).mutex);
      s.hits = point.hits;
      s.fires = point.fires;
    }
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t FaultInjector::Fires(std::string_view point) const {
  std::shared_lock lock(impl_->map_mutex);
  const auto it = impl_->points.find(point);
  if (it == impl_->points.end()) return 0;
  Point& p = const_cast<Point&>(it->second);
  std::lock_guard point_lock(p.mutex);
  return p.fires;
}

}  // namespace mbp::fault
