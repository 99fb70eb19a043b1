#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace escra::core {

namespace {
constexpr double kNoCeiling = std::numeric_limits<double>::infinity();
}  // namespace

ResourceAllocator::ResourceAllocator(const EscraConfig& config,
                                     DistributedContainer& app)
    : config_(config), app_(app) {
  arms_[kCpuArm] = {config_.upsilon, config_.gamma, config_.kappa,
                    config_.min_cores, limit_epsilon(Resource::kCpu)};
  arms_[kBwArm] = {config_.bw_upsilon, config_.bw_gamma, config_.bw_kappa,
                   config_.bw_min_rate, limit_epsilon(Resource::kBw)};
}

void ResourceAllocator::set_observer(obs::Observer* observer) {
  obs_ = observer;
  if (observer != nullptr) {
    app_.set_obs_gauges(observer->h.pool_cpu_allocated,
                        observer->h.pool_cpu_unallocated,
                        observer->h.pool_mem_allocated,
                        observer->h.pool_mem_unallocated);
    app_.set_bw_gauges(observer->h.pool_bw_allocated,
                       observer->h.pool_bw_unallocated);
  } else {
    app_.set_obs_gauges(nullptr, nullptr, nullptr, nullptr);
    app_.set_bw_gauges(nullptr, nullptr);
  }
  const bool on = observer != nullptr;
  arms_[kCpuArm].grants = on ? observer->h.cpu_grants : nullptr;
  arms_[kCpuArm].shrinks = on ? observer->h.cpu_shrinks : nullptr;
  arms_[kBwArm].grants = on ? observer->h.bw_grants : nullptr;
  arms_[kBwArm].shrinks = on ? observer->h.bw_shrinks : nullptr;
}

void ResourceAllocator::register_container(std::uint32_t id, double cores,
                                           memcg::Bytes mem) {
  app_.add_member(id, cores, mem);
  const std::uint32_t slot = app_.slot_of(id);
  for (std::size_t arm = 0; arm < kArms; ++arm) {
    if (slot >= windows_[arm].size()) {
      windows_[arm].resize(app_.capacity(), Windows(config_.window_periods));
      rt_floor_[arm].resize(app_.capacity(), 0.0);
    } else {
      // Slot reuse after a deregister: fresh statistics for the new tenant.
      windows_[arm][slot] = Windows(config_.window_periods);
    }
    rt_floor_[arm][slot] = 0.0;
  }
}

void ResourceAllocator::deregister_container(std::uint32_t id) {
  if (app_.is_member(id)) app_.remove_member(id);
}

void ResourceAllocator::set_rt_floor(std::uint32_t id, double cores,
                                     double bw_bps) {
  const std::uint32_t slot = app_.slot_of(id);
  if (slot == kNoSlot) return;
  rt_floor_[kCpuArm][slot] = std::max(0.0, cores);
  rt_floor_[kBwArm][slot] = std::max(0.0, bw_bps);
}

void ResourceAllocator::clear_rt_floor(std::uint32_t id) {
  set_rt_floor(id, 0.0, 0.0);
}

double ResourceAllocator::rt_floor(Resource r, std::uint32_t id) const {
  const std::uint32_t slot = app_.slot_of(id);
  return slot == kNoSlot ? 0.0 : rt_floor_[arm_of(r)][slot];
}

double ResourceAllocator::floor(Resource r, std::uint32_t id) const {
  const std::uint32_t slot = app_.slot_of(id);
  return slot == kNoSlot ? arms_[arm_of(r)].min : floor_at(arm_of(r), slot);
}

double ResourceAllocator::floor_at(Arm arm, std::uint32_t slot) const {
  // An admitted real-time container never drops below its admission floor,
  // no matter how idle its window looks (the reservation is a latency
  // contract, not a usage forecast).
  return std::max(arms_[arm].min, rt_floor_[arm][slot]);
}

void ResourceAllocator::reset() { app_.clear(); }

double ResourceAllocator::unallocated(Arm arm) const {
  return arm == kCpuArm ? app_.cpu_unallocated() : app_.bw_unallocated();
}

double ResourceAllocator::set_member(Arm arm, std::uint32_t id, double value) {
  return arm == kCpuArm ? app_.set_member_cores(id, value)
                        : app_.set_member_bw(id, value);
}

std::optional<double> ResourceAllocator::on_cpu_stats(const CpuStatsMsg& stats) {
  const std::uint32_t slot = app_.slot_of(stats.cgroup);
  if (slot == kNoSlot) return std::nullopt;  // stale/unknown container
  const double period = static_cast<double>(config_.cfs_period);
  Sample sample;
  sample.throttled = stats.throttled;
  sample.used_last = static_cast<double>(stats.quota - stats.unused) / period;
  sample.unused = static_cast<double>(stats.unused) / period;
  const double ceiling =
      stats.throttled ? cpu_grant_ceiling(stats.cgroup, slot) : kNoCeiling;
  return decide(kCpuArm, slot, stats.cgroup, app_.member_cores(stats.cgroup),
                sample, ceiling);
}

double ResourceAllocator::cpu_grant_ceiling(std::uint32_t id,
                                            std::uint32_t slot) const {
  // Credit Υ-gate (Karma defense): lifting above the static fair share
  // spends credits; an exhausted balance caps the grant at the fair share.
  // Honest bursty members with positive balances are untouched. An RT
  // reservation raises the cap to its floor — the gate may never keep an
  // admitted container from reaching the floor it was promised — but grants
  // no headroom past it: an exhausted RT container burning credits competes
  // above its floor like everyone else, so a reservation cannot be
  // laundered into unbounded grant priority.
  if (credits_ == nullptr || app_.member_count() == 0 ||
      credits_->balance_micro(id) > 0) {
    return kNoCeiling;
  }
  const double fair =
      app_.cpu_limit() / static_cast<double>(app_.member_count());
  return std::max(fair, rt_floor_[kCpuArm][slot]);
}

std::optional<double> ResourceAllocator::on_bw_stats(
    const bw::BwSample& sample) {
  const std::uint32_t slot = app_.slot_of(sample.container);
  if (slot == kNoSlot) return std::nullopt;
  const double current = app_.member_bw(sample.container);
  if (current <= 0.0) return std::nullopt;  // unshaped container
  Sample s;
  s.throttled = sample.throttled;
  s.used_last = sample.used_bps;
  s.unused = std::max(0.0, current - sample.used_bps);
  return decide(kBwArm, slot, sample.container, current, s, kNoCeiling);
}

std::optional<double> ResourceAllocator::decide(Arm arm, std::uint32_t slot,
                                                std::uint32_t id,
                                                double current,
                                                const Sample& sample,
                                                double ceiling) {
  const ArmParams& p = arms_[arm];
  Windows& win = windows_[arm][slot];
  win.throttles.add(sample.throttled ? 1.0 : 0.0);
  win.unused.add(sample.unused);

  if (sample.throttled) {
    // Scale up (Section IV-D1): the windowed throttle mean gates how much
    // of the application's unallocated pool this container receives, paced
    // by Υ (see config.h for the Υ-scaling interpretation). Two stabilizing
    // clamps (the paper's Υ values make the raw product exceed the free
    // pool after a couple of consecutive throttles): the grant never
    // exceeds (a) the unallocated pool and (b) the container's own current
    // allocation scaled by Υ/20 — at the default Υ=20 a persistently
    // throttled container doubles per period, which reaches any demand
    // within a few 100 ms periods, bounds the overshoot past true demand to
    // 2x, and keeps one container from draining the pool other throttled
    // containers are drawing from in the same period. Υ=35 (the serverless
    // setting) grows ~2.75x; small Υ ramps gently.
    const double rate = std::min(win.throttles.mean() * p.upsilon, 1.0);
    const double cap = std::max(current * (p.upsilon / 20.0), 8.0 * p.min);
    const double pool = std::max(0.0, unallocated(arm));
    const double increase = std::min(rate * std::min(pool, cap),
                                     std::max(0.0, ceiling - current));
    if (increase > p.epsilon) {
      const double applied = set_member(arm, id, current + increase);
      if (std::abs(applied - current) > p.epsilon) {
        ++ups_[arm];
        if (p.grants != nullptr) p.grants->inc();
        return applied;
      }
    }
    return std::nullopt;
  }

  if (sample.unused > p.gamma) {
    // Scale down: remove κ of the windowed mean unused amount. Floors: the
    // never-reclaim floor, and — so that a burst of unused capacity
    // lingering in the window cannot drag the limit below what the
    // container is consuming right now — last period's usage plus the γ
    // headroom. Without the second floor a container that just cleared a
    // backlog oscillates: big-unused samples crash its limit, the queue
    // rebuilds, it throttles, doubles back up, and repeats. The headroom is
    // capped by the usage itself, so a mostly-idle container can release
    // its allocation all the way down to the floor and refill the pool.
    const double headroom = std::min(sample.used_last, p.gamma);
    // κ of the windowed mean, but never slower than κ of the last period:
    // after a scale-up overshoot the mean lags for n periods while the
    // floor above already guarantees we cannot undercut live usage, so the
    // larger of the two trims overshoot within one period.
    const double decrease =
        std::max(win.unused.mean(), sample.unused) * p.kappa;
    const double target = std::max({floor_at(arm, slot),
                                    sample.used_last + headroom,
                                    current - decrease});
    if (current - target > p.epsilon) {
      const double applied = set_member(arm, id, target);
      ++downs_[arm];
      if (p.shrinks != nullptr) p.shrinks->inc();
      return applied;
    }
  }
  return std::nullopt;
}

ResourceAllocator::MemDecision ResourceAllocator::on_oom_event(
    const OomEventMsg& event, bool post_reclaim) {
  MemDecision decision;
  if (!app_.is_member(event.container)) {
    decision.action = MemAction::kDeny;
    return decision;
  }
  const memcg::Bytes current = app_.member_mem(event.container);
  // Round the shortfall up to whole pages and add the fixed grant block so
  // the container is not back here on the very next charge.
  const memcg::Bytes pages =
      ((event.shortfall + memcg::kPageSize - 1) / memcg::kPageSize) *
      memcg::kPageSize;
  memcg::Bytes want = pages + config_.oom_grant;
  // Credit gate for memory: a credit-exhausted member already at or above
  // its fair memory share gets the shortfall only — the fixed bonus block
  // is what a phantom-OOM attack farms, so it is reserved for members in
  // good standing.
  if (credits_ != nullptr && app_.member_count() > 0 &&
      credits_->balance_micro(event.container) <= 0) {
    const memcg::Bytes fair_mem = static_cast<memcg::Bytes>(
        app_.mem_limit() / static_cast<memcg::Bytes>(app_.member_count()));
    if (current >= fair_mem) want = pages;
  }
  const memcg::Bytes unallocated = app_.mem_unallocated();

  if (unallocated >= want) {
    decision.action = MemAction::kGrant;
    decision.new_limit = app_.set_member_mem(event.container, current + want);
    ++mem_grants_;
    if (obs_ != nullptr) obs_->h.mem_grants->inc();
    return decision;
  }
  if (unallocated >= pages) {
    // Pool can cover the shortfall but not the full block: grant what exists.
    decision.action = MemAction::kGrant;
    decision.new_limit =
        app_.set_member_mem(event.container, current + unallocated);
    ++mem_grants_;
    if (obs_ != nullptr) obs_->h.mem_grants->inc();
    return decision;
  }
  if (!post_reclaim) {
    decision.action = MemAction::kReclaimThenRetry;
    return decision;
  }
  decision.action = MemAction::kDeny;
  ++mem_denies_;
  if (obs_ != nullptr) obs_->h.mem_denies->inc();
  return decision;
}

memcg::Bytes ResourceAllocator::on_reclaimed(std::uint32_t container,
                                             memcg::Bytes new_limit) {
  if (!app_.is_member(container)) return new_limit;
  return app_.set_member_mem(container, new_limit);
}

}  // namespace escra::core
