#include "core/allocator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

namespace escra::core {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using memcg::kPageSize;
using sim::milliseconds;

constexpr sim::Duration kPeriod = milliseconds(100);

CpuStatsMsg stats(std::uint32_t id, double quota_cores, double unused_cores,
                  bool throttled) {
  CpuStatsMsg m;
  m.cgroup = id;
  m.quota = static_cast<sim::Duration>(quota_cores * kPeriod);
  m.unused = static_cast<sim::Duration>(unused_cores * kPeriod);
  m.throttled = throttled;
  return m;
}

struct Rig {
  EscraConfig config;
  DistributedContainer app{8.0, 4 * kGiB};
  ResourceAllocator alloc;

  explicit Rig(EscraConfig c = {}) : config(c), alloc(config, app) {}
};

// ------------------------------------------------------------------- CPU path

TEST(AllocatorCpuTest, UnknownContainerIgnored) {
  Rig rig;
  EXPECT_FALSE(rig.alloc.on_cpu_stats(stats(9, 1.0, 0.0, true)).has_value());
}

TEST(AllocatorCpuTest, ThrottleScalesUpFromPool) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 256 * kMiB);
  const auto decision = rig.alloc.on_cpu_stats(stats(1, 1.0, 0.0, true));
  ASSERT_TRUE(decision.has_value());
  EXPECT_GT(*decision, 1.0);
  EXPECT_DOUBLE_EQ(rig.app.member_cores(1), *decision);
  EXPECT_EQ(rig.alloc.cpu_scale_ups(), 1u);
}

TEST(AllocatorCpuTest, ScaleUpGrantBoundedByCurrentAllocation) {
  // The stabilized Section IV-D1 rule: one grant adds at most 2x the
  // current allocation (the limit at most triples per period) even when
  // the pool is much larger.
  Rig rig;
  rig.alloc.register_container(1, 1.0, 256 * kMiB);
  const auto d = rig.alloc.on_cpu_stats(stats(1, 1.0, 0.0, true));
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(*d, 3.0 + 1e-9);
  EXPECT_GT(*d, 1.0);
}

TEST(AllocatorCpuTest, ScaleUpClampedByGlobalLimit) {
  Rig rig;
  rig.alloc.register_container(1, 7.5, 256 * kMiB);
  rig.alloc.register_container(2, 0.5, 256 * kMiB);
  // Pool is empty: the throttled container cannot grow.
  EXPECT_FALSE(rig.alloc.on_cpu_stats(stats(1, 7.5, 0.0, true)).has_value());
  EXPECT_DOUBLE_EQ(rig.app.cpu_unallocated(), 0.0);
}

TEST(AllocatorCpuTest, SustainedThrottlingGrowsGeometrically) {
  Rig rig;
  rig.alloc.register_container(1, 0.1, 256 * kMiB);
  double current = 0.1;
  for (int i = 0; i < 6; ++i) {
    const auto d = rig.alloc.on_cpu_stats(stats(1, current, 0.0, true));
    if (d.has_value()) current = *d;
  }
  // 0.1 doubles each period until the pool (8 cores) binds.
  EXPECT_GT(current, 3.0);
  EXPECT_LE(current, 8.0 + 1e-9);
}

TEST(AllocatorCpuTest, ScaleDownRequiresGammaUnused) {
  EscraConfig cfg;
  cfg.gamma = 0.2;
  Rig rig(cfg);
  rig.alloc.register_container(1, 2.0, 256 * kMiB);
  // Unused below gamma: no action.
  EXPECT_FALSE(rig.alloc.on_cpu_stats(stats(1, 2.0, 0.1, false)).has_value());
  // Unused above gamma: scale down fires.
  const auto d = rig.alloc.on_cpu_stats(stats(1, 2.0, 1.0, false));
  ASSERT_TRUE(d.has_value());
  EXPECT_LT(*d, 2.0);
  EXPECT_EQ(rig.alloc.cpu_scale_downs(), 1u);
}

TEST(AllocatorCpuTest, ScaleDownRemovesKappaOfWindowedMean) {
  EscraConfig cfg;
  cfg.kappa = 0.8;
  cfg.gamma = 0.2;
  cfg.window_periods = 5;
  Rig rig(cfg);
  rig.alloc.register_container(1, 4.0, 256 * kMiB);
  // Usage pinned at 3.0 cores while the limit walks down: unused runtime is
  // whatever the current quota leaves above 3.0.
  std::optional<double> d;
  double current = 4.0;
  for (int i = 0; i < 8; ++i) {
    d = rig.alloc.on_cpu_stats(stats(1, current, current - 3.0, false));
    if (d.has_value()) current = *d;
  }
  // Converges to the anti-oscillation floor: usage + gamma headroom.
  EXPECT_LT(current, 4.0);
  EXPECT_NEAR(current, 3.0 + rig.config.gamma, 0.15);
  EXPECT_GE(current, 3.0);  // never below last usage
}

TEST(AllocatorCpuTest, ScaleDownNeverBelowLastUsagePlusHeadroom) {
  Rig rig;
  rig.alloc.register_container(1, 4.0, 256 * kMiB);
  // Usage 3.8 of 4.0: unused 0.2... just at gamma, then a big-unused period.
  rig.alloc.on_cpu_stats(stats(1, 4.0, 3.0, false));
  const auto d = rig.alloc.on_cpu_stats(stats(1, 4.0, 0.5, false));
  if (d.has_value()) {
    // used_last = 3.5; floor = 3.5 + min(3.5, 0.2).
    EXPECT_GE(*d, 3.7 - 1e-9);
  }
}

TEST(AllocatorCpuTest, IdleContainerFallsToFloor) {
  EscraConfig cfg;
  cfg.min_cores = 0.05;
  Rig rig(cfg);
  rig.alloc.register_container(1, 2.0, 256 * kMiB);
  double current = 2.0;
  for (int i = 0; i < 50; ++i) {
    const auto d = rig.alloc.on_cpu_stats(stats(1, current, current, false));
    if (d.has_value()) current = *d;
  }
  EXPECT_NEAR(current, cfg.min_cores, 1e-9);
}

TEST(AllocatorCpuTest, FreedCapacityReturnsToPool) {
  Rig rig;
  rig.alloc.register_container(1, 6.0, 256 * kMiB);
  rig.alloc.register_container(2, 2.0, 256 * kMiB);
  EXPECT_DOUBLE_EQ(rig.app.cpu_unallocated(), 0.0);
  double current = 6.0;
  for (int i = 0; i < 30; ++i) {
    const auto d = rig.alloc.on_cpu_stats(stats(1, current, current, false));
    if (d.has_value()) current = *d;
  }
  EXPECT_GT(rig.app.cpu_unallocated(), 5.0);
  // Container 2 can now scale up into what container 1 released: the
  // cross-container sharing a Distributed Container exists to provide.
  const auto d2 = rig.alloc.on_cpu_stats(stats(2, 2.0, 0.0, true));
  ASSERT_TRUE(d2.has_value());
  EXPECT_GT(*d2, 2.0);
}

TEST(AllocatorCpuTest, DeregisterReleasesEverything) {
  Rig rig;
  rig.alloc.register_container(1, 5.0, kGiB);
  rig.alloc.deregister_container(1);
  EXPECT_DOUBLE_EQ(rig.app.cpu_unallocated(), 8.0);
  EXPECT_EQ(rig.app.mem_unallocated(), 4 * kGiB);
  EXPECT_FALSE(rig.app.is_member(1));
  EXPECT_NO_THROW(rig.alloc.deregister_container(1));
}

// ----------------------------------------------- one arm, CPU and bandwidth

// The elastic arm runs the same rule for CPU (cores) and bandwidth
// (bytes/s). Each case below is written in abstract "units": one core for
// the CPU arm, kBwUnit bytes/s for the bandwidth arm, with the bandwidth
// tunables scaled to match the CPU ones, so one expectation covers both.
constexpr double kBwUnit = 1.0e7;

class AllocatorArmTest : public ::testing::TestWithParam<Resource> {
 protected:
  // Builds the allocator after the case has adjusted `config`.
  void SetUp() override { build(EscraConfig{}); }

  void build(EscraConfig c) {
    c.bw_min_rate = c.min_cores * kBwUnit;
    c.bw_gamma = c.gamma * kBwUnit;
    c.bw_kappa = c.kappa;
    c.bw_upsilon = c.upsilon;
    config = c;
    app.emplace(8.0, 4 * kGiB);
    app->set_bw_limit(8.0 * kBwUnit);
    alloc.emplace(config, *app);
  }
  bool bw() const { return GetParam() == Resource::kBw; }

  // Registers a container holding `units` of the resource under test.
  void add(std::uint32_t id, double units) {
    alloc->register_container(id, bw() ? 0.1 : units, 256 * kMiB);
    if (bw()) app->set_member_bw(id, units * kBwUnit);
  }
  double current(std::uint32_t id) const {
    return bw() ? app->member_bw(id) / kBwUnit : app->member_cores(id);
  }
  double unallocated() const {
    return bw() ? app->bw_unallocated() / kBwUnit : app->cpu_unallocated();
  }
  std::uint64_t ups() const {
    return bw() ? alloc->bw_scale_ups() : alloc->cpu_scale_ups();
  }
  std::uint64_t downs() const {
    return bw() ? alloc->bw_scale_downs() : alloc->cpu_scale_downs();
  }

  // One period of telemetry at the container's current limit: `used` units
  // consumed, throttled or not. Returns the decision in units.
  std::optional<double> feed(std::uint32_t id, bool throttled, double used) {
    const double limit = app->is_member(id) ? current(id) : 1.0;
    std::optional<double> d;
    if (bw()) {
      bw::BwSample s;
      s.container = id;
      s.rate_bps = limit * kBwUnit;
      s.used_bps = used * kBwUnit;
      s.throttled = throttled;
      d = alloc->on_bw_stats(s);
      if (d.has_value()) *d /= kBwUnit;
    } else {
      d = alloc->on_cpu_stats(stats(id, limit, limit - used, throttled));
    }
    return d;
  }

  EscraConfig config;
  std::optional<DistributedContainer> app;
  std::optional<ResourceAllocator> alloc;
};

TEST_P(AllocatorArmTest, UnknownContainerIgnored) {
  EXPECT_FALSE(feed(9, true, 1.0).has_value());
  EXPECT_EQ(ups(), 0u);
}

TEST_P(AllocatorArmTest, GrantComesFromPoolBoundedByCurrentAllocation) {
  add(1, 1.0);
  const auto d = feed(1, true, 1.0);
  ASSERT_TRUE(d.has_value());
  // Υ = 20: a fully throttled container gains its current allocation.
  EXPECT_NEAR(*d, 2.0, 1e-9);
  EXPECT_NEAR(current(1), *d, 1e-9);
  EXPECT_NEAR(unallocated(), 6.0, 1e-9);
  EXPECT_EQ(ups(), 1u);
}

TEST_P(AllocatorArmTest, GrantClampedByGlobalLimit) {
  add(1, 7.5);
  add(2, 0.5);
  EXPECT_FALSE(feed(1, true, 7.5).has_value());
  EXPECT_NEAR(unallocated(), 0.0, 1e-9);
  EXPECT_EQ(ups(), 0u);
}

TEST_P(AllocatorArmTest, SustainedThrottlingGrowsGeometrically) {
  add(1, 0.1);
  std::vector<double> limits{0.1};
  for (int i = 0; i < 6; ++i) {
    const auto d = feed(1, true, current(1));
    if (d.has_value()) limits.push_back(*d);
  }
  // 0.1 -> 0.5 (the 8 x minimum grant cap), then doubling until the
  // 8-unit pool binds.
  ASSERT_GE(limits.size(), 5u);
  EXPECT_NEAR(limits[1], 0.5, 1e-6);
  EXPECT_NEAR(limits[2], 1.0, 1e-6);
  EXPECT_NEAR(limits[3], 2.0, 1e-6);
  EXPECT_NEAR(limits[4], 4.0, 1e-6);
  EXPECT_NEAR(limits.back(), 8.0, 1e-6);
}

TEST_P(AllocatorArmTest, ShrinkRequiresUnusedAboveGamma) {
  add(1, 2.0);
  EXPECT_FALSE(feed(1, false, 1.9).has_value());  // 0.1 unused < γ = 0.2
  const auto d = feed(1, false, 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_LT(*d, 2.0);
  EXPECT_EQ(downs(), 1u);
}

TEST_P(AllocatorArmTest, ShrinkRemovesKappaOfTheWindowedMean) {
  add(1, 4.0);
  // 3 unused: κ = 0.8 of it comes off, 4 - 2.4.
  auto d = feed(1, false, 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 1.6, 1e-6);
  // 0.6 unused now, but the window still remembers 3: κ of the mean 1.8
  // would undercut usage, so the usage + γ floor (1.0 + 0.2) binds.
  d = feed(1, false, 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 1.2, 1e-6);
  EXPECT_EQ(downs(), 2u);
}

TEST_P(AllocatorArmTest, ShrinkNeverBelowLastUsagePlusHeadroom) {
  add(1, 4.0);
  const auto d = feed(1, false, 3.5);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 3.7, 1e-6);  // 3.5 used + min(3.5, γ)
}

TEST_P(AllocatorArmTest, IdleContainerFallsToFloor) {
  add(1, 2.0);
  for (int i = 0; i < 50; ++i) feed(1, false, 0.0);
  EXPECT_NEAR(current(1), config.min_cores, 1e-9);
  EXPECT_NEAR(unallocated(), 8.0 - config.min_cores, 1e-9);
}

TEST_P(AllocatorArmTest, RtFloorHolds) {
  add(1, 2.0);
  alloc->set_rt_floor(1, 0.5, 0.5 * kBwUnit);
  for (int i = 0; i < 50; ++i) feed(1, false, 0.0);
  EXPECT_NEAR(current(1), 0.5, 1e-9);
  alloc->clear_rt_floor(1);
  ASSERT_TRUE(feed(1, false, 0.0).has_value());
  EXPECT_LT(current(1), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Resources, AllocatorArmTest,
    ::testing::Values(Resource::kCpu, Resource::kBw),
    [](const ::testing::TestParamInfo<Resource>& info) {
      return std::string(info.param == Resource::kCpu ? "Cpu" : "Bw");
    });

TEST(AllocatorBwTest, UnshapedContainerIgnoredBeforeAnyWindow) {
  EscraConfig cfg;
  cfg.bw_min_rate = 0.05 * kBwUnit;
  cfg.bw_upsilon = 1.0;  // grant rate = the windowed throttle mean itself
  DistributedContainer app(8.0, 4 * kGiB);
  app.set_bw_limit(8.0 * kBwUnit);
  ResourceAllocator alloc(cfg, app);
  alloc.register_container(1, 1.0, 256 * kMiB);

  bw::BwSample s;
  s.container = 1;
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(alloc.on_bw_stats(s).has_value());  // unshaped: rate 0
  }
  EXPECT_EQ(alloc.bw_scale_ups() + alloc.bw_scale_downs(), 0u);

  // Once shaped, the first throttled sample is the window's only one: a
  // full-rate grant of the 8 x minimum cap. Had the two unshaped samples
  // reached the window, the mean would be 1/3.
  app.set_member_bw(1, kBwUnit);
  s.rate_bps = kBwUnit;
  s.used_bps = kBwUnit;
  s.throttled = true;
  const auto d = alloc.on_bw_stats(s);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 1.4 * kBwUnit, 1e-3);
  EXPECT_EQ(alloc.bw_scale_ups(), 1u);
}

// ---------------------------------------------------------------- memory path

OomEventMsg oom(std::uint32_t id, memcg::Bytes shortfall) {
  OomEventMsg e;
  e.container = id;
  e.attempted_charge = shortfall;
  e.shortfall = shortfall;
  return e;
}

TEST(AllocatorMemTest, GrantFromAvailablePool) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 256 * kMiB);
  const auto d = rig.alloc.on_oom_event(oom(1, 10 * kMiB));
  EXPECT_EQ(d.action, ResourceAllocator::MemAction::kGrant);
  // Grant covers the page-rounded shortfall plus the fixed block.
  EXPECT_EQ(d.new_limit, 256 * kMiB + 10 * kMiB + rig.config.oom_grant);
  EXPECT_EQ(rig.app.member_mem(1), d.new_limit);
  EXPECT_EQ(rig.alloc.mem_grants(), 1u);
}

TEST(AllocatorMemTest, ShortfallRoundedUpToPages) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 256 * kMiB);
  const auto d = rig.alloc.on_oom_event(oom(1, 100));  // odd size
  EXPECT_EQ(d.new_limit, 256 * kMiB + kPageSize + rig.config.oom_grant);
}

TEST(AllocatorMemTest, PartialGrantWhenPoolNearlyDry) {
  Rig rig;
  // One container holds nearly all memory; pool = 20 MiB.
  rig.alloc.register_container(1, 1.0, 4 * kGiB - 20 * kMiB);
  const auto d = rig.alloc.on_oom_event(oom(1, 8 * kMiB));
  EXPECT_EQ(d.action, ResourceAllocator::MemAction::kGrant);
  EXPECT_EQ(d.new_limit, 4 * kGiB);  // all of what remained
}

TEST(AllocatorMemTest, DryPoolAsksForReclamation) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 4 * kGiB);
  const auto d = rig.alloc.on_oom_event(oom(1, 10 * kMiB));
  EXPECT_EQ(d.action, ResourceAllocator::MemAction::kReclaimThenRetry);
  EXPECT_EQ(rig.alloc.mem_grants(), 0u);
}

TEST(AllocatorMemTest, PostReclaimFailureDenies) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 4 * kGiB);
  const auto d = rig.alloc.on_oom_event(oom(1, 10 * kMiB), /*post_reclaim=*/true);
  EXPECT_EQ(d.action, ResourceAllocator::MemAction::kDeny);
  EXPECT_EQ(rig.alloc.mem_denies(), 1u);
}

TEST(AllocatorMemTest, UnknownContainerDenied) {
  Rig rig;
  const auto d = rig.alloc.on_oom_event(oom(77, kMiB));
  EXPECT_EQ(d.action, ResourceAllocator::MemAction::kDeny);
}

TEST(AllocatorMemTest, ReclaimSyncShrinksShadowAndRefillsPool) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 2 * kGiB);
  rig.alloc.on_reclaimed(1, 512 * kMiB);
  EXPECT_EQ(rig.app.member_mem(1), 512 * kMiB);
  EXPECT_EQ(rig.app.mem_unallocated(), 4 * kGiB - 512 * kMiB);
  // Stale reclaim reports for deregistered containers are ignored.
  rig.alloc.deregister_container(1);
  EXPECT_NO_THROW(rig.alloc.on_reclaimed(1, kMiB));
}

TEST(AllocatorMemTest, ReclaimSyncReturnsTheShadowItHolds) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 2 * kGiB);
  rig.alloc.register_container(2, 1.0, 2 * kGiB);
  EXPECT_EQ(rig.alloc.on_reclaimed(1, 512 * kMiB), 512 * kMiB);
  // A report above the pool's headroom is clamped, and the clamped value is
  // the one the controller replicates, not the report.
  EXPECT_EQ(rig.alloc.on_reclaimed(1, 3 * kGiB), 2 * kGiB);
  EXPECT_EQ(rig.app.member_mem(1), 2 * kGiB);
  rig.alloc.deregister_container(2);
  EXPECT_EQ(rig.alloc.on_reclaimed(2, kMiB), kMiB) << "non-member: as sent";
}

TEST(AllocatorMemTest, ReclaimThenGrantEndToEnd) {
  Rig rig;
  rig.alloc.register_container(1, 1.0, 3 * kGiB);
  rig.alloc.register_container(2, 1.0, kGiB);
  // Pool dry; container 2 OOMs.
  auto d = rig.alloc.on_oom_event(oom(2, 32 * kMiB));
  ASSERT_EQ(d.action, ResourceAllocator::MemAction::kReclaimThenRetry);
  // The controller reclaims from container 1 (e.g. down to 1 GiB)...
  rig.alloc.on_reclaimed(1, kGiB);
  // ...and retries: now the grant succeeds.
  d = rig.alloc.on_oom_event(oom(2, 32 * kMiB), /*post_reclaim=*/true);
  EXPECT_EQ(d.action, ResourceAllocator::MemAction::kGrant);
  EXPECT_GT(d.new_limit, kGiB);
}

}  // namespace
}  // namespace escra::core
