#include "core/agent.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace escra::core {
namespace {

using memcg::kMiB;

struct Rig {
  sim::Simulation sim;
  cluster::Cluster k8s{sim};
  cluster::Node& node = k8s.add_node({});
  Agent agent{node};

  cluster::Container& make(const std::string& name, double cores,
                           memcg::Bytes mem) {
    cluster::ContainerSpec s;
    s.name = name;
    s.base_memory = 64 * kMiB;
    return k8s.create_container(std::move(s), cores, mem);
  }
};

TEST(AgentTest, ManageAndUnmanage) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  EXPECT_FALSE(rig.agent.manages(c.id()));
  rig.agent.manage(c);
  EXPECT_TRUE(rig.agent.manages(c.id()));
  EXPECT_EQ(rig.agent.managed_count(), 1u);
  rig.agent.unmanage(c.id());
  EXPECT_FALSE(rig.agent.manages(c.id()));
}

// The agent's table is sized by what its node holds, not by the largest
// cluster-wide id: a direct map up to this id would need 12 GB.
TEST(AgentTest, ManagesContainerIdsFarBeyondTheClusterSize) {
  Rig rig;
  cluster::ContainerSpec s;
  s.name = "far";
  s.base_memory = 64 * kMiB;
  constexpr cluster::ContainerId kFar = 3'000'000'000u;
  cluster::Container far(rig.sim, kFar, std::move(s), sim::milliseconds(100),
                         1.0, 256 * kMiB);
  cluster::Container& near = rig.make("near", 1.0, 256 * kMiB);

  rig.agent.manage(far);
  rig.agent.manage(near);
  EXPECT_TRUE(rig.agent.manages(kFar));
  EXPECT_EQ(rig.agent.managed_count(), 2u);
  EXPECT_EQ(rig.agent.apply_limit(kFar, {core::Resource::kCpu, 2.5}, 1),
            core::Agent::Apply::kApplied);
  EXPECT_DOUBLE_EQ(far.cpu_cgroup().limit_cores(), 2.5);
  EXPECT_EQ(rig.agent.apply_limit(kFar, {core::Resource::kCpu, 3.0}, 1),
            core::Agent::Apply::kStale);

  rig.agent.unmanage(kFar);
  EXPECT_FALSE(rig.agent.manages(kFar));
  EXPECT_EQ(rig.agent.apply_limit(kFar, {core::Resource::kCpu, 3.0}, 2),
            core::Agent::Apply::kRejected);
  EXPECT_TRUE(rig.agent.manages(near.id()));

  // Re-managing starts a fresh tenancy: the sequence state is clean.
  rig.agent.manage(far);
  EXPECT_EQ(rig.agent.apply_limit(kFar, {core::Resource::kMem, 300.0 * kMiB},
                                  1),
            core::Agent::Apply::kApplied);
  EXPECT_EQ(far.mem_cgroup().limit(), 300 * kMiB);
  ASSERT_EQ(rig.agent.snapshot().size(), 2u);
  EXPECT_EQ(rig.agent.snapshot().back().id, kFar) << "snapshot sorted by id";
}

TEST(AgentTest, ApplyLimitsHitCgroupsDirectly) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  rig.agent.manage(c);
  EXPECT_EQ(rig.agent.apply_limit(c.id(), {core::Resource::kCpu, 2.5}, 0),
            core::Agent::Apply::kApplied);
  EXPECT_EQ(
      rig.agent.apply_limit(c.id(), {core::Resource::kMem, 300.0 * kMiB}, 0),
      core::Agent::Apply::kApplied);
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 2.5);
  EXPECT_EQ(c.mem_cgroup().limit(), 300 * kMiB);
}

TEST(AgentTest, ApplyToUnmanagedFails) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  EXPECT_EQ(rig.agent.apply_limit(c.id(), {core::Resource::kCpu, 2.0}, 0),
            core::Agent::Apply::kRejected);
  EXPECT_EQ(
      rig.agent.apply_limit(c.id(), {core::Resource::kMem, 1.0 * kMiB}, 0),
      core::Agent::Apply::kRejected);
}

TEST(AgentTest, ReclaimShrinksToUsagePlusDelta) {
  // The Section IV-C rule: if C_l > C_u + delta, set C_l' = C_u + delta and
  // report psi = C_l - C_l'.
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  rig.agent.manage(c);  // usage = 64 MiB base
  const auto result = rig.agent.reclaim(50 * kMiB, /*floor=*/16 * kMiB);
  EXPECT_EQ(c.mem_cgroup().limit(), 114 * kMiB);
  EXPECT_EQ(result.psi, (256 - 114) * kMiB);
  ASSERT_EQ(result.resizes.size(), 1u);
  EXPECT_EQ(result.resizes[0].container, c.id());
  EXPECT_EQ(result.resizes[0].new_limit, 114 * kMiB);
}

TEST(AgentTest, ReclaimSkipsTightContainers) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 100 * kMiB);  // usage 64
  rig.agent.manage(c);
  const auto result = rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  // 100 <= 64 + 50: leave it alone.
  EXPECT_EQ(result.psi, 0);
  EXPECT_TRUE(result.resizes.empty());
  EXPECT_EQ(c.mem_cgroup().limit(), 100 * kMiB);
}

TEST(AgentTest, ReclaimRespectsFloor) {
  Rig rig;
  cluster::ContainerSpec s;
  s.name = "tiny";
  s.base_memory = 4 * kMiB;
  cluster::Container& c = rig.k8s.create_container(std::move(s), 1.0, 512 * kMiB);
  rig.agent.manage(c);
  const auto result = rig.agent.reclaim(10 * kMiB, /*floor=*/128 * kMiB);
  EXPECT_EQ(c.mem_cgroup().limit(), 128 * kMiB);
  EXPECT_EQ(result.psi, (512 - 128) * kMiB);
}

TEST(AgentTest, ReclaimAggregatesPsiAcrossContainers) {
  Rig rig;
  cluster::Container& a = rig.make("a", 1.0, 256 * kMiB);
  cluster::Container& b = rig.make("b", 1.0, 512 * kMiB);
  rig.agent.manage(a);
  rig.agent.manage(b);
  const auto result = rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  EXPECT_EQ(result.resizes.size(), 2u);
  EXPECT_EQ(result.psi, (256 - 114) * kMiB + (512 - 114) * kMiB);
}

TEST(AgentTest, ReclaimIsIdempotentAtFixedUsage) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  rig.agent.manage(c);
  rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  const auto second = rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  EXPECT_EQ(second.psi, 0) << "already at usage + delta";
}

}  // namespace
}  // namespace escra::core
