#include "cluster/cluster.h"

#include <gtest/gtest.h>

namespace escra::cluster {
namespace {

using memcg::kGiB;
using memcg::kMiB;

ContainerSpec spec(const std::string& name) {
  ContainerSpec s;
  s.name = name;
  return s;
}

TEST(NodeTest, TracksMemoryOfAttachedContainers) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& node = cluster.add_node({.memory_capacity = 4 * kGiB});
  Container& a = cluster.create_container(spec("a"), 1.0, 256 * kMiB);
  Container& b = cluster.create_container(spec("b"), 1.0, 512 * kMiB);
  EXPECT_EQ(node.container_count(), 2u);
  EXPECT_EQ(node.memory_in_use(),
            a.mem_cgroup().usage() + b.mem_cgroup().usage());
  EXPECT_EQ(node.memory_limit_total(), 768 * kMiB);
  EXPECT_EQ(node.memory_available(), 4 * kGiB - node.memory_in_use());
}

TEST(NodeTest, InvalidConfigThrows) {
  sim::Simulation sim;
  EXPECT_THROW(Node(sim, 0, {.memory_capacity = 0}), std::invalid_argument);
}

TEST(ClusterTest, CreateWithoutNodesThrows) {
  sim::Simulation sim;
  Cluster cluster(sim);
  EXPECT_THROW(cluster.create_container(spec("x"), 1.0, kMiB), std::logic_error);
}

TEST(ClusterTest, LeastLoadedPlacementBalances) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  cluster.add_node({});
  cluster.add_node({});
  for (int i = 0; i < 9; ++i) {
    cluster.create_container(spec("c" + std::to_string(i)), 0.5, 64 * kMiB);
  }
  for (const auto& node : cluster.nodes()) {
    EXPECT_EQ(node->container_count(), 3u);
  }
  EXPECT_EQ(cluster.container_count(), 9u);
}

TEST(ClusterTest, PinnedPlacement) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& first = cluster.add_node({});
  cluster.add_node({});
  for (int i = 0; i < 4; ++i) {
    cluster.create_container(spec("p"), 0.5, 64 * kMiB, &first);
  }
  EXPECT_EQ(first.container_count(), 4u);
  EXPECT_EQ(cluster.nodes()[1]->container_count(), 0u);
}

TEST(ClusterTest, FindAndNodeOf) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& node = cluster.add_node({});
  Container& c = cluster.create_container(spec("x"), 1.0, kMiB);
  EXPECT_EQ(cluster.find_container(c.id()), &c);
  EXPECT_EQ(cluster.node_of(c.id()), &node);
  EXPECT_EQ(cluster.find_container(9999), nullptr);
  EXPECT_EQ(cluster.node_of(9999), nullptr);
}

TEST(ClusterTest, ObserverSeesCreations) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  std::vector<ContainerId> seen;
  cluster.set_container_observer(
      [&](Container& c, Node&) { seen.push_back(c.id()); });
  Container& a = cluster.create_container(spec("a"), 1.0, kMiB);
  Container& b = cluster.create_container(spec("b"), 1.0, kMiB);
  EXPECT_EQ(seen, (std::vector<ContainerId>{a.id(), b.id()}));
}

TEST(ClusterTest, RemoveDetachesAndDestroys) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& node = cluster.add_node({});
  Container& c = cluster.create_container(spec("gone"), 1.0, kMiB);
  const ContainerId id = c.id();
  cluster.remove_container(c);
  EXPECT_EQ(cluster.find_container(id), nullptr);
  EXPECT_EQ(node.container_count(), 0u);
  EXPECT_EQ(cluster.container_count(), 0u);
}

TEST(ClusterTest, IdsAreUniqueAndStable) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  Container& a = cluster.create_container(spec("a"), 1.0, kMiB);
  Container& b = cluster.create_container(spec("b"), 1.0, kMiB);
  const ContainerId a_id = a.id();
  cluster.remove_container(a);
  Container& c = cluster.create_container(spec("c"), 1.0, kMiB);
  EXPECT_NE(b.id(), c.id());
  EXPECT_NE(a_id, c.id()) << "ids are never reused";
}

TEST(ClusterTest, ContainersListMatchesCreation) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  cluster.create_container(spec("a"), 1.0, kMiB);
  cluster.create_container(spec("b"), 1.0, kMiB);
  const auto all = cluster.containers();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name(), "a");
  EXPECT_EQ(all[1]->name(), "b");
}

// The serverless reaper removes pods from anywhere in the cluster, not just
// the tail: every survivor must keep resolving to the same container and
// node, and the listing must keep creation order around the hole.
TEST(ClusterTest, RemoveFromTheMiddleKeepsEveryOtherLookup) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  cluster.add_node({});
  cluster.add_node({});
  std::vector<Container*> created;
  std::vector<ContainerId> ids;
  std::vector<Node*> placed;
  for (int i = 0; i < 7; ++i) {
    Container& c =
        cluster.create_container(spec("c" + std::to_string(i)), 0.5, kMiB);
    created.push_back(&c);
    ids.push_back(c.id());
    placed.push_back(cluster.node_of(c.id()));
    ASSERT_NE(placed.back(), nullptr);
  }
  const ContainerId gone = ids[3];
  Node* const gone_node = placed[3];
  const std::size_t gone_node_before = gone_node->container_count();
  cluster.remove_container(*created[3]);

  EXPECT_EQ(cluster.find_container(gone), nullptr);
  EXPECT_EQ(cluster.node_of(gone), nullptr);
  EXPECT_EQ(gone_node->container_count(), gone_node_before - 1);
  EXPECT_EQ(cluster.container_count(), 6u);
  for (std::size_t i = 0; i < created.size(); ++i) {
    if (i == 3) continue;
    EXPECT_EQ(cluster.find_container(ids[i]), created[i]) << i;
    EXPECT_EQ(cluster.node_of(ids[i]), placed[i]) << i;
  }
  const std::vector<Container*> expected = {created[0], created[1],
                                            created[2], created[4],
                                            created[5], created[6]};
  EXPECT_EQ(cluster.containers(), expected) << "creation order, hole skipped";

  // Removal only takes the container the cluster owns under that id; a new
  // container gets a fresh id and lands at the end of the listing.
  cluster.remove_container(*created[4]);
  EXPECT_EQ(cluster.container_count(), 5u);
  Container stranger(sim, ids[5], spec("stranger"), sim::milliseconds(100),
                     0.5, kMiB);
  cluster.remove_container(stranger);
  EXPECT_EQ(cluster.find_container(ids[5]), created[5])
      << "a container the cluster does not own is not removed";
  EXPECT_EQ(cluster.container_count(), 5u);
  Container& fresh = cluster.create_container(spec("fresh"), 0.5, kMiB);
  for (const ContainerId id : ids) EXPECT_NE(fresh.id(), id);
  EXPECT_GT(fresh.id(), ids.back());
  EXPECT_EQ(cluster.find_container(fresh.id()), &fresh);
  EXPECT_EQ(cluster.containers().back(), &fresh);
  EXPECT_EQ(cluster.container_count(), 6u);
  EXPECT_EQ(cluster.find_container(0), nullptr) << "ids start at 1";
}

}  // namespace
}  // namespace escra::cluster
