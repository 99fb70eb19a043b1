// The cluster: nodes plus container creation/placement.
//
// Owns every Node and Container. Placement is least-loaded-by-container-
// count (the experiments spread each application's containers across the
// three worker nodes, as in Section VI-A). Container creation notifies an
// observer — the hook Escra's Container Watcher uses to register newly
// deployed containers with the Controller (Section IV-A).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/container.h"
#include "cluster/node.h"
#include "sim/event_queue.h"

namespace escra::cluster {

class Cluster {
 public:
  using ContainerObserver = std::function<void(Container&, Node&)>;

  explicit Cluster(sim::Simulation& sim);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Node& add_node(NodeConfig config = {});

  // Creates a container, places it on the node with the fewest containers
  // (or on `pin_to` if provided), and notifies the observer.
  Container& create_container(ContainerSpec spec, double initial_cores,
                              memcg::Bytes initial_mem_limit,
                              Node* pin_to = nullptr);

  // Permanently removes a container (serverless pods are reaped when idle).
  void remove_container(Container& container);

  void set_container_observer(ContainerObserver obs) { observer_ = std::move(obs); }

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  // Live containers in creation (= id) order.
  std::vector<Container*> containers() const;
  Container* find_container(ContainerId id) const;
  Node* node_of(ContainerId id) const;
  std::size_t container_count() const { return live_containers_; }

  sim::Simulation& simulation() { return sim_; }

 private:
  // A container and the node it runs on, owned by the cluster.
  struct Placement {
    std::unique_ptr<Container> container;
    Node* node = nullptr;
  };
  // The entry for `id`, or null for an id never handed out.
  const Placement* placement(ContainerId id) const;

  sim::Simulation& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Indexed by id - 1: ids are handed out densely from 1 and never reused,
  // so every lookup is one load. A removed container leaves an empty entry.
  std::vector<Placement> by_id_;
  std::size_t live_containers_ = 0;
  ContainerObserver observer_;
  NodeId next_node_id_ = 0;
};

}  // namespace escra::cluster
