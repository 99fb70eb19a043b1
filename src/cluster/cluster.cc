#include "cluster/cluster.h"

#include <stdexcept>

namespace escra::cluster {

Cluster::Cluster(sim::Simulation& sim) : sim_(sim) {}

Node& Cluster::add_node(NodeConfig config) {
  nodes_.push_back(std::make_unique<Node>(sim_, next_node_id_++, config));
  return *nodes_.back();
}

Container& Cluster::create_container(ContainerSpec spec, double initial_cores,
                                     memcg::Bytes initial_mem_limit,
                                     Node* pin_to) {
  if (nodes_.empty()) throw std::logic_error("create_container: no nodes");
  Node* target = pin_to;
  if (target == nullptr) {
    target = nodes_.front().get();
    for (const auto& n : nodes_) {
      if (n->container_count() < target->container_count()) target = n.get();
    }
  }
  const auto id = static_cast<ContainerId>(by_id_.size() + 1);
  by_id_.push_back({std::make_unique<Container>(
                        sim_, id, std::move(spec), target->config().cfs_period,
                        initial_cores, initial_mem_limit),
                    target});
  Container& c = *by_id_.back().container;
  target->attach(c);
  ++live_containers_;
  if (observer_) observer_(c, *target);
  return c;
}

const Cluster::Placement* Cluster::placement(ContainerId id) const {
  return id >= 1 && id <= by_id_.size() ? &by_id_[id - 1] : nullptr;
}

void Cluster::remove_container(Container& container) {
  if (find_container(container.id()) != &container) return;
  Placement& entry = by_id_[container.id() - 1];
  entry.node->detach(container);
  entry.node = nullptr;
  entry.container.reset();
  --live_containers_;
}

std::vector<Container*> Cluster::containers() const {
  std::vector<Container*> out;
  out.reserve(live_containers_);
  for (const Placement& p : by_id_) {
    if (p.container != nullptr) out.push_back(p.container.get());
  }
  return out;
}

Container* Cluster::find_container(ContainerId id) const {
  const Placement* p = placement(id);
  return p == nullptr ? nullptr : p->container.get();
}

Node* Cluster::node_of(ContainerId id) const {
  const Placement* p = placement(id);
  return p == nullptr ? nullptr : p->node;
}

}  // namespace escra::cluster
