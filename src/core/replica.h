// The replicated controller state (controller HA, src/ha).
//
// Every durable state change the leader makes — the start of each epoch it
// leads, container registration / deregistration (pool commitments),
// desired-state slot opens and acks, shadow-limit moves, node-liveness
// transitions, credit balances and RT reservations — is mirrored to an
// optional replication hook as one flat ReplicationEvent. ReplicaState is
// the pure left fold of that stream: the exact image a new leader needs to
// take the seat without resyncing the Agents. The same type is everything
// on both ends of a handoff: Controller::image() produces it from the live
// seat (the leader's only copy), src/ha folds it from the stream on every
// standby, and Controller::takeover() installs it. The epoch is not part
// of it: it belongs to the seat (Controller::epoch()) and to each log
// record. core stays ignorant of the transport.
#pragma once

#include <cstdint>
#include <map>

#include "cfs/rt.h"
#include "cluster/container.h"
#include "cluster/node.h"
#include "core/messages.h"
#include "memcg/mem_cgroup.h"

namespace escra::core {

struct ReplicationEvent {
  enum class Kind {
    kEpoch,       // the seat (re)started under a new epoch: state resets
    kRegister,    // container joined: committed cores/mem/bw
    kDeregister,  // container left (deregistered or quarantine-reclaimed)
    kSlot,        // desired-state slot opened/superseded (seq, limit)
    kAckSlot,     // slot acked by the Agent (seq closed it)
    kMemShadow,   // shadow memory limit moved without a slot (reclaim)
    kNodeHealth,  // node liveness / agent-incarnation transition
    kCredit,      // credit-ledger account moved (balance + totals image)
    kRt,          // RT reservation admitted (absolute image) or revoked
  };
  Kind kind = Kind::kRegister;
  cluster::ContainerId container = 0;
  cluster::NodeId node = 0;
  // Slot sequence number (kSlot/kAckSlot).
  std::uint64_t seq = 0;
  // The slot's limit (kSlot); kAckSlot carries only its resource.
  Limit limit{};
  double cores = 0.0;                   // kRegister
  memcg::Bytes mem = 0;                 // kRegister / kMemShadow
  double bw_bps = 0.0;                  // kRegister / kRt
  std::uint64_t agent_incarnation = 0;  // kNodeHealth
  bool node_dead = false;               // kNodeHealth
  // kCredit: the account's absolute balance plus the ledger's running
  // mint/burn totals (absolute images keep WAL replay a pure fold).
  std::int64_t credit_micro = 0;
  std::int64_t credit_minted = 0;
  std::int64_t credit_burned = 0;
  bool credit_removed = false;  // account closed (container left)
  // kRt: the reservation's absolute image — `bw_bps` carries its bandwidth
  // arm. rt_removed marks an explicit eviction.
  cfs::RtSpec rt{};
  bool rt_removed = false;
};

struct ReplicaState {
  struct ContainerState {
    double cores = 0.0;    // current shadow CPU commitment
    memcg::Bytes mem = 0;  // current shadow memory commitment
    cluster::NodeId node = 0;
    double bw_bps = 0.0;  // current shadow bandwidth rate; 0 = unshaped
  };
  struct RtState {
    cfs::RtSpec spec;
    double bw_bps = 0.0;  // bandwidth reservation; 0 = none
  };
  struct SlotState {
    std::uint64_t seq = 0;
    Limit limit;
  };
  struct NodeState {
    std::uint64_t agent_incarnation = 0;
    bool dead = false;
  };

  // std::map: deterministic iteration order for takeover replay. Slot keys
  // are the *external* identity slot_key(container, resource) —
  // deliberately independent of any leader's process-local ContainerIndex
  // slot numbers, so a standby's replayed state matches regardless of
  // interning order.
  std::map<cluster::ContainerId, ContainerState> containers;
  std::map<std::uint64_t, SlotState> slots;  // key = slot_key()
  std::map<cluster::NodeId, NodeState> nodes;
  // Credit-ledger image (Karma defense): balances plus the mint/burn
  // totals carried on every kCredit record. Balances for closed accounts
  // are erased by an explicit credit_removed record, not by kDeregister —
  // the close's burn must land in the totals atomically with the erase.
  std::map<cluster::ContainerId, std::int64_t> credits;
  std::int64_t credit_minted = 0;
  std::int64_t credit_burned = 0;
  // Admitted RT reservations (absolute images; erased by an explicit
  // rt_removed record or by the container's kDeregister).
  std::map<cluster::ContainerId, RtState> rt;

  void apply(const ReplicationEvent& e) {
    using Kind = ReplicationEvent::Kind;
    switch (e.kind) {
      case Kind::kEpoch:
        // A restarted or newly elected seat rebuilds everything under the
        // new epoch, re-emitting each record it keeps right after this one.
        *this = ReplicaState{};
        break;
      case Kind::kRegister:
        containers[e.container] =
            ContainerState{e.cores, e.mem, e.node, e.bw_bps};
        break;
      case Kind::kDeregister:
        containers.erase(e.container);
        slots.erase(slot_key(e.container, Resource::kCpu));
        slots.erase(slot_key(e.container, Resource::kMem));
        slots.erase(slot_key(e.container, Resource::kBw));
        rt.erase(e.container);
        break;
      case Kind::kSlot: {
        slots[slot_key(e.container, e.limit.resource)] =
            SlotState{e.seq, e.limit};
        const auto it = containers.find(e.container);
        if (it == containers.end()) break;
        // The slot's value is the container's new shadow commitment.
        switch (e.limit.resource) {
          case Resource::kCpu:
            it->second.cores = e.limit.value;
            break;
          case Resource::kMem:
            it->second.mem = static_cast<memcg::Bytes>(e.limit.value);
            break;
          case Resource::kBw:
            it->second.bw_bps = e.limit.value;
            break;
        }
        break;
      }
      case Kind::kAckSlot: {
        const auto it = slots.find(slot_key(e.container, e.limit.resource));
        // A newer (superseding) slot under the same key stays open: only
        // the ack for the newest sequence closes it.
        if (it != slots.end() && it->second.seq == e.seq) slots.erase(it);
        break;
      }
      case Kind::kMemShadow: {
        const auto it = containers.find(e.container);
        if (it != containers.end()) it->second.mem = e.mem;
        break;
      }
      case Kind::kNodeHealth:
        nodes[e.node] = NodeState{e.agent_incarnation, e.node_dead};
        break;
      case Kind::kCredit:
        if (e.credit_removed) {
          credits.erase(e.container);
        } else {
          credits[e.container] = e.credit_micro;
        }
        credit_minted = e.credit_minted;
        credit_burned = e.credit_burned;
        break;
      case Kind::kRt:
        if (e.rt_removed) {
          rt.erase(e.container);
        } else {
          rt[e.container] = RtState{e.rt, e.bw_bps};
        }
        break;
    }
  }
};

}  // namespace escra::core
