// Decision/state WAL for the replicated controller (src/ha).
//
// The active leader turns every durable state change the Controller makes —
// container registration/deregistration (pool commitments), desired-state
// slot opens and acks, shadow-limit moves, node-liveness transitions — into
// a sequence-numbered record carrying the Controller's own ReplicationEvent.
// The log index is globally monotonic across epochs; an epoch-start record
// marks each leadership handoff and resets the replica state it governs, so
// replay is a pure left fold: applying records [0..n) in index order always
// produces the same replica, regardless of which leader wrote which prefix
// (deterministic WAL replay).
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "cluster/container.h"
#include "cluster/node.h"
#include "core/controller.h"
#include "core/messages.h"
#include "memcg/mem_cgroup.h"

namespace escra::ha {

// One log entry: a replicated Controller state change, or — local to the
// log — the marker that opens a leadership epoch.
struct WalRecord {
  // New leadership epoch: the replica state resets, then rebuilds from the
  // records the new leader replays right after this one.
  bool epoch_start = false;
  std::uint64_t epoch = 0;  // leader epoch that wrote the record
  std::uint64_t index = 0;  // position in the log (assigned by append)
  core::Controller::ReplicationEvent event;  // unused when epoch_start
};

// The leader's in-memory log. Indices never reset (standby cursors stay
// valid across epochs); the prefix every standby has acked is trimmed.
class WalLog {
 public:
  // Assigns the next index, retains the record, returns its index.
  std::uint64_t append(WalRecord record) {
    record.index = next_index_;
    records_.push_back(record);
    return next_index_++;
  }

  // First retained index / one past the last written index.
  std::uint64_t base() const { return next_index_ - records_.size(); }
  std::uint64_t next_index() const { return next_index_; }
  std::size_t retained() const { return records_.size(); }

  // Record at `index`; must be in [base, next_index).
  const WalRecord& at(std::uint64_t index) const {
    return records_[index - base()];
  }

  // Drops every record below `index` (all-standby-acked prefix).
  void trim_to(std::uint64_t index) {
    while (!records_.empty() && records_.front().index < index) {
      records_.pop_front();
    }
  }

 private:
  std::deque<WalRecord> records_;
  std::uint64_t next_index_ = 0;
};

// The state a WAL prefix folds to: what a standby needs to seat a new
// leader without resyncing the Agents. Held identically by the leader (its
// "book", fed directly by the replication hook) and by every standby (fed
// by the delivered stream), so takeover state equals leader state as of the
// last applied record.
struct ReplicaState {
  struct ContainerState {
    double cores = 0.0;    // current shadow CPU commitment
    memcg::Bytes mem = 0;  // current shadow memory commitment
    cluster::NodeId node = 0;
    double bw_bps = 0.0;  // current shadow bandwidth rate; 0 = unshaped
  };
  struct RtState {
    sim::Duration runtime = 0;
    sim::Duration deadline = 0;
    sim::Duration period = 0;
    double bw_bps = 0.0;  // bandwidth reservation; 0 = none
  };
  struct SlotState {
    std::uint64_t seq = 0;
    core::Limit limit;
  };
  struct NodeState {
    std::uint64_t agent_incarnation = 0;
    bool dead = false;
  };

  // std::map: deterministic iteration order for takeover replay. Slot keys
  // are the *external* identity container_id*4 + resource — deliberately
  // independent of any leader's process-local ContainerIndex slot numbers,
  // so a standby's replayed state matches regardless of interning order.
  std::map<cluster::ContainerId, ContainerState> containers;
  std::map<std::uint64_t, SlotState> slots;  // key = container*4 + resource
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
  std::uint64_t epoch = 0;

  static std::uint64_t slot_key(cluster::ContainerId id, core::Resource r) {
    return static_cast<std::uint64_t>(id) * 4 +
           static_cast<std::uint64_t>(r);
  }

  void apply(const WalRecord& r) {
    if (r.epoch_start) {
      // The new leader re-registers everything through its replication hook
      // right after this record; the replica rebuilds from that.
      containers.clear();
      slots.clear();
      nodes.clear();
      credits.clear();
      credit_minted = 0;
      credit_burned = 0;
      rt.clear();
      epoch = r.epoch;
      return;
    }
    using Kind = core::Controller::ReplicationEvent::Kind;
    const core::Controller::ReplicationEvent& e = r.event;
    switch (e.kind) {
      case Kind::kRegister:
        containers[e.container] =
            ContainerState{e.cores, e.mem, e.node, e.bw_bps};
        break;
      case Kind::kDeregister:
        containers.erase(e.container);
        slots.erase(slot_key(e.container, core::Resource::kCpu));
        slots.erase(slot_key(e.container, core::Resource::kMem));
        slots.erase(slot_key(e.container, core::Resource::kBw));
        rt.erase(e.container);
        break;
      case Kind::kSlot: {
        slots[slot_key(e.container, e.limit.resource)] =
            SlotState{e.seq, e.limit};
        const auto it = containers.find(e.container);
        if (it == containers.end()) break;
        // The slot's value is the container's new shadow commitment.
        switch (e.limit.resource) {
          case core::Resource::kCpu:
            it->second.cores = e.limit.value;
            break;
          case core::Resource::kMem:
            it->second.mem = static_cast<memcg::Bytes>(e.limit.value);
            break;
          case core::Resource::kBw:
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
          rt[e.container] =
              RtState{e.rt_runtime, e.rt_deadline, e.rt_period, e.bw_bps};
        }
        break;
    }
  }
};

}  // namespace escra::ha
