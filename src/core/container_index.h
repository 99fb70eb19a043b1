// Dense container-slot interning for the control-plane hot path.
//
// Every per-sample structure in the control plane — the Controller's
// registry and desired-state slots, the Agent's managed table, the
// allocator's sliding windows, the Distributed Container's member book —
// used to hash a sparse `cluster::ContainerId` on every lookup. A
// ContainerIndex interns those ids into contiguous u32 *slots* so hot state
// can live in struct-of-arrays vectors indexed directly: one predictable
// load instead of a hash probe, and dense iteration instead of
// unordered_map walk order.
//
// The id -> slot map itself comes in two shapes, chosen by how many tables
// of that kind exist:
//   * ContainerIndex (DenseIdMap) is direct-mapped: 4 B per id up to the
//     largest id seen. Right for the handful of controller-wide tables
//     (Controller, ResourceAllocator, DistributedContainer), which hold
//     most of the cluster and sit on the per-telemetry decision path.
//   * SparseContainerIndex (SparseIdMap) hashes: its size follows the ids
//     it holds, not their magnitude. Right for the per-node Agent tables —
//     one per (shard, node), each holding the few containers on its node —
//     where a direct map would cost 4 B x the largest cluster-wide id per
//     node (gigabytes at 10k nodes / 100k containers).
// Both share the slot, free-list, generation and iteration logic below, so
// slot assignment is identical whichever map sits underneath.
//
// Properties the rest of the tree relies on (locked by
// tests/container_index_test.cc):
//   * Determinism. Slot assignment is a pure function of the intern/release
//     call sequence (LIFO free-list reuse, ascending growth), so identical
//     seeds — and a takeover replaying the same registration order — produce
//     identical slot layouts and identical dense iteration order.
//   * Generation tags. A released slot's generation bumps before reuse;
//     a Handle captured before the release no longer resolves. Stale
//     handles are inert, never aliases of the slot's next tenant.
//   * Dense iteration. for_each visits live slots in ascending slot order,
//     skipping holes; after heavy churn the order is still deterministic.
//
// External identities (WAL records, replication events, trace events, the
// `container_id * 4 + resource` slot keys) keep using the stable
// ContainerId — slots are a process-local acceleration, never serialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/container.h"

namespace escra::core {

// Sentinel for "no slot". All-ones so a branchless `slot < size` check
// also rejects it.
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

// Direct-mapped id -> slot: one load per lookup.
class DenseIdMap {
 public:
  std::uint32_t find(cluster::ContainerId id) const {
    return id < slots_.size() ? slots_[id] : kNoSlot;
  }
  void set(cluster::ContainerId id, std::uint32_t slot) {
    if (id >= slots_.size()) {
      slots_.resize(static_cast<std::size_t>(id) + 1, kNoSlot);
    }
    slots_[id] = slot;
  }
  void erase(cluster::ContainerId id) { slots_[id] = kNoSlot; }
  void clear() { slots_.clear(); }

 private:
  std::vector<std::uint32_t> slots_;
};

// Hashed id -> slot: footprint proportional to the ids held.
class SparseIdMap {
 public:
  std::uint32_t find(cluster::ContainerId id) const {
    const auto it = slots_.find(id);
    return it == slots_.end() ? kNoSlot : it->second;
  }
  void set(cluster::ContainerId id, std::uint32_t slot) { slots_[id] = slot; }
  void erase(cluster::ContainerId id) { slots_.erase(id); }
  void clear() { slots_.clear(); }

 private:
  std::unordered_map<cluster::ContainerId, std::uint32_t> slots_;
};

template <typename IdMap>
class BasicContainerIndex {
 public:
  static constexpr std::uint32_t kInvalid = kNoSlot;

  // A generation-tagged reference to a slot. Resolves only while the slot's
  // current tenant is the one the handle was taken against.
  struct Handle {
    std::uint32_t slot = kInvalid;
    std::uint32_t generation = 0;
  };

  // Interns `id`, returning its slot. A known id returns its existing slot;
  // an unknown one takes the most recently freed slot (LIFO) or grows the
  // arrays by one. `created` (optional) reports which case happened so the
  // caller knows to (re)initialize its per-slot state.
  std::uint32_t intern(cluster::ContainerId id, bool* created = nullptr) {
    const std::uint32_t known = id_to_slot_.find(id);
    if (known != kInvalid) {
      if (created != nullptr) *created = false;
      return known;
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slot_to_id_[slot] = id;
      live_[slot] = 1;
    } else {
      slot = static_cast<std::uint32_t>(slot_to_id_.size());
      slot_to_id_.push_back(id);
      gen_.push_back(0);
      live_.push_back(1);
    }
    id_to_slot_.set(id, slot);
    ++size_;
    if (created != nullptr) *created = true;
    return slot;
  }

  // Slot for `id`, or kInvalid if the id is not interned.
  std::uint32_t find(cluster::ContainerId id) const {
    return id_to_slot_.find(id);
  }

  bool contains(cluster::ContainerId id) const { return find(id) != kInvalid; }

  // Releases `id`'s slot back to the free list, bumping its generation so
  // outstanding handles go stale. Returns the freed slot (kInvalid if the
  // id was not interned). Per-slot side-table state need not be cleared
  // here: intern reports `created` on reuse so owners reset it then.
  std::uint32_t release(cluster::ContainerId id) {
    const std::uint32_t slot = find(id);
    if (slot == kInvalid) return kInvalid;
    id_to_slot_.erase(id);
    live_[slot] = 0;
    ++gen_[slot];
    free_.push_back(slot);
    --size_;
    return slot;
  }

  // Generation-tagged handle for a live id; {kInvalid, 0} otherwise.
  Handle handle(cluster::ContainerId id) const {
    const std::uint32_t slot = find(id);
    return slot == kInvalid ? Handle{} : Handle{slot, gen_[slot]};
  }

  // Resolves a handle: its slot while the tenancy it was taken against is
  // still current, kInvalid once the slot was released (even if reused).
  std::uint32_t resolve(Handle h) const {
    if (h.slot >= live_.size() || live_[h.slot] == 0) return kInvalid;
    return gen_[h.slot] == h.generation ? h.slot : kInvalid;
  }

  bool live(std::uint32_t slot) const {
    return slot < live_.size() && live_[slot] != 0;
  }
  cluster::ContainerId id_at(std::uint32_t slot) const {
    return slot_to_id_[slot];
  }
  std::uint32_t generation(std::uint32_t slot) const { return gen_[slot]; }

  // Live slot count / total slots ever created (vector length for SoA
  // side tables — index any slot in [0, capacity)).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slot_to_id_.size(); }

  // Visits every live slot in ascending slot order: fn(slot, id).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint32_t n = static_cast<std::uint32_t>(slot_to_id_.size());
    for (std::uint32_t slot = 0; slot < n; ++slot) {
      if (live_[slot] != 0) fn(slot, slot_to_id_[slot]);
    }
  }

  void clear() {
    id_to_slot_.clear();
    slot_to_id_.clear();
    gen_.clear();
    live_.clear();
    free_.clear();
    size_ = 0;
  }

 private:
  IdMap id_to_slot_;
  std::vector<cluster::ContainerId> slot_to_id_;
  std::vector<std::uint32_t> gen_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_;  // LIFO: hottest slot reused first
  std::size_t size_ = 0;
};

using ContainerIndex = BasicContainerIndex<DenseIdMap>;
using SparseContainerIndex = BasicContainerIndex<SparseIdMap>;

}  // namespace escra::core
