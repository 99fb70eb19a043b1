// Dense container-slot interning for the control-plane hot path.
//
// A ContainerIndex interns sparse `cluster::ContainerId`s into contiguous
// u32 *slots*, so per-container hot state can live in struct-of-arrays
// vectors indexed directly: one predictable load instead of a hash probe,
// and dense iteration instead of unordered_map walk order.
//
// There is one controller-wide table per Distributed Container: its
// membership is the slot space, and the Resource Allocator's windows and
// RT floors and the Controller's registry and desired-state rows are
// indexed by the same slot and sized by its capacity(). Nobody else interns
// the controller's ids. The id -> slot map comes in two shapes:
//   * ContainerIndex (DenseIdMap) is direct-mapped: 4 B per id up to the
//     largest id seen. Right for the one controller-wide table, which holds
//     most of the cluster and sits on the per-telemetry decision path.
//   * SparseContainerIndex (SparseIdMap) hashes: its size follows the ids
//     it holds, not their magnitude. Right for the per-node Agent tables —
//     one per (shard, node), each holding the few containers on its node —
//     where a direct map would cost 4 B x the largest cluster-wide id per
//     node (gigabytes at 10k nodes / 100k containers).
// Both share the slot, free-list and iteration logic below, so slot
// assignment is identical whichever map sits underneath.
//
// Properties the rest of the tree relies on (locked by
// tests/container_index_test.cc):
//   * Determinism. Slot assignment is a pure function of the intern/release/
//     clear call sequence (LIFO free-list reuse, ascending growth), so
//     identical seeds — and a takeover or restart replaying the same
//     registration order — produce identical slot layouts and identical
//     dense iteration order.
//   * Dense iteration. for_each visits live slots in ascending slot order,
//     skipping holes; after heavy churn the order is still deterministic.
//   * No stale references. Slots carry no generation tag: a released slot
//     is reused as is, and owners reset their per-slot rows when intern
//     reports a new tenant (or unconditionally at registration).
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

  // Releases `id`'s slot back to the free list. Returns the freed slot
  // (kInvalid if the id was not interned). Per-slot side-table state need
  // not be cleared here: intern reports `created` on reuse so owners reset
  // it then.
  std::uint32_t release(cluster::ContainerId id) {
    const std::uint32_t slot = find(id);
    if (slot == kInvalid) return kInvalid;
    id_to_slot_.erase(id);
    live_[slot] = 0;
    free_.push_back(slot);
    --size_;
    return slot;
  }

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

  // Forgets every id: the next interns get fresh slots from 0 upwards.
  void clear() {
    id_to_slot_.clear();
    slot_to_id_.clear();
    live_.clear();
    free_.clear();
    size_ = 0;
  }

 private:
  IdMap id_to_slot_;
  std::vector<cluster::ContainerId> slot_to_id_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_;  // LIFO: hottest slot reused first
  std::size_t size_ = 0;
};

using ContainerIndex = BasicContainerIndex<DenseIdMap>;
using SparseContainerIndex = BasicContainerIndex<SparseIdMap>;

}  // namespace escra::core
