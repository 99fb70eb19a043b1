// core::ContainerIndex: the dense slot interner under every hot-path SoA
// table. Locks the properties the rest of the tree leans on — released
// slots are reused LIFO and clear() starts over from slot 0, dense
// iteration is deterministic for a given call sequence, and a seat that
// rebuilds the controller's book — a standby's takeover replay or a plain
// restart's resync — lays the Distributed Container's slots out exactly as
// a fresh registration in the same order would (slots are a pure function
// of registration order, so every replica that folds the same log agrees).
#include "core/container_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/rng.h"

namespace escra {
namespace {

using core::ContainerIndex;
using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

// --- slot reuse -----------------------------------------------------------

TEST(ContainerIndexTest, ReleasedSlotsAreReusedLifo) {
  ContainerIndex idx;
  idx.intern(10);
  const std::uint32_t b = idx.intern(20);
  idx.intern(30);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.capacity(), 3u);

  EXPECT_EQ(idx.release(20), b);
  EXPECT_FALSE(idx.contains(20));
  EXPECT_EQ(idx.release(20), ContainerIndex::kInvalid) << "already released";

  // LIFO reuse: the next unknown id takes b's slot, reported as a new
  // tenant so the owner resets the slot's rows.
  bool created = false;
  EXPECT_EQ(idx.intern(40, &created), b);
  EXPECT_TRUE(created);
  EXPECT_EQ(idx.find(40), b);
  EXPECT_EQ(idx.capacity(), 3u) << "reuse must not grow the arrays";

  // clear() forgets every id and the free list: interns count up from 0.
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.contains(10));
  EXPECT_EQ(idx.intern(30), 0u);
  EXPECT_EQ(idx.intern(10), 1u);
}

// --- deterministic dense iteration ---------------------------------------

// Everything an index reveals under an rng-scripted intern/release churn:
// the slot each call returned, then the final (slot, id) for_each order.
struct ChurnTrace {
  std::vector<std::uint32_t> calls;
  std::vector<std::pair<std::uint32_t, cluster::ContainerId>> order;
  bool operator==(const ChurnTrace&) const = default;
};

// Drives one index through the churn: mostly fresh ids, some releases, and
// some re-interns of a live id (which must return its existing slot).
template <typename Index>
ChurnTrace churn_trace(std::uint64_t seed) {
  Index idx;
  sim::Rng rng(seed);
  ChurnTrace trace;
  std::vector<cluster::ContainerId> live;
  cluster::ContainerId next_id = 1;
  for (int step = 0; step < 2000; ++step) {
    const auto pick = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    };
    if (live.empty() || rng.chance(0.6)) {
      const cluster::ContainerId id = next_id++;
      trace.calls.push_back(idx.intern(id));
      live.push_back(id);
    } else if (rng.chance(0.2)) {
      bool created = true;
      trace.calls.push_back(idx.intern(live[pick()], &created));
      EXPECT_FALSE(created) << "a live id keeps its slot";
    } else {
      const std::size_t victim = pick();
      trace.calls.push_back(idx.release(live[victim]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  idx.for_each([&](std::uint32_t slot, cluster::ContainerId id) {
    trace.order.emplace_back(slot, id);
  });
  EXPECT_EQ(trace.order.size(), idx.size());
  return trace;
}

std::vector<std::pair<std::uint32_t, cluster::ContainerId>> churn(
    std::uint64_t seed) {
  return churn_trace<ContainerIndex>(seed).order;
}

TEST(ContainerIndexTest, DenseIterationIsDeterministicAcrossIdenticalSeeds) {
  const auto a = churn(0xc0ffee);
  const auto b = churn(0xc0ffee);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b) << "same call sequence, same slot layout, same order";

  // for_each visits ascending slots (dense scan, holes skipped) and every
  // reported slot round-trips through the accessors.
  ContainerIndex idx;
  for (const auto& [slot, id] : a) idx.intern(id);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1].first, a[i].first) << "ascending slot order";
  }

  const auto c = churn(0xdecade);
  EXPECT_NE(a, c) << "guard: the churn script actually depends on the seed";
}

// The Agent's sparse id map must be a drop-in for the controller's dense
// one: the slot and free-list logic is shared, so the same call sequence
// yields the same slots and iteration order.
TEST(ContainerIndexTest, SparseAndDenseMapsAssignIdenticalSlots) {
  for (const std::uint64_t seed : {0xc0ffeeULL, 0xdecadeULL, 7ULL}) {
    const ChurnTrace dense = churn_trace<ContainerIndex>(seed);
    const ChurnTrace sparse = churn_trace<core::SparseContainerIndex>(seed);
    ASSERT_FALSE(dense.calls.empty());
    EXPECT_EQ(dense.calls, sparse.calls) << "seed " << seed;
    EXPECT_EQ(dense.order, sparse.order) << "seed " << seed;
  }

  // Ids far past anything a dense map could hold stay cheap and exact.
  core::SparseContainerIndex idx;
  constexpr cluster::ContainerId kHuge = 4'000'000'000u;
  EXPECT_EQ(idx.intern(kHuge), 0u);
  EXPECT_EQ(idx.intern(5), 1u);
  EXPECT_EQ(idx.find(kHuge), 0u);
  EXPECT_EQ(idx.find(kHuge - 1), core::SparseContainerIndex::kInvalid);
  EXPECT_EQ(idx.release(kHuge), 0u);
  EXPECT_FALSE(idx.contains(kHuge));
  EXPECT_EQ(idx.intern(kHuge + 1), 0u) << "LIFO reuse of the freed slot";
}

// --- slot layout across a seat change -------------------------------------

// A full HA rig: leader + warm standby, four managed containers, optionally
// a mid-run deregistration for churn, then the seat changes hands at 1 s —
// a leader kill the standby takes over, or a plain crash/restart inside the
// lease (no failover; the restarted seat resyncs from the Agents). Either
// way the new seat re-registers the survivors, and the Distributed
// Container's slot layout must be exactly what a fresh registration in the
// same order yields: no leftover free list, identical across runs.
enum class SeatChange { kTakeover, kTakeoverAfterChurn, kRestart };

struct SeatRun {
  std::vector<std::pair<cluster::ContainerId, std::uint32_t>> slots;
  std::vector<cluster::ContainerId> reregistered;  // after the change
  std::uint64_t epoch = 0;
};

SeatRun run_seat_change(SeatChange change) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  k8s.add_node({});
  std::vector<cluster::Container*> containers;
  for (int i = 0; i < 4; ++i) {
    cluster::ContainerSpec s;
    s.name = "c" + std::to_string(i);
    s.base_memory = 64 * kMiB;
    s.max_parallelism = 4.0;
    containers.push_back(&k8s.create_container(std::move(s), 0.5, 128 * kMiB));
  }
  core::EscraSystem escra(sim, net, k8s, 16.0, 8 * kGiB);
  obs::Observer observer;
  escra.attach_observer(observer);
  escra.manage(containers);
  escra.start();
  ha::HaConfig cfg;
  cfg.standbys = 1;
  ha::HaControlPlane ha(escra, net, cfg);
  ha.start();

  if (change == SeatChange::kTakeoverAfterChurn) {
    // Free a slot mid-run so the pre-kill layout has seen the free list.
    sim.schedule_at(milliseconds(500), [&] { escra.release(*containers[1]); });
  }
  if (change == SeatChange::kRestart) {
    sim.schedule_at(seconds(1), [&] { escra.crash(); });
    sim.schedule_at(seconds(1) + milliseconds(100), [&] { escra.restart(); });
  } else {
    sim.schedule_at(seconds(1), [&] { ha.kill_leader(); });
  }
  sim.run_until(seconds(3));

  EXPECT_FALSE(escra.crashed());
  EXPECT_EQ(ha.failovers(), change == SeatChange::kRestart ? 0u : 1u);

  SeatRun out;
  out.epoch = escra.controller().epoch();
  for (const cluster::Container* c : containers) {
    out.slots.emplace_back(c->id(), escra.app().slot_of(c->id()));
  }
  const obs::TraceBuffer& trace = observer.trace();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& ev = trace.at(i);
    if (ev.kind == obs::EventKind::kContainerRegistered &&
        ev.time >= seconds(1)) {
      out.reregistered.push_back(ev.container);
    }
  }
  return out;
}

// The layout a fresh index gives the re-registration order.
void expect_fresh_layout(const SeatRun& run) {
  ContainerIndex fresh;
  for (const cluster::ContainerId id : run.reregistered) fresh.intern(id);
  for (const auto& [id, slot] : run.slots) {
    EXPECT_EQ(slot, fresh.find(id)) << "container " << id;
  }
}

TEST(ContainerIndexTest, TakeoverReplayRebuildsTheSlotLayoutDeterministically) {
  // Without churn the replicated registration order equals the bootstrap
  // order, so replay reproduces the dead leader's layout exactly: dense
  // ascending slots for the four containers, none invalid.
  const SeatRun plain = run_seat_change(SeatChange::kTakeover);
  EXPECT_EQ(plain.reregistered.size(), 4u);
  expect_fresh_layout(plain);
  for (std::size_t i = 0; i < plain.slots.size(); ++i) {
    EXPECT_EQ(plain.slots[i].second, static_cast<std::uint32_t>(i))
        << "container " << plain.slots[i].first;
  }

  // With churn, the layouts of two identical runs must still agree slot for
  // slot (pure function of the replayed log), the released container must
  // stay un-interned, and the survivors must be dense in [0, live).
  const SeatRun a = run_seat_change(SeatChange::kTakeoverAfterChurn);
  const SeatRun b = run_seat_change(SeatChange::kTakeoverAfterChurn);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.epoch, b.epoch);
  expect_fresh_layout(a);
  EXPECT_EQ(a.slots[1].second, core::kNoSlot)
      << "released container must not be resurrected by the replay";
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_LT(a.slots[i].second, 3u) << "survivors pack densely";
  }

  // A plain restart resyncs every survivor from the Agents: the crash freed
  // all four slots at once, and the restarted seat must not hand them back
  // off a free list — its layout is a fresh registration's, in resync order.
  const SeatRun restart = run_seat_change(SeatChange::kRestart);
  EXPECT_EQ(restart.reregistered.size(), 4u);
  expect_fresh_layout(restart);
  EXPECT_EQ(restart.slots, run_seat_change(SeatChange::kRestart).slots);
}

}  // namespace
}  // namespace escra
