// core::ContainerIndex: the dense slot interner under every hot-path SoA
// table. Locks the four properties the rest of the tree leans on — slot
// reuse hands out fresh generations, stale handles are inert (never aliases
// of the slot's next tenant), dense iteration is deterministic for a given
// call sequence, and a controller takeover's replay rebuilds an identical
// slot layout (slots are a pure function of registration order, so every
// replica that folds the same log agrees).
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

// --- generations & handles ------------------------------------------------

TEST(ContainerIndexTest, ReleaseBumpsGenerationBeforeReuse) {
  ContainerIndex idx;
  const std::uint32_t a = idx.intern(10);
  const std::uint32_t b = idx.intern(20);
  idx.intern(30);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.capacity(), 3u);

  const ContainerIndex::Handle hb = idx.handle(20);
  EXPECT_EQ(idx.resolve(hb), b);
  const std::uint32_t gen_before = idx.generation(b);

  EXPECT_EQ(idx.release(20), b);
  EXPECT_FALSE(idx.contains(20));
  EXPECT_EQ(idx.generation(b), gen_before + 1);

  // LIFO reuse: the next unknown id takes b's slot, under the new
  // generation — a fresh tenancy, not a resurrection.
  bool created = false;
  const std::uint32_t c = idx.intern(40, &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(c, b);
  EXPECT_EQ(idx.id_at(c), 40u);
  EXPECT_EQ(idx.capacity(), 3u) << "reuse must not grow the arrays";
  EXPECT_NE(idx.handle(40).generation, hb.generation);
  (void)a;
}

TEST(ContainerIndexTest, StaleHandlesAreInertAcrossReuseAndReintern) {
  ContainerIndex idx;
  idx.intern(1);
  const std::uint32_t slot = idx.intern(2);
  const ContainerIndex::Handle h = idx.handle(2);

  idx.release(2);
  EXPECT_EQ(idx.resolve(h), ContainerIndex::kInvalid) << "released";

  // Even the *same id* coming back lands under a new generation: the old
  // handle stays dead (its side-table rows may have been reinitialized).
  const std::uint32_t again = idx.intern(2);
  EXPECT_EQ(again, slot);
  EXPECT_EQ(idx.resolve(h), ContainerIndex::kInvalid) << "stale generation";
  EXPECT_EQ(idx.resolve(idx.handle(2)), slot) << "fresh handle resolves";

  // A default handle and an out-of-range slot never resolve.
  EXPECT_EQ(idx.resolve(ContainerIndex::Handle{}), ContainerIndex::kInvalid);
  EXPECT_EQ(idx.resolve(ContainerIndex::Handle{99, 0}),
            ContainerIndex::kInvalid);
}

// --- deterministic dense iteration ---------------------------------------

// Everything an index reveals under an rng-scripted intern/release churn:
// the slot each call returned, then the final (slot, id) for_each order and
// every slot's generation.
struct ChurnTrace {
  std::vector<std::uint32_t> calls;
  std::vector<std::pair<std::uint32_t, cluster::ContainerId>> order;
  std::vector<std::uint32_t> generations;
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
  for (std::uint32_t slot = 0; slot < idx.capacity(); ++slot) {
    trace.generations.push_back(idx.generation(slot));
  }
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
// one: the slot, free-list and generation logic is shared, so the same call
// sequence yields the same slots, generations and iteration order.
TEST(ContainerIndexTest, SparseAndDenseMapsAssignIdenticalSlots) {
  for (const std::uint64_t seed : {0xc0ffeeULL, 0xdecadeULL, 7ULL}) {
    const ChurnTrace dense = churn_trace<ContainerIndex>(seed);
    const ChurnTrace sparse = churn_trace<core::SparseContainerIndex>(seed);
    ASSERT_FALSE(dense.calls.empty());
    EXPECT_EQ(dense.calls, sparse.calls) << "seed " << seed;
    EXPECT_EQ(dense.order, sparse.order) << "seed " << seed;
    EXPECT_EQ(dense.generations, sparse.generations) << "seed " << seed;
  }

  // Ids far past anything a dense map could hold stay cheap and exact.
  core::SparseContainerIndex idx;
  constexpr cluster::ContainerId kHuge = 4'000'000'000u;
  EXPECT_EQ(idx.intern(kHuge), 0u);
  EXPECT_EQ(idx.intern(5), 1u);
  EXPECT_EQ(idx.find(kHuge), 0u);
  EXPECT_EQ(idx.find(kHuge - 1), core::SparseContainerIndex::kInvalid);
  const core::SparseContainerIndex::Handle h = idx.handle(kHuge);
  EXPECT_EQ(idx.release(kHuge), 0u);
  EXPECT_EQ(idx.resolve(h), core::SparseContainerIndex::kInvalid);
  EXPECT_EQ(idx.intern(kHuge + 1), 0u) << "LIFO reuse of the freed slot";
  EXPECT_EQ(idx.generation(0), 1u);
}

// --- slot layout across controller takeover -------------------------------

// A full HA rig: leader + warm standby, four managed containers, a mid-run
// deregistration for churn, then a leader kill. The promoted standby replays
// the replicated registrations; the slot layout it builds must be a pure
// function of that replay — identical across identical runs — and the
// post-takeover index must agree with the registry it serves.
struct TakeoverRun {
  std::vector<std::pair<cluster::ContainerId, std::uint32_t>> slots;
  std::uint64_t epoch = 0;
};

TakeoverRun run_takeover(bool with_churn) {
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

  if (with_churn) {
    // Free a slot mid-run so the pre-kill layout has seen the free list.
    sim.schedule_at(milliseconds(500), [&] { escra.release(*containers[1]); });
  }
  sim.schedule_at(seconds(1), [&] { ha.kill_leader(); });
  sim.run_until(seconds(3));

  EXPECT_FALSE(escra.crashed()) << "the standby must hold the seat";
  EXPECT_EQ(ha.failovers(), 1u);

  TakeoverRun out;
  out.epoch = escra.controller().epoch();
  for (const cluster::Container* c : containers) {
    out.slots.emplace_back(c->id(),
                           escra.controller().container_slot_for_test(c->id()));
  }
  return out;
}

TEST(ContainerIndexTest, TakeoverReplayRebuildsTheSlotLayoutDeterministically) {
  // Without churn the replicated registration order equals the bootstrap
  // order, so replay reproduces the dead leader's layout exactly: dense
  // ascending slots for the four containers, none invalid.
  const TakeoverRun plain = run_takeover(/*with_churn=*/false);
  for (std::size_t i = 0; i < plain.slots.size(); ++i) {
    EXPECT_EQ(plain.slots[i].second, static_cast<std::uint32_t>(i))
        << "container " << plain.slots[i].first;
  }

  // With churn, the layouts of two identical runs must still agree slot for
  // slot (pure function of the replayed log), the released container must
  // stay un-interned, and the survivors must be dense in [0, live).
  const TakeoverRun a = run_takeover(/*with_churn=*/true);
  const TakeoverRun b = run_takeover(/*with_churn=*/true);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.slots[1].second, core::ContainerIndex::kInvalid)
      << "released container must not be resurrected by the replay";
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_LT(a.slots[i].second, 3u) << "survivors pack densely";
  }
}

}  // namespace
}  // namespace escra

