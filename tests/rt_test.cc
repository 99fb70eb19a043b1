// The mixed-criticality real-time container class: the RtSpec contract, the
// node-side deadline-scheduler model (periodic jobs, RT-first scheduling
// tier, miss detection), controller admission control (node / pool / NIC
// utilization bounds), the never-reclaim floor through κ-damping and greedy
// pressure, explicit-eviction-only revocation, and reservation recovery
// across controller crash/resync, HA takeover, and sharded deployments.
#include "cfs/rt.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bw/shaper.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/sharded_control_plane.h"

namespace escra {
namespace {

using core::Controller;
using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

cfs::RtSpec spec_ms(int runtime, int deadline, int period) {
  return {milliseconds(runtime), milliseconds(deadline),
          milliseconds(period)};
}

// --- RtSpec contract ----------------------------------------------------

TEST(RtSpecTest, ValidityRequiresTheSchedDeadlineShape) {
  EXPECT_TRUE(spec_ms(20, 50, 100).valid());
  EXPECT_TRUE(spec_ms(20, 100, 100).valid());  // implicit deadline
  EXPECT_TRUE(spec_ms(50, 50, 50).valid());    // full utilization
  EXPECT_FALSE(spec_ms(0, 50, 100).valid());   // no runtime
  EXPECT_FALSE(spec_ms(60, 50, 100).valid());  // runtime > deadline
  EXPECT_FALSE(spec_ms(20, 200, 100).valid());  // unconstrained deadline
  EXPECT_FALSE(cfs::RtSpec{}.valid());
}

TEST(RtSpecTest, FloorIsTheDensityBound) {
  // Constrained deadline: the denser runtime/deadline rate.
  EXPECT_DOUBLE_EQ(spec_ms(20, 50, 100).floor_cores(), 0.4);
  // Implicit deadline: plain utilization runtime/period.
  EXPECT_DOUBLE_EQ(spec_ms(30, 100, 100).floor_cores(), 0.3);
  EXPECT_DOUBLE_EQ(spec_ms(100, 100, 100).floor_cores(), 1.0);
}

// --- node-side deadline model (no controller) ---------------------------

TEST(ContainerRtTest, PeriodicJobsCompleteWithAmpleQuota) {
  sim::Simulation sim;
  cluster::Cluster k8s(sim);
  k8s.add_node({.cores = 4.0});
  cluster::ContainerSpec spec;
  spec.name = "rt";
  spec.base_memory = 16 * kMiB;
  cluster::Container& c = k8s.create_container(spec, 2.0, 64 * kMiB);

  c.set_rt(spec_ms(20, 50, 100));
  sim.run_until(seconds(2));
  // One job released immediately plus one per period, every one done
  // inside its deadline (the t=2s release has not reached its deadline).
  EXPECT_EQ(c.rt_jobs_released(), 21u);
  EXPECT_GE(c.rt_jobs_completed(), 20u);
  EXPECT_EQ(c.deadline_misses(), 0u);
}

TEST(ContainerRtTest, StarvedQuotaMissesOncePerJobWithoutCascading) {
  sim::Simulation sim;
  cluster::Cluster k8s(sim);
  k8s.add_node({.cores = 4.0});
  cluster::ContainerSpec spec;
  spec.name = "rt";
  spec.base_memory = 16 * kMiB;
  // 0.05 cores against a 0.4-core reservation: every job blows through its
  // deadline with most of its runtime still owed.
  cluster::Container& c = k8s.create_container(spec, 0.05, 64 * kMiB);

  sim::Duration last_remaining = 0;
  int observed = 0;
  c.set_deadline_miss_observer([&](sim::Duration remaining) {
    last_remaining = remaining;
    ++observed;
  });
  c.set_rt(spec_ms(20, 50, 100));
  sim.run_until(seconds(2));

  EXPECT_GT(c.deadline_misses(), 10u);
  // Late jobs are abandoned at the deadline: one miss per release, and the
  // owed core-time never exceeds a single job's runtime.
  EXPECT_LE(c.deadline_misses(), c.rt_jobs_released());
  EXPECT_EQ(static_cast<std::uint64_t>(observed), c.deadline_misses());
  EXPECT_GT(last_remaining, 0);
  EXPECT_LE(last_remaining, milliseconds(20));
}

TEST(ContainerRtTest, RtTierHoldsDeadlinesThroughBestEffortFlood) {
  sim::Simulation sim;
  cluster::Cluster k8s(sim);
  cluster::Node& node = k8s.add_node({.cores = 2.0});
  cluster::ContainerSpec spec;
  spec.base_memory = 16 * kMiB;
  spec.name = "rt";
  cluster::Container& rt = k8s.create_container(spec, 1.0, 64 * kMiB, &node);
  spec.name = "hog";
  spec.max_parallelism = 8.0;
  cluster::Container& hog = k8s.create_container(spec, 8.0, 64 * kMiB, &node);

  rt.set_rt(spec_ms(20, 50, 100));
  // The hog demands 4x the node alone; the scheduler's RT-first tier must
  // still water-fill the reservation before best effort shares the rest.
  sim.schedule_every(milliseconds(1), milliseconds(5), [&] {
    hog.submit(milliseconds(40), 0, nullptr);
  });
  sim.run_until(seconds(2));

  EXPECT_EQ(rt.deadline_misses(), 0u);
  EXPECT_GE(rt.rt_jobs_completed(), 19u);
}

// --- controller admission control ---------------------------------------

struct RtRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  obs::Observer observer;
  std::vector<cluster::Container*> containers;
  core::EscraSystem escra;

  explicit RtRig(int n = 4, double pool_cores = 8.0, double node_cores = 20.0,
                 core::EscraConfig cfg = {})
      : escra(sim, net, k8s, pool_cores, 4 * kGiB, cfg) {
    cluster::Node& node = k8s.add_node({.cores = node_cores});
    k8s.add_node({.cores = node_cores});
    cluster::ContainerSpec spec;
    spec.base_memory = 64 * kMiB;
    spec.max_parallelism = 8.0;
    for (int i = 0; i < n; ++i) {
      spec.name = "c" + std::to_string(i);
      // Everything pinned to node 0: admission bounds are deterministic.
      containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB, &node));
    }
    escra.attach_observer(observer);
    escra.manage(containers);
    escra.start();
  }

  void drive_hot(cluster::Container* c, sim::TimePoint until) {
    sim::Simulation* simp = &sim;
    sim.schedule_every(milliseconds(1), milliseconds(10), [c, simp, until] {
      if (simp->now() >= until) return;
      c->submit(milliseconds(40), 0, nullptr);
    });
  }
};

TEST(RtAdmissionTest, StateRejectionsCoverTheWholeLifecycle) {
  RtRig rig;
  Controller& ctl = rig.escra.controller();
  const cluster::ContainerId id = rig.containers[0]->id();

  // Unknown container / invalid spec / negative rate all reject on state.
  EXPECT_EQ(ctl.admit_rt(9999, spec_ms(20, 50, 100)),
            Controller::RtAdmit::kRejectedState);
  EXPECT_EQ(ctl.admit_rt(id, spec_ms(60, 50, 100)),
            Controller::RtAdmit::kRejectedState);
  EXPECT_EQ(ctl.admit_rt(id, spec_ms(20, 50, 100), -1.0),
            Controller::RtAdmit::kRejectedState);

  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[0], spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_TRUE(ctl.rt_admitted(id));
  EXPECT_DOUBLE_EQ(ctl.rt_floor_of(id), 0.4);
  EXPECT_DOUBLE_EQ(ctl.rt_reserved_cores(), 0.4);

  // Double admission rejects; the reservation is unchanged.
  EXPECT_EQ(ctl.admit_rt(id, spec_ms(10, 100, 100)),
            Controller::RtAdmit::kRejectedState);
  EXPECT_DOUBLE_EQ(ctl.rt_reserved_cores(), 0.4);

  // A crashed controller admits nothing.
  rig.escra.crash();
  EXPECT_EQ(ctl.admit_rt(rig.containers[1]->id(), spec_ms(20, 50, 100)),
            Controller::RtAdmit::kRejectedState);

  EXPECT_EQ(ctl.rt_admissions(), 1u);
  EXPECT_EQ(ctl.rt_rejections(), 5u);
  EXPECT_EQ(rig.observer.h.rt_rejected->value(), 5u);
}

TEST(RtAdmissionTest, NodeUtilizationBoundCapsPerNodeDensity) {
  // Node bound: 0.7 x 4 cores = 2.8 reservable cores on node 0; the pool
  // (0.7 x 16 = 11.2) is not the binding constraint.
  RtRig rig(/*n=*/4, /*pool_cores=*/16.0, /*node_cores=*/4.0);
  Controller& ctl = rig.escra.controller();

  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[0], spec_ms(100, 100, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[1], spec_ms(100, 100, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[2], spec_ms(100, 100, 100)),
            Controller::RtAdmit::kRejectedNode)
      << "3.0 admitted cores would breach the 2.8-core node bound";
  // A smaller reservation still fits under the bound.
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[2], spec_ms(50, 100, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_DOUBLE_EQ(ctl.rt_reserved_cores(), 2.5);
}

TEST(RtAdmissionTest, PoolBoundIsTheGlobalLimitNotTheNode) {
  // Pool bound: 0.7 x 2 cores = 1.4; node 0 alone could hold 0.7 x 20 = 14.
  RtRig rig(/*n=*/3, /*pool_cores=*/2.0);
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[0], spec_ms(100, 100, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[1], spec_ms(50, 100, 100)),
            Controller::RtAdmit::kRejectedPool)
      << "1.5 reserved cores would breach the 1.4-core pool bound";
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[1], spec_ms(30, 100, 100)),
            Controller::RtAdmit::kAdmitted);
}

TEST(RtAdmissionTest, BandwidthArmBoundsAgainstTheNic) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  cluster::Node& node =
      k8s.add_node(cluster::NodeConfig{.cores = 8.0, .nic_bps = 10.0e6});
  bw::ClusterShaper shaper(sim);
  shaper.add_node(node.id(), 10.0e6);
  network.set_shaper(&shaper);
  core::EscraSystem escra(sim, network, k8s, 8.0, 4LL * kGiB);
  obs::Observer observer;
  escra.attach_observer(observer);
  shaper.set_observer(&observer);
  escra.enable_bandwidth(shaper, /*global_bw_bps=*/10.0e6);

  cluster::ContainerSpec spec;
  spec.base_memory = 16 * kMiB;
  spec.name = "a";
  cluster::Container& a = k8s.create_container(spec, 1.0, 64 * kMiB);
  spec.name = "b";
  cluster::Container& b = k8s.create_container(spec, 1.0, 64 * kMiB);
  escra.manage({&a, &b});
  escra.start();

  // NIC arm: 0.5 x 10 MB/s = 5 MB/s reservable on the node.
  EXPECT_EQ(escra.admit_rt(a, spec_ms(20, 100, 100), 4.0e6),
            Controller::RtAdmit::kAdmitted);
  EXPECT_EQ(escra.admit_rt(b, spec_ms(20, 100, 100), 1.5e6),
            Controller::RtAdmit::kRejectedBw)
      << "5.5 MB/s reserved would breach the 5 MB/s NIC bound";
  EXPECT_EQ(escra.admit_rt(b, spec_ms(20, 100, 100), 0.5e6),
            Controller::RtAdmit::kAdmitted);
}

TEST(RtAdmissionTest, BandwidthReservationNeedsTheBwPlane) {
  RtRig rig;  // bandwidth never enabled: no shaper, no NIC budget
  EXPECT_EQ(rig.escra.controller().admit_rt(rig.containers[0]->id(),
                                            spec_ms(20, 100, 100), 1.0e6),
            Controller::RtAdmit::kRejectedBw);
  // The same admission without a rate reservation is fine.
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[0], spec_ms(20, 100, 100)),
            Controller::RtAdmit::kAdmitted);
}

// --- never-reclaim floor -------------------------------------------------

TEST(RtFloorTest, AdmissionShedsBestEffortToFundTheFloor)  {
  RtRig rig(/*n=*/4, /*pool_cores=*/4.0);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  // Containers 1..3 run hot and absorb the pool; container 0 idles, so
  // κ-damping bleeds its share toward min_cores and the unallocated pool
  // cannot cover a 1-core floor on its own.
  for (int i = 1; i < 4; ++i) rig.drive_hot(rig.containers[i], seconds(5));
  rig.sim.run_until(seconds(5));
  ASSERT_LT(rig.escra.app().member_cores(rig.containers[0]->id()) +
                rig.escra.app().cpu_unallocated(),
            1.0)
      << "the idle member + free pool must not cover the floor, or the "
         "shed path is not exercised";

  const std::uint64_t shrinks_before = rig.observer.h.cpu_shrinks->value();
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[0], spec_ms(100, 200, 100)),
            Controller::RtAdmit::kRejectedState)
      << "unconstrained deadline: invalid spec";
  ASSERT_EQ(rig.escra.admit_rt(*rig.containers[0], spec_ms(50, 50, 100)),
            Controller::RtAdmit::kAdmitted);

  // The floor holds from the instant of admission, funded by shrinking
  // best-effort members (graceful degradation: best effort sheds first).
  EXPECT_GE(rig.escra.app().member_cores(rig.containers[0]->id()),
            1.0 - 1e-6);
  EXPECT_GT(rig.observer.h.cpu_shrinks->value(), shrinks_before);
  rig.sim.run_until(seconds(6));
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(RtFloorTest, DeadNodeSurplusNeverFundsAnAdmission) {
  // A dry pool whose only surplus sits on a dead, quarantined node: the
  // shed path may not touch a frozen share, so admitting a floor the live
  // members cannot fund would leave the book below it. Admission must
  // refuse up front, leaving no trace of the reservation and no shrinks.
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  obs::Observer observer;
  core::EscraSystem escra(sim, net, k8s, 4.0, 4 * kGiB);
  cluster::Node& live = k8s.add_node({.cores = 20.0});
  cluster::Node& doomed = k8s.add_node({.cores = 20.0});
  cluster::ContainerSpec spec;
  spec.base_memory = 64 * kMiB;
  spec.max_parallelism = 8.0;
  std::vector<cluster::Container*> containers;
  for (int i = 0; i < 4; ++i) {
    spec.name = "c" + std::to_string(i);
    containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB,
                                               i == 0 ? &live : &doomed));
  }
  escra.attach_observer(observer);
  escra.manage(containers);
  escra.start();
  check::InvariantChecker checker(escra, net, observer);
  // Containers 1..3 run hot and absorb the pool; container 0 idles on the
  // live node and bleeds toward min_cores.
  for (int i = 1; i < 4; ++i) {
    cluster::Container* c = containers[i];
    sim.schedule_every(milliseconds(1), milliseconds(10), [c] {
      c->submit(milliseconds(40), 0, nullptr);
    });
  }
  sim.run_until(seconds(5));
  net.partition(doomed.id(), net::kControllerEndpoint);
  sim.run_until(seconds(6));  // dead, inside the 2 s quarantine grace

  Controller& ctl = escra.controller();
  ASSERT_TRUE(ctl.node_dead(doomed.id()));
  cluster::Container* rt = containers[0];
  const double floor = 1.0;
  ASSERT_LT(escra.app().member_cores(rt->id()) +
                escra.app().cpu_unallocated(),
            floor)
      << "the live member + free pool must not cover the floor";
  const std::uint64_t shrinks_before = observer.h.cpu_shrinks->value();
  EXPECT_EQ(escra.admit_rt(*rt, spec_ms(50, 50, 100)),
            Controller::RtAdmit::kRejectedPool);
  EXPECT_FALSE(escra.rt_admitted(rt->id()));
  EXPECT_EQ(observer.h.rt_admitted->value(), 0u);
  EXPECT_EQ(observer.h.cpu_shrinks->value(), shrinks_before);
  sim.run_until(seconds(7));
  EXPECT_TRUE(checker.ok()) << checker.report();

  // Once quarantine reclaims the dead node's share, the same floor is
  // fundable and holds from the instant of admission.
  sim.run_until(seconds(9));
  ASSERT_EQ(escra.admit_rt(*rt, spec_ms(50, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_GE(escra.app().member_cores(rt->id()), floor - 1e-6);
  sim.run_until(seconds(10));
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(RtFloorTest, KappaAndGreedyDecayNeverReclaimBelowTheFloor) {
  core::EscraConfig cfg;
  cfg.credit_defense = true;  // arm the Karma throttle path too
  RtRig rig(/*n=*/4, /*pool_cores=*/8.0, /*node_cores=*/20.0, cfg);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  checker.attach_credits(rig.escra.controller().credits());

  cluster::Container* rt = rig.containers[0];
  ASSERT_EQ(rig.escra.admit_rt(*rt, spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  const double floor = 0.4;

  // The RT container runs nothing but its periodic jobs — κ-damping sees a
  // nearly idle tenant and would normally bleed it to min_cores — while
  // every best-effort peer floods the node and the credit defense decays
  // overclaimers. 60 s of sustained adversarial pressure.
  for (int i = 1; i < 4; ++i) rig.drive_hot(rig.containers[i], seconds(60));
  const std::uint32_t rt_id = rt->id();
  double min_seen = 1e9;
  rig.sim.schedule_every(milliseconds(100), milliseconds(100), [&] {
    min_seen = std::min(min_seen, rig.escra.app().member_cores(rt_id));
  });
  rig.sim.run_until(seconds(60));

  EXPECT_GE(min_seen, floor - 1e-6)
      << "an allocator decision reclaimed the admitted floor";
  EXPECT_EQ(rt->deadline_misses(), 0u);
  EXPECT_GE(rt->rt_jobs_completed(), 595u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- explicit eviction, crash/resync, takeover ---------------------------

TEST(RtLifecycleTest, ReleaseEvictsExplicitlyBeforeTheKill) {
  RtRig rig;
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  cluster::Container* rt = rig.containers[0];
  ASSERT_EQ(rig.escra.admit_rt(*rt, spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  rig.sim.run_until(seconds(2));

  rig.escra.release(*rt);
  EXPECT_FALSE(rig.escra.rt_admitted(rt->id()));
  EXPECT_DOUBLE_EQ(rig.escra.rt_reserved_cores(), 0.0);
  EXPECT_EQ(rig.observer.h.rt_evicted->value(), 1u);
  EXPECT_FALSE(rt->rt().valid()) << "the node-side deadline model is torn down";

  // The kRtEvicted decision (reason 0: released) precedes the kill record.
  const obs::TraceBuffer& trace = rig.observer.trace();
  bool saw_evict = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& ev = trace.at(i);
    if (ev.kind == obs::EventKind::kRtEvicted) {
      saw_evict = true;
      EXPECT_EQ(ev.detail, 0);
      EXPECT_DOUBLE_EQ(ev.before, 0.4);
    }
    if (ev.kind == obs::EventKind::kContainerKilled &&
        ev.container == rt->id()) {
      EXPECT_TRUE(saw_evict) << "kill recorded before the eviction decision";
    }
  }
  EXPECT_TRUE(saw_evict);
  rig.sim.run_until(seconds(3));
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(RtLifecycleTest, OperatorEvictionTearsDownAndFreesHeadroom) {
  RtRig rig(/*n=*/2, /*pool_cores=*/2.0);
  ASSERT_EQ(rig.escra.admit_rt(*rig.containers[0], spec_ms(100, 100, 100)),
            Controller::RtAdmit::kAdmitted);
  ASSERT_EQ(rig.escra.admit_rt(*rig.containers[1], spec_ms(50, 100, 100)),
            Controller::RtAdmit::kRejectedPool);
  EXPECT_TRUE(rig.escra.evict_rt(*rig.containers[0]));  // reason 2: operator
  EXPECT_FALSE(rig.escra.evict_rt(*rig.containers[0])) << "already evicted";
  // The freed headroom is immediately admittable again.
  EXPECT_EQ(rig.escra.admit_rt(*rig.containers[1], spec_ms(50, 100, 100)),
            Controller::RtAdmit::kAdmitted);
}

TEST(RtLifecycleTest, CrashResyncRederivesTheReservationExactlyOnce) {
  RtRig rig;
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  cluster::Container* rt = rig.containers[0];
  ASSERT_EQ(rig.escra.admit_rt(*rt, spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  rig.sim.run_until(seconds(2));
  ASSERT_EQ(rig.observer.h.rt_admitted->value(), 1u);

  rig.escra.crash();
  // Soft state is gone; the node-side deadline model keeps running.
  EXPECT_FALSE(rig.escra.rt_admitted(rt->id()));
  EXPECT_TRUE(rt->rt().valid());
  rig.sim.run_until(seconds(3));
  rig.escra.restart();
  rig.sim.run_until(seconds(6));

  // Resync re-derived the reservation from the container's own RT state —
  // no second admission event (exactly-once), same floor, floor enforced.
  EXPECT_TRUE(rig.escra.rt_admitted(rt->id()));
  EXPECT_DOUBLE_EQ(rig.escra.controller().rt_floor_of(rt->id()), 0.4);
  EXPECT_EQ(rig.observer.h.rt_admitted->value(), 1u);
  EXPECT_GE(rig.escra.app().member_cores(rt->id()), 0.4 - 1e-6);
  EXPECT_EQ(rt->deadline_misses(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(RtLifecycleTest, DeadNodeQuarantineRevokesExplicitlyAndFailsStatic) {
  RtRig rig;
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  cluster::Container* rt = rig.containers[0];
  ASSERT_EQ(rig.escra.admit_rt(*rt, spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  rig.sim.run_until(seconds(2));

  // Node 0 (all containers) falls off the network for good.
  rig.net.partition(0, net::kControllerEndpoint);
  rig.sim.run_until(seconds(10));

  ASSERT_TRUE(rig.escra.controller().node_dead(0));
  EXPECT_FALSE(rig.escra.rt_admitted(rt->id()));
  EXPECT_DOUBLE_EQ(rig.escra.rt_reserved_cores(), 0.0);
  // Revocation was explicit (reason 1: dead node), never silent.
  const obs::TraceBuffer& trace = rig.observer.trace();
  bool saw_evict = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& ev = trace.at(i);
    if (ev.kind == obs::EventKind::kRtEvicted && ev.container == rt->id()) {
      saw_evict = true;
      EXPECT_EQ(ev.detail, 1);
    }
  }
  EXPECT_TRUE(saw_evict);
  // Fail static: the unreachable node keeps running the deadline model with
  // its last applied limits, so the reservation is still honored locally.
  EXPECT_TRUE(rt->rt().valid());
  EXPECT_EQ(rt->deadline_misses(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(RtHaTest, TakeoverRebuildsTheAdmittedSetExactlyOnce) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  core::EscraSystem escra(sim, net, k8s, 8.0, 4 * kGiB);
  obs::Observer observer;
  std::vector<cluster::Container*> containers;
  k8s.add_node({});
  k8s.add_node({});
  cluster::ContainerSpec spec;
  spec.base_memory = 64 * kMiB;
  spec.max_parallelism = 8.0;
  for (int i = 0; i < 4; ++i) {
    spec.name = "c" + std::to_string(i);
    containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB));
  }
  escra.attach_observer(observer);
  escra.manage(containers);
  escra.start();
  ha::HaConfig hcfg;
  hcfg.standbys = 2;
  ha::HaControlPlane ha(escra, net, hcfg);
  ha.start();
  check::InvariantChecker checker(escra, net, observer);

  sim.run_until(seconds(1));
  ASSERT_EQ(escra.admit_rt(*containers[0], spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  ASSERT_EQ(escra.admit_rt(*containers[1], spec_ms(30, 100, 100), 0.0),
            Controller::RtAdmit::kAdmitted);
  sim.run_until(seconds(2));

  // The reservations rode the WAL: every standby's replica carries them.
  ASSERT_EQ(ha.standby_replica(0).rt.size(), 2u);
  EXPECT_EQ(ha.standby_replica(0).rt.at(containers[0]->id()).spec.runtime,
            milliseconds(20));

  sim.schedule_at(seconds(2) + milliseconds(1), [&] { ha.kill_leader(); });
  sim.run_until(seconds(4));

  ASSERT_EQ(ha.failovers(), 1u);
  ASSERT_FALSE(escra.crashed());
  // The new leader rebuilt the admitted set from the replica, exactly-once:
  // both reservations live, no new admission events, floors enforced.
  EXPECT_TRUE(escra.rt_admitted(containers[0]->id()));
  EXPECT_TRUE(escra.rt_admitted(containers[1]->id()));
  EXPECT_DOUBLE_EQ(escra.rt_reserved_cores(), 0.7);
  EXPECT_EQ(observer.h.rt_admitted->value(), 2u);
  EXPECT_GE(escra.app().member_cores(containers[0]->id()), 0.4 - 1e-6);

  sim.run_until(seconds(8));
  EXPECT_EQ(containers[0]->deadline_misses(), 0u);
  EXPECT_EQ(containers[1]->deadline_misses(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(RtHaTest, ReservationAdmittedBeforeHaAttachSurvivesTakeover) {
  // The reservation predates HA, so no kRt record ever streams: the
  // standbys learn it only from the leader book HA seeds at attach time.
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  core::EscraSystem escra(sim, net, k8s, 8.0, 4 * kGiB);
  obs::Observer observer;
  std::vector<cluster::Container*> containers;
  k8s.add_node({});
  k8s.add_node({});
  cluster::ContainerSpec spec;
  spec.base_memory = 64 * kMiB;
  spec.max_parallelism = 8.0;
  for (int i = 0; i < 4; ++i) {
    spec.name = "c" + std::to_string(i);
    containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB));
  }
  escra.attach_observer(observer);
  escra.manage(containers);
  escra.start();
  check::InvariantChecker checker(escra, net, observer);
  std::optional<ha::HaControlPlane> ha;

  sim.run_until(seconds(1));
  ASSERT_EQ(escra.admit_rt(*containers[0], spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  sim.run_until(seconds(2));
  ha.emplace(escra, net, ha::HaConfig{.standbys = 2});
  ha->start();
  sim.schedule_at(seconds(2) + milliseconds(500), [&] { ha->kill_leader(); });
  sim.run_until(seconds(6));

  ASSERT_EQ(ha->failovers(), 1u);
  const cluster::ContainerId id = containers[0]->id();
  EXPECT_TRUE(escra.rt_admitted(id));
  EXPECT_DOUBLE_EQ(escra.rt_reserved_cores(), 0.4);
  EXPECT_GE(escra.app().member_cores(id), 0.4 - 1e-6);
  EXPECT_EQ(containers[0]->deadline_misses(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
  ha.reset();
}

// --- shards --------------------------------------------------------------

TEST(RtShardTest, AdmissionDebitsTheOwningSliceNeverBorrowedPool) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  for (int n = 0; n < 2; ++n) k8s.add_node({.cores = 16.0});
  shard::ShardPlaneConfig pcfg;
  pcfg.shards = 2;
  shard::ShardedControlPlane plane(sim, net, k8s, /*global_cpu=*/8.0,
                                   memcg::Bytes{4} * kGiB, pcfg);
  std::vector<std::unique_ptr<obs::Observer>> observers;
  for (int s = 0; s < 2; ++s) {
    observers.push_back(std::make_unique<obs::Observer>());
    plane.attach_observer(s, *observers[s]);
  }
  core::AppSpec app;
  app.name = "rt-app";
  for (int i = 0; i < 3; ++i) {
    cluster::ContainerSpec cs;
    cs.name = "rt-app/c" + std::to_string(i);
    cs.base_memory = 64 * kMiB;
    app.containers.push_back(cs);
  }
  const auto members = plane.deploy(app);
  ASSERT_EQ(members.size(), 3u);
  const int owner = plane.shard_of_container(members[0]->id());
  ASSERT_GE(owner, 0);

  // Each shard owns a 4.0-core slice: the RT headroom is 0.7 x 4.0 = 2.8,
  // never the 8-core cluster pool (0.7 x 8 = 5.6 would take all three) and
  // never a borrowed loan.
  EXPECT_EQ(plane.admit_rt(members[0]->id(), spec_ms(100, 100, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_EQ(plane.admit_rt(members[1]->id(), spec_ms(100, 100, 100)),
            Controller::RtAdmit::kAdmitted);
  EXPECT_EQ(plane.admit_rt(members[2]->id(), spec_ms(100, 100, 100)),
            Controller::RtAdmit::kRejectedPool)
      << "3.0 reserved cores would breach the shard slice's 2.8-core bound";
  EXPECT_DOUBLE_EQ(plane.shard(owner).controller().rt_reserved_cores(), 2.0);
  // An unowned container routes nowhere.
  EXPECT_EQ(plane.admit_rt(9999, spec_ms(50, 50, 100)),
            Controller::RtAdmit::kRejectedState);
}

// --- checker rules -------------------------------------------------------

TEST(RtCheckerTest, ForgedKillWithoutEvictionFlagsTheViolation) {
  RtRig rig;
  cluster::Container* rt = rig.containers[0];
  ASSERT_EQ(rig.escra.admit_rt(*rt, spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.sim.run_until(seconds(1));

  // Forge the exact breach the rule exists for: the trace reports the
  // admitted container killed with no kRtEvicted decision anywhere.
  obs::TraceEvent ev;
  ev.time = rig.sim.now();
  ev.kind = obs::EventKind::kContainerKilled;
  ev.container = rt->id();
  rig.observer.record(ev);

  EXPECT_FALSE(checker.ok());
  bool flagged = false;
  for (const check::Violation& v : checker.violations()) {
    if (v.rule == "rt-evict-explicit" && v.container == rt->id()) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << checker.report();
}

TEST(RtCheckerTest, ForgedStarvedDeadlineMissFlagsTheAllocator) {
  RtRig rig;
  cluster::Container* rt = rig.containers[0];
  ASSERT_EQ(rig.escra.admit_rt(*rt, spec_ms(20, 50, 100)),
            Controller::RtAdmit::kAdmitted);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.sim.run_until(seconds(1));

  // Drop the book below the floor behind the controller's back, then forge
  // the miss the starved reservation would produce: allocator-caused.
  rig.escra.app().set_member_cores(rt->id(), 0.1);
  obs::TraceEvent ev;
  ev.time = rig.sim.now();
  ev.kind = obs::EventKind::kDeadlineMiss;
  ev.container = rt->id();
  ev.before = 0.4;
  ev.detail = 1000;
  rig.observer.record(ev);

  bool flagged = false;
  for (const check::Violation& v : checker.violations()) {
    if (v.rule == "rt-allocator-miss" && v.container == rt->id()) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << checker.report();
}

}  // namespace
}  // namespace escra
