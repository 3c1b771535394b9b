// Crash-recovery tests (the paper's system model, Section 2.1): processes
// crash, later recover, and rejoin the protocol; durable (acceptor/learner)
// state survives, in-flight volatile state does not.
#include <gtest/gtest.h>

#include <map>

#include "core/semantic_gossip.hpp"

namespace gossipc {
namespace {

ExperimentConfig gossip_config(int n = 13) {
    ExperimentConfig cfg;
    cfg.setup = Setup::SemanticGossip;
    cfg.n = n;
    cfg.total_rate = 52.0;
    cfg.warmup = SimTime::seconds(0.25);
    cfg.measure = SimTime::seconds(2);
    cfg.drain = SimTime::seconds(2);
    return cfg;
}

TEST(CrashRecoveryTest, MinorityCrashDoesNotBlockConsensus) {
    auto cfg = gossip_config();
    cfg.failover = true;
    cfg.drain = SimTime::seconds(5);
    Deployment d(cfg);
    d.start_processes();
    d.workload().start();
    // Crash 3 of 13 processes early — including the coordinator itself;
    // quorum (7) remains available and failover elects a successor. Clients
    // attached to crashed hosts lose service (expected).
    d.simulator().run_until(SimTime::seconds(0.5));
    for (const ProcessId p : {0, 4, 8}) d.network().node(p).crash();
    d.simulator().run_until(d.workload().total_duration());
    const auto result = d.collect();
    // At most 3/13 of values (the crashed hosts' clients) may be unordered.
    EXPECT_LE(result.workload.not_ordered, result.workload.submitted_in_window * 3 / 13 + 13);
    EXPECT_GT(result.workload.completed, 0u);
    // A successor took over and kept deciding.
    EXPECT_GE(result.failover.takeovers, 1u);
    EXPECT_GT(d.process(1).learner().delivered_count(), 20u);
}

TEST(CrashRecoveryTest, RecoveredProcessRejoinsAndCatchesUp) {
    auto cfg = gossip_config();
    Deployment d(cfg);
    d.start_processes();
    d.workload().start();
    d.simulator().run_until(SimTime::seconds(0.5));
    d.network().node(5).crash();
    d.simulator().run_until(SimTime::seconds(1.5));
    d.network().node(5).recover();
    d.simulator().run_until(d.workload().total_duration() + SimTime::seconds(6));
    // Gap repair lets the recovered learner catch up with the coordinator.
    const auto coordinator_frontier = d.process(0).learner().frontier();
    const auto recovered_frontier = d.process(5).learner().frontier();
    EXPECT_GE(recovered_frontier + 5, coordinator_frontier);
    // And everything it delivered agrees with the coordinator.
    for (InstanceId i = 1; i < recovered_frontier; ++i) {
        const auto a = d.process(5).learner().decided_value(i);
        const auto b = d.process(0).learner().decided_value(i);
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(a->id, b->id) << "instance " << i;
    }
}

TEST(CrashRecoveryTest, AcceptorStateSurvivesCrash) {
    // Crash-recovery model: promises/accepted values are durable. Verify at
    // the component level: a crashed node drops traffic but the Acceptor
    // object (stable storage) retains its promise.
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 3, {});
    net.allow_all_links();
    PortTransport t1(net.node(1), 3);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 1;
    pc.timeouts_enabled = false;
    PaxosProcess p1(pc, t1);

    // Promise round 5, then crash and recover: a Phase 2a for round 3 must
    // still be rejected.
    net.node(1).post([&](CpuContext&) {
        p1.acceptor().on_phase1a(5, 1);
    });
    sim.run_until_idle();
    net.node(1).crash();
    net.node(1).recover();
    EXPECT_EQ(p1.acceptor().promise_floor(), 5);
    Value v;
    v.id = ValueId{0, 1};
    EXPECT_FALSE(p1.acceptor().on_phase2a(1, 3, v));
    EXPECT_TRUE(p1.acceptor().on_phase2a(1, 5, v));
}

TEST(CrashRecoveryTest, CoordinatorHandoffAfterCrash) {
    // The configured coordinator crashes permanently; another process takes
    // over with a higher round and continues deciding new values without
    // contradicting old decisions.
    ExperimentConfig cfg = gossip_config();
    cfg.total_rate = 26.0;
    Deployment d(cfg);
    d.start_processes();
    d.workload().start();
    d.simulator().run_until(SimTime::seconds(1.0));
    const auto decided_before = d.process(1).learner().frontier();
    std::map<InstanceId, ValueId> before;
    for (InstanceId i = 1; i < decided_before; ++i) {
        before[i] = d.process(1).learner().decided_value(i)->id;
    }
    d.network().node(0).crash();
    d.process(1).become_coordinator();
    // New values proposed through the new coordinator.
    for (int s = 0; s < 5; ++s) {
        Value v;
        v.id = ValueId{99, s};
        d.process(1).post_submit(v);
    }
    d.simulator().run_until(SimTime::seconds(12));
    auto& learner = d.process(1).learner();
    // Progress resumed.
    EXPECT_GT(learner.frontier(), decided_before);
    // Old decisions intact.
    for (const auto& [inst, vid] : before) {
        ASSERT_TRUE(learner.decided_value(inst).has_value());
        EXPECT_EQ(learner.decided_value(inst)->id, vid);
    }
    // The new coordinator's own values got decided.
    int own = 0;
    for (InstanceId i = 1; i < learner.frontier(); ++i) {
        if (learner.decided_value(i)->id.client == 99) ++own;
    }
    EXPECT_EQ(own, 5);
}

}  // namespace
}  // namespace gossipc
