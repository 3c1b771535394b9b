// Unit tests for PaxosProcess message dispatch, plus small end-to-end Paxos
// deployments over a fully connected point-to-point PortTransport network: normal
// operation, concurrent coordinators (safety), crash/recovery, gap repair.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "net/network.hpp"
#include "paxos/process.hpp"
#include "test_util.hpp"
#include "transport/port_transport.hpp"

namespace gossipc {
namespace {

using testutil::FakeTransport;
using testutil::make_value;

// --- dispatch-level tests with FakeTransport ---

TEST(ProcessDispatchTest, AcceptorRepliesToPhase1a) {
    Simulator sim;
    FakeTransport t(sim, 1);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 1;
    pc.timeouts_enabled = false;
    PaxosProcess p(pc, t);
    t.inject(std::make_shared<Phase1aMsg>(0, 1, 1));
    const auto p1b = t.sent_of(PaxosMsgType::Phase1b);
    ASSERT_EQ(p1b.size(), 1u);
    // Reply is addressed to the round owner (process 0 owns round 1).
    EXPECT_FALSE(t.sent.back().broadcast);
    EXPECT_EQ(t.sent.back().to, 0);
}

TEST(ProcessDispatchTest, AcceptorAcceptsAndVotes) {
    Simulator sim;
    FakeTransport t(sim, 1);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 1;
    pc.timeouts_enabled = false;
    PaxosProcess p(pc, t);
    const Value v = make_value(0, 7);
    t.inject(std::make_shared<Phase2aMsg>(0, 1, 1, v));
    const auto p2b = t.sent_of(PaxosMsgType::Phase2b);
    ASSERT_EQ(p2b.size(), 1u);
    const auto& m = static_cast<const Phase2bMsg&>(*p2b[0]);
    EXPECT_EQ(m.instance(), 1);
    EXPECT_EQ(m.value_digest(), v.digest());
    EXPECT_EQ(t.sent.back().to, 0);
}

TEST(ProcessDispatchTest, NoVoteBelowPromise) {
    Simulator sim;
    FakeTransport t(sim, 1);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 1;
    pc.timeouts_enabled = false;
    PaxosProcess p(pc, t);
    t.inject(std::make_shared<Phase1aMsg>(1, 5, 1));  // promise round 5
    t.inject(std::make_shared<Phase2aMsg>(0, 1, 1, make_value(0, 7)));
    EXPECT_TRUE(t.sent_of(PaxosMsgType::Phase2b).empty());
}

TEST(ProcessDispatchTest, NonCoordinatorForwardsClientValues) {
    Simulator sim;
    FakeTransport t(sim, 2);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 2;
    pc.coordinator = 0;
    pc.timeouts_enabled = false;
    PaxosProcess p(pc, t);
    CpuContext ctx{SimTime::zero()};
    p.submit(make_value(5, 1), ctx);
    const auto cv = t.sent_of(PaxosMsgType::ClientValue);
    ASSERT_EQ(cv.size(), 1u);
    EXPECT_EQ(t.sent.back().to, 0);
}

TEST(ProcessDispatchTest, NonCoordinatorIgnoresForeignClientValues) {
    Simulator sim;
    FakeTransport t(sim, 2);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 2;
    pc.timeouts_enabled = false;
    PaxosProcess p(pc, t);
    t.inject(std::make_shared<ClientValueMsg>(1, make_value(5, 1)));
    EXPECT_TRUE(t.sent.empty());  // only the coordinator proposes
}

TEST(ProcessDispatchTest, CoordinatorAnswersLearnRequests) {
    Simulator sim;
    FakeTransport t(sim, 0);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 0;
    pc.timeouts_enabled = false;
    PaxosProcess p(pc, t);
    const Value v = make_value(0, 1);
    // Make the coordinator learn instance 1.
    t.inject(std::make_shared<Phase2aMsg>(0, 1, 1, v));
    t.inject(testutil::make_2b(1, 1, 1, v));
    t.inject(testutil::make_2b(2, 1, 1, v));
    t.sent.clear();
    t.inject(std::make_shared<LearnRequestMsg>(2, 1, 0));
    const auto replies = t.sent_of(PaxosMsgType::Decision);
    ASSERT_EQ(replies.size(), 1u);
    const auto& d = static_cast<const DecisionMsg&>(*replies[0]);
    EXPECT_EQ(d.instance(), 1);
    ASSERT_TRUE(d.full_value().has_value());
    EXPECT_EQ(*d.full_value(), v);
    EXPECT_EQ(t.sent.back().to, 2);
}

TEST(ProcessDispatchTest, LearnRequestForUnknownInstanceUnanswered) {
    Simulator sim;
    FakeTransport t(sim, 0);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 0;
    pc.timeouts_enabled = false;
    PaxosProcess p(pc, t);
    t.inject(std::make_shared<LearnRequestMsg>(2, 1, 0));
    EXPECT_TRUE(t.sent_of(PaxosMsgType::Decision).empty());
}

TEST(ProcessDispatchTest, RejectsBadConfig) {
    Simulator sim;
    FakeTransport t(sim, 0);
    PaxosConfig pc;
    pc.n = 0;
    pc.id = 0;
    EXPECT_THROW(PaxosProcess(pc, t), std::invalid_argument);
}

// --- end-to-end mini-deployments over point-to-point PortTransport (full mesh) ---

struct MeshFixture {
    Simulator sim;
    Network net;
    std::vector<std::unique_ptr<PortTransport>> transports;
    std::vector<std::unique_ptr<PaxosProcess>> processes;
    // per process: delivered (instance -> value id)
    std::vector<std::map<InstanceId, ValueId>> logs;

    explicit MeshFixture(int n, bool timeouts = true)
        : net(sim, LatencyModel::aws(), n, Network::Params{}), logs(static_cast<std::size_t>(n)) {
        net.allow_all_links();
        for (ProcessId id = 0; id < n; ++id) {
            transports.push_back(std::make_unique<PortTransport>(net.node(id), n));
            PaxosConfig pc;
            pc.n = n;
            pc.id = id;
            pc.coordinator = 0;
            pc.timeouts_enabled = timeouts;
            processes.push_back(std::make_unique<PaxosProcess>(pc, *transports.back()));
            processes.back()->set_delivery_listener(
                [this, id](InstanceId i, const Value& v, CpuContext&) {
                    logs[static_cast<std::size_t>(id)][i] = v.id;
                });
        }
        for (auto& p : processes) p->post_start();
    }

    /// No two processes deliver different values for the same instance.
    void expect_agreement() const {
        for (std::size_t a = 0; a < logs.size(); ++a) {
            for (std::size_t b = a + 1; b < logs.size(); ++b) {
                for (const auto& [inst, vid] : logs[a]) {
                    const auto it = logs[b].find(inst);
                    if (it != logs[b].end()) {
                        EXPECT_EQ(vid, it->second) << "instance " << inst;
                    }
                }
            }
        }
    }
};

TEST(PaxosMeshTest, OrdersSubmittedValuesEverywhere) {
    MeshFixture f(5);
    for (int s = 1; s <= 10; ++s) {
        f.processes[static_cast<std::size_t>(s % 5)]->post_submit(make_value(s % 5, s));
    }
    f.sim.run_until(SimTime::seconds(3));
    for (const auto& log : f.logs) EXPECT_EQ(log.size(), 10u);
    f.expect_agreement();
}

TEST(PaxosMeshTest, AgreementUnderMessageLoss) {
    MeshFixture f(5);
    f.net.set_uniform_loss(0.15);  // timeouts repair the losses
    for (int s = 1; s <= 20; ++s) f.processes[0]->post_submit(make_value(0, s));
    f.sim.run_until(SimTime::seconds(20));
    f.expect_agreement();
    // The coordinator itself must have learned everything.
    EXPECT_EQ(f.logs[0].size(), 20u);
}

TEST(PaxosMeshTest, ConcurrentCoordinatorsAreSafe) {
    MeshFixture f(5);
    for (int s = 1; s <= 5; ++s) f.processes[0]->post_submit(make_value(0, s));
    f.sim.run_until(SimTime::seconds(1));
    // A second process usurps coordination with a higher round and proposes
    // its own values; decided instances must not change.
    const auto coordinator_log = f.logs[0];
    f.processes[1]->become_coordinator();
    for (int s = 1; s <= 5; ++s) f.processes[1]->post_submit(make_value(1, s));
    f.sim.run_until(SimTime::seconds(6));
    f.expect_agreement();
    for (const auto& [inst, vid] : coordinator_log) {
        // Everything decided under the old coordinator survives verbatim.
        ASSERT_TRUE(f.logs[1].contains(inst));
        EXPECT_EQ(f.logs[1].at(inst), vid);
    }
}

TEST(PaxosMeshTest, AcceptorCrashMinorityHarmless) {
    MeshFixture f(5);
    f.net.node(3).crash();
    f.net.node(4).crash();
    for (int s = 1; s <= 10; ++s) f.processes[0]->post_submit(make_value(0, s));
    f.sim.run_until(SimTime::seconds(5));
    EXPECT_EQ(f.logs[0].size(), 10u);  // quorum of 3 suffices
    f.expect_agreement();
}

TEST(PaxosMeshTest, CrashedProcessCatchesUpAfterRecovery) {
    MeshFixture f(5);
    f.net.node(4).crash();
    for (int s = 1; s <= 5; ++s) f.processes[0]->post_submit(make_value(0, s));
    f.sim.run_until(SimTime::seconds(2));
    EXPECT_TRUE(f.logs[4].empty());
    f.net.node(4).recover();
    // Gap repair (LearnRequest) needs the recovered process to notice the
    // gap; new traffic reveals it.
    for (int s = 6; s <= 8; ++s) f.processes[0]->post_submit(make_value(0, s));
    f.sim.run_until(SimTime::seconds(15));
    EXPECT_EQ(f.logs[4].size(), 8u);
    f.expect_agreement();
}

TEST(PaxosMeshTest, NoTimeoutsMeansNoRepairTraffic) {
    MeshFixture f(3, /*timeouts=*/false);
    for (int s = 1; s <= 3; ++s) f.processes[0]->post_submit(make_value(0, s));
    f.sim.run_until(SimTime::seconds(5));
    for (const auto& p : f.processes) {
        EXPECT_EQ(p->counters().learn_requests_sent, 0u);
        if (p->coordinator()) {
            EXPECT_EQ(p->coordinator()->counters().retransmissions, 0u);
        }
    }
    EXPECT_EQ(f.logs[2].size(), 3u);  // still decides without loss
}

}  // namespace
}  // namespace gossipc
