// Contract tests of the one protocol transport, PortTransport, on both of
// its hosts: point-to-point routing (the Baseline star) and the gossip
// broadcast-only mapping on the simulator's NodePort, and the point-to-point
// mapping on the runtime's reactor port (RealTransport over a fake channel).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "gossip/gossip_node.hpp"
#include "net/network.hpp"
#include "overlay/random_overlay.hpp"
#include "runtime/real_transport.hpp"
#include "test_util.hpp"
#include "transport/port_transport.hpp"
#include "wire/codec.hpp"

namespace gossipc {
namespace {

using testutil::make_value;

TEST(DirectTransportTest, SendRoutesPointToPoint) {
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 3, {});
    net.allow_all_links();
    PortTransport t0(net.node(0), 3), t1(net.node(1), 3), t2(net.node(2), 3);
    std::vector<ProcessId> got_at;
    for (auto* t : {&t0, &t1, &t2}) {
        t->set_deliver([&got_at, t](const PaxosMessagePtr&, CpuContext&) {
            got_at.push_back(t->self());
        });
    }
    net.node(0).post([&](CpuContext& ctx) {
        t0.send(2, std::make_shared<Phase1aMsg>(0, 1, 1), ctx);
    });
    sim.run_until_idle();
    EXPECT_EQ(got_at, (std::vector<ProcessId>{2}));
}

TEST(DirectTransportTest, BroadcastDeliversLocallyAndRemotely) {
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 3, {});
    net.allow_all_links();
    PortTransport t0(net.node(0), 3), t1(net.node(1), 3), t2(net.node(2), 3);
    std::multiset<ProcessId> got_at;
    for (auto* t : {&t0, &t1, &t2}) {
        t->set_deliver([&got_at, t](const PaxosMessagePtr&, CpuContext&) {
            got_at.insert(t->self());
        });
    }
    net.node(0).post([&](CpuContext& ctx) {
        t0.broadcast(std::make_shared<Phase1aMsg>(0, 1, 1), ctx);
    });
    sim.run_until_idle();
    EXPECT_EQ(got_at, (std::multiset<ProcessId>{0, 1, 2}));
}

TEST(DirectTransportTest, SelfSendIsLocal) {
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 3, {});  // no links at all
    PortTransport t0(net.node(0), 3);
    int got = 0;
    t0.set_deliver([&](const PaxosMessagePtr&, CpuContext&) { ++got; });
    net.node(0).post([&](CpuContext& ctx) {
        t0.send(0, std::make_shared<Phase1aMsg>(0, 1, 1), ctx);
    });
    sim.run_until_idle();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(net.node(0).counters().sent, 0u);
}

TEST(DirectTransportTest, MissingLinkIsLogicError) {
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 3, {});
    PortTransport t0(net.node(0), 3);
    bool threw = false;
    net.node(0).post([&](CpuContext& ctx) {
        try {
            t0.send(1, std::make_shared<Phase1aMsg>(0, 1, 1), ctx);
        } catch (const std::logic_error&) {
            threw = true;
        }
    });
    sim.run_until_idle();
    EXPECT_TRUE(threw);
}

TEST(DirectTransportTest, ScheduleRunsOnNodeCpu) {
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 3, {});
    PortTransport t0(net.node(0), 3);
    SimTime fired_at = SimTime::zero();
    t0.schedule(SimTime::millis(5), [&](CpuContext& ctx) { fired_at = ctx.now(); });
    sim.run_until_idle();
    EXPECT_GE(fired_at, SimTime::millis(5));
}

struct GossipTransportFixture {
    Simulator sim;
    Network net;
    std::vector<std::unique_ptr<PassThroughHooks>> hooks;
    std::vector<std::unique_ptr<GossipNode>> gnodes;
    std::vector<std::unique_ptr<PortTransport>> transports;
    std::vector<std::vector<PaxosMsgType>> delivered;

    explicit GossipTransportFixture(int n, std::uint64_t seed = 3)
        : net(sim, LatencyModel::aws(), n, {}), delivered(static_cast<std::size_t>(n)) {
        const Graph overlay = make_connected_overlay(n, seed);
        for (const auto& [a, b] : overlay.edges()) net.allow_link(a, b);
        for (ProcessId id = 0; id < n; ++id) {
            hooks.push_back(std::make_unique<PassThroughHooks>());
            gnodes.push_back(std::make_unique<GossipNode>(net.node(id), overlay.neighbors(id),
                                                          GossipNode::Params{}, *hooks.back()));
            transports.push_back(std::make_unique<PortTransport>(*gnodes.back()));
            transports.back()->set_deliver(
                [this, id](const PaxosMessagePtr& m, CpuContext&) {
                    delivered[static_cast<std::size_t>(id)].push_back(m->type());
                });
        }
    }
};

TEST(GossipTransportTest, BroadcastReachesAll) {
    GossipTransportFixture f(10);
    f.net.node(0).post([&](CpuContext& ctx) {
        f.transports[0]->broadcast(std::make_shared<Phase1aMsg>(0, 1, 1), ctx);
    });
    f.sim.run_until_idle();
    for (int v = 0; v < 10; ++v) {
        EXPECT_EQ(f.delivered[static_cast<std::size_t>(v)].size(), 1u) << v;
    }
}

TEST(GossipTransportTest, SendIsBroadcast) {
    // "Phase 1b messages ... will be delivered to all participants".
    GossipTransportFixture f(10);
    f.net.node(3).post([&](CpuContext& ctx) {
        f.transports[3]->send(
            0, std::make_shared<Phase1bMsg>(3, 1, 1, std::vector<AcceptedEntry>{}), ctx);
    });
    f.sim.run_until_idle();
    for (int v = 0; v < 10; ++v) {
        ASSERT_EQ(f.delivered[static_cast<std::size_t>(v)].size(), 1u) << v;
        EXPECT_EQ(f.delivered[static_cast<std::size_t>(v)][0], PaxosMsgType::Phase1b);
    }
}

TEST(GossipTransportTest, DuplicateBroadcastSuppressedByMessageKey) {
    GossipTransportFixture f(6);
    const auto msg = std::make_shared<Phase1aMsg>(0, 1, 1);
    f.net.node(0).post([&](CpuContext& ctx) {
        f.transports[0]->broadcast(msg, ctx);
        f.transports[0]->broadcast(msg, ctx);  // same unique key
    });
    f.sim.run_until_idle();
    for (int v = 0; v < 6; ++v) {
        EXPECT_EQ(f.delivered[static_cast<std::size_t>(v)].size(), 1u);
    }
}


/// A channel with no sockets behind it: records every body the transport
/// hands it and lets the test inject received ones.
class RecordingChannel final : public runtime::PeerChannel {
public:
    struct Sent {
        ProcessId to;
        std::vector<std::uint8_t> bytes;
        bool reliable;
    };

    ProcessId self() const override { return 0; }
    int size() const override { return 3; }
    void set_body_handler(BodyFn fn) override { handler = std::move(fn); }
    void link(ProcessId) override {}
    bool peer_up(ProcessId) const override { return true; }
    bool send_body(ProcessId peer, std::span<const std::uint8_t> bytes,
                   bool reliable) override {
        sent.push_back(Sent{peer, {bytes.begin(), bytes.end()}, reliable});
        return true;
    }

    BodyFn handler;
    std::vector<Sent> sent;
};

struct RuntimeDirectFixture {
    runtime::Reactor reactor;
    RecordingChannel chan;
    PassThroughHooks hooks;
    runtime::RealTransport transport{reactor, chan, runtime::RealTransport::Params{}, hooks};
    std::vector<PaxosMsgType> delivered;

    RuntimeDirectFixture() {
        transport.set_deliver([this](const PaxosMessagePtr& m, CpuContext&) {
            delivered.push_back(m->type());
        });
    }
};

TEST(DirectTransportTest, RuntimeHostBroadcastSendsOneBodyPerPeer) {
    RuntimeDirectFixture f;
    const auto phase2a = std::make_shared<Phase2aMsg>(0, 7, 1, testutil::make_value(1, 1));
    const auto heartbeat = std::make_shared<HeartbeatMsg>(0, 1);
    for (const PaxosMessagePtr& msg : {PaxosMessagePtr(phase2a), PaxosMessagePtr(heartbeat)}) {
        f.chan.sent.clear();
        CpuContext ctx(SimTime::millis(3));
        f.transport.broadcast(msg, ctx);
        ASSERT_EQ(f.chan.sent.size(), 2u);
        const bool reliable =
            runtime::reliable_over_datagrams(*msg, runtime::RealTransport::Mode::Direct);
        for (std::size_t i = 0; i < 2; ++i) {
            EXPECT_EQ(f.chan.sent[i].to, static_cast<ProcessId>(i + 1));
            EXPECT_EQ(f.chan.sent[i].reliable, reliable);
            const wire::DecodedBody body = wire::decode_body(f.chan.sent[i].bytes);
            ASSERT_TRUE(body.ok());
            ASSERT_EQ(body.body->kind(), BodyKind::Paxos);
            EXPECT_EQ(static_cast<const PaxosMessage&>(*body.body).type(), msg->type());
        }
    }
    // Delivered locally once per broadcast.
    EXPECT_EQ(f.delivered, (std::vector<PaxosMsgType>{PaxosMsgType::Phase2a,
                                                      PaxosMsgType::Heartbeat}));
    EXPECT_EQ(f.transport.last_origination(), SimTime::millis(3));
}

TEST(DirectTransportTest, RuntimeHostSelfSendIsLocal) {
    RuntimeDirectFixture f;
    CpuContext first(SimTime::millis(2));
    f.transport.send(1, std::make_shared<Phase1aMsg>(0, 1, 1), first);
    ASSERT_EQ(f.chan.sent.size(), 1u);
    EXPECT_TRUE(f.chan.sent[0].reliable);

    CpuContext later(SimTime::millis(9));
    f.transport.send(0, std::make_shared<Phase1aMsg>(0, 1, 1), later);
    EXPECT_EQ(f.chan.sent.size(), 1u);
    EXPECT_EQ(f.delivered, (std::vector<PaxosMsgType>{PaxosMsgType::Phase1a}));
    EXPECT_EQ(f.transport.last_origination(), SimTime::millis(2));
}

TEST(DirectTransportTest, RuntimeHostDeliversReceivedPaxosBody) {
    RuntimeDirectFixture f;
    const std::vector<std::uint8_t> bytes =
        wire::encode_body(Phase2bMsg(2, 7, 1, ValueId{1, 1}, 0xfeedULL));
    f.chan.handler(2, bytes);
    EXPECT_EQ(f.delivered, (std::vector<PaxosMsgType>{PaxosMsgType::Phase2b}));
    EXPECT_EQ(f.transport.counters().decode_errors, 0u);
    EXPECT_TRUE(f.chan.sent.empty());
}

}  // namespace
}  // namespace gossipc
