// Unit & property tests for the gossip layer: push dissemination, duplicate
// suppression, hook invocation, queue caps, and the pull/push-pull
// extensions.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "gossip/gossip_node.hpp"
#include "net/network.hpp"
#include "overlay/random_overlay.hpp"
#include "sim/simulator.hpp"

namespace gossipc {
namespace {

class Payload final : public MessageBody {
public:
    explicit Payload(std::uint32_t size = 64) : size_(size) {}
    std::uint32_t wire_size() const override { return size_; }
    std::string describe() const override { return "payload"; }

private:
    std::uint32_t size_;
};

GossipAppMessage make_msg(GossipMsgId id, ProcessId origin, std::uint32_t size = 64) {
    GossipAppMessage m;
    m.id = id;
    m.origin = origin;
    m.payload = std::make_shared<Payload>(size);
    return m;
}

struct GossipFixture {
    Simulator sim;
    Network net;
    std::vector<std::unique_ptr<GossipHooks>> hooks;
    std::vector<std::unique_ptr<GossipNode>> nodes;
    std::vector<std::multiset<GossipMsgId>> delivered;

    GossipFixture(const Graph& overlay, GossipNode::Params gp = {},
                  Network::Params np = {},
                  std::function<std::unique_ptr<GossipHooks>(ProcessId)> hook_factory = {})
        : net(sim, LatencyModel::aws(), overlay.size(), np),
          delivered(static_cast<std::size_t>(overlay.size())) {
        for (const auto& [a, b] : overlay.edges()) net.allow_link(a, b);
        for (ProcessId id = 0; id < overlay.size(); ++id) {
            hooks.push_back(hook_factory ? hook_factory(id)
                                         : std::make_unique<PassThroughHooks>());
            nodes.push_back(std::make_unique<GossipNode>(net.node(id), overlay.neighbors(id),
                                                         gp, *hooks.back()));
            nodes.back()->set_deliver([this, id](const GossipAppMessage& m, CpuContext&) {
                delivered[static_cast<std::size_t>(id)].insert(m.id);
            });
        }
    }
};

class PushDissemination : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PushDissemination, BroadcastReachesEveryNodeExactlyOnce) {
    const auto [n, seed] = GetParam();
    const Graph overlay = make_connected_overlay(n, seed);
    GossipFixture f(overlay);
    for (GossipMsgId id = 1; id <= 5; ++id) {
        f.nodes[0]->post_broadcast(make_msg(id, 0));
    }
    f.sim.run_until_idle();
    for (int v = 0; v < n; ++v) {
        for (GossipMsgId id = 1; id <= 5; ++id) {
            EXPECT_EQ(f.delivered[static_cast<std::size_t>(v)].count(id), 1u)
                << "node " << v << " msg " << id;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, PushDissemination,
                         ::testing::Combine(::testing::Values(4, 13, 30, 53),
                                            ::testing::Values(1ull, 7ull, 42ull)));

TEST(GossipNodeTest, DuplicatesSuppressedOnCycles) {
    Graph triangle(3);
    triangle.add_edge(0, 1);
    triangle.add_edge(1, 2);
    triangle.add_edge(2, 0);
    GossipFixture f(triangle);
    f.nodes[0]->post_broadcast(make_msg(99, 0));
    f.sim.run_until_idle();
    std::uint64_t duplicates = 0;
    for (const auto& node : f.nodes) duplicates += node->counters().duplicates;
    // On a triangle both non-origin nodes forward to each other: 2 duplicates.
    EXPECT_GT(duplicates, 0u);
    for (int v = 0; v < 3; ++v) {
        EXPECT_EQ(f.delivered[static_cast<std::size_t>(v)].count(99), 1u);
    }
}

TEST(GossipNodeTest, NoForwardBackToSender) {
    Graph line(2);
    line.add_edge(0, 1);
    GossipFixture f(line);
    f.nodes[0]->post_broadcast(make_msg(5, 0));
    f.sim.run_until_idle();
    // Node 1's only peer is the message's origin: nothing to forward.
    EXPECT_EQ(f.net.node(1).counters().sent, 0u);
    EXPECT_EQ(f.nodes[1]->counters().duplicates, 0u);
}

TEST(GossipNodeTest, RebroadcastOfKnownIdIgnored) {
    Graph line(2);
    line.add_edge(0, 1);
    GossipFixture f(line);
    f.nodes[0]->post_broadcast(make_msg(5, 0));
    f.nodes[0]->post_broadcast(make_msg(5, 0));
    f.sim.run_until_idle();
    EXPECT_EQ(f.delivered[0].count(5), 1u);
    EXPECT_EQ(f.delivered[1].count(5), 1u);
}

class DropForPeerHooks final : public GossipHooks {
public:
    explicit DropForPeerHooks(ProcessId blocked) : blocked_(blocked) {}
    bool validate(const GossipAppMessage&, ProcessId peer) override {
        return peer != blocked_;
    }

private:
    ProcessId blocked_;
};

TEST(GossipNodeTest, ValidateHookFiltersPerPeer) {
    Graph line(3);  // 0-1-2
    line.add_edge(0, 1);
    line.add_edge(1, 2);
    GossipFixture f(line, {}, {}, [](ProcessId) -> std::unique_ptr<GossipHooks> {
        return std::make_unique<DropForPeerHooks>(2);
    });
    f.nodes[0]->post_broadcast(make_msg(11, 0));
    f.sim.run_until_idle();
    EXPECT_EQ(f.delivered[1].count(11), 1u);
    EXPECT_EQ(f.delivered[2].count(11), 0u);  // filtered at node 1
    EXPECT_GT(f.nodes[1]->counters().filtered, 0u);
}

class BatchRecordingHooks final : public GossipHooks {
public:
    std::vector<std::size_t>* batch_sizes;
    explicit BatchRecordingHooks(std::vector<std::size_t>* sizes) : batch_sizes(sizes) {}
    std::vector<GossipAppMessage> aggregate(std::vector<GossipAppMessage> pending,
                                            ProcessId) override {
        batch_sizes->push_back(pending.size());
        return pending;
    }
};

TEST(GossipNodeTest, AggregateSeesPendingBatch) {
    Graph line(2);
    line.add_edge(0, 1);
    std::vector<std::size_t> batches;
    GossipFixture f(line, {}, {}, [&batches](ProcessId) -> std::unique_ptr<GossipHooks> {
        return std::make_unique<BatchRecordingHooks>(&batches);
    });
    // Five broadcasts posted back-to-back: the send queue accumulates them
    // before the per-peer drain runs.
    for (GossipMsgId id = 1; id <= 5; ++id) f.nodes[0]->post_broadcast(make_msg(id, 0));
    f.sim.run_until_idle();
    ASSERT_FALSE(batches.empty());
    EXPECT_EQ(batches.front(), 5u);
}

TEST(GossipNodeTest, PeerQueueCapDropsForwards) {
    Graph line(2);
    line.add_edge(0, 1);
    GossipNode::Params gp;
    gp.peer_queue_cap = 3;
    GossipFixture f(line, gp);
    for (GossipMsgId id = 1; id <= 10; ++id) f.nodes[0]->post_broadcast(make_msg(id, 0));
    f.sim.run_until_idle();
    EXPECT_GT(f.nodes[0]->counters().send_queue_drops, 0u);
    EXPECT_LT(f.delivered[1].size(), 10u);
}

TEST(GossipNodeTest, CountersAddUp) {
    const Graph overlay = make_connected_overlay(13, 3);
    GossipFixture f(overlay);
    for (GossipMsgId id = 1; id <= 20; ++id) {
        f.nodes[static_cast<std::size_t>(id % 13)]->post_broadcast(
            make_msg(id, static_cast<ProcessId>(id % 13)));
    }
    f.sim.run_until_idle();
    for (const auto& node : f.nodes) {
        const auto& c = node->counters();
        // Every non-duplicate received message plus every local broadcast is
        // delivered exactly once.
        EXPECT_EQ(c.delivered, c.broadcasts + c.messages_received - c.duplicates);
    }
}

TEST(GossipNodeTest, ReceiveDropsAggregateTheHooksCannotReverse) {
    Graph line(2);
    line.add_edge(0, 1);
    GossipFixture f(line);
    GossipAppMessage agg = make_msg(7, 0);
    agg.aggregated = true;  // PassThroughHooks returns it unchanged
    CpuContext ctx(SimTime::zero());
    EXPECT_FALSE(f.nodes[1]->receive(0, GossipEnvelope(agg), ctx));
    EXPECT_TRUE(f.nodes[1]->receive(0, GossipEnvelope(make_msg(8, 0)), ctx));
    f.sim.run_until_idle();
    EXPECT_EQ(f.delivered[1], std::multiset<GossipMsgId>{8});
    EXPECT_EQ(f.delivered[0], std::multiset<GossipMsgId>{});  // nothing forwarded back
    EXPECT_EQ(f.nodes[1]->counters().envelopes_received, 2u);
    EXPECT_EQ(f.nodes[1]->counters().messages_received, 1u);
}

TEST(GossipNodeTest, PullDisseminates) {
    const Graph overlay = make_connected_overlay(8, 9);
    GossipNode::Params gp;
    gp.strategy = GossipStrategy::Pull;
    gp.pull_interval = SimTime::millis(20);
    GossipFixture f(overlay, gp);
    f.nodes[0]->post_broadcast(make_msg(77, 0));
    f.sim.run_until(SimTime::seconds(8));
    int reached = 0;
    for (int v = 0; v < 8; ++v) reached += f.delivered[static_cast<std::size_t>(v)].count(77);
    EXPECT_EQ(reached, 8);
    std::uint64_t rounds = 0;
    for (const auto& node : f.nodes) rounds += node->counters().pull_rounds;
    EXPECT_GT(rounds, 0u);
}

TEST(GossipNodeTest, PushPullRecoversWhatPushLost) {
    // Under heavy receive-side loss, push alone misses deliveries; the
    // anti-entropy rounds of push-pull repair them.
    const Graph overlay = make_connected_overlay(12, 4);
    auto run = [&](GossipStrategy strategy) {
        GossipNode::Params gp;
        gp.strategy = strategy;
        gp.pull_interval = SimTime::millis(25);
        Network::Params np;
        GossipFixture f(overlay, gp, np);
        f.net.set_uniform_loss(0.5);
        for (GossipMsgId id = 1; id <= 30; ++id) f.nodes[0]->post_broadcast(make_msg(id, 0));
        f.sim.run_until(SimTime::seconds(10));
        std::size_t total = 0;
        for (const auto& d : f.delivered) total += d.size();
        return total;
    };
    const auto push_only = run(GossipStrategy::Push);
    const auto push_pull = run(GossipStrategy::PushPull);
    EXPECT_GT(push_pull, push_only);
    EXPECT_EQ(push_pull, 12u * 30u);  // anti-entropy converges to everyone
}

}  // namespace
}  // namespace gossipc
