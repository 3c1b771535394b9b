// End-to-end tests of the real-socket runtime (DESIGN.md §10): an
// in-process loopback cluster — every node's ConnectionManager, RealTransport,
// and PaxosProcess live in one test process, share one Reactor, and talk
// over real TCP sockets on ephemeral localhost ports.
//
// This exercises the exact production stack (sockets, framing, codec,
// per-peer queues, gossip dissemination, semantic hooks) without spawning
// processes, so it can run inside ctest on any machine. The multi-process
// variant — separate gossipd daemons plus a SIGKILLed coordinator — lives in
// scripts/cluster_local.sh and runs as the CI real-cluster-smoke job.
//
// All timers run on the real monotonic clock; limits are generous (tens of
// seconds) while actual runs complete in tens of milliseconds.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gossip/hooks.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/process.hpp"
#include "runtime/conn_manager.hpp"
#include "runtime/real_transport.hpp"
#include "runtime/tcp.hpp"
#include "semantic/paxos_semantics.hpp"
#include "wire/codec.hpp"

namespace gossipc::runtime {
namespace {

struct Decision {
    InstanceId instance;
    ValueId value;

    friend bool operator==(const Decision& a, const Decision& b) {
        return a.instance == b.instance && a.value == b.value;
    }
};

/// One cluster member hosted inside the test process.
struct NodeHarness {
    std::unique_ptr<ConnectionManager> conns;
    PassThroughHooks pass_through;
    std::unique_ptr<PaxosSemantics> semantics;
    std::unique_ptr<RealTransport> transport;
    std::unique_ptr<PaxosProcess> proc;
    std::vector<ProcessId> linked;
    std::vector<Decision> decisions;
};

enum class Setup { Baseline, Gossip, Semantic };

class LoopbackCluster {
public:
    LoopbackCluster(int n, Setup setup, std::uint64_t overlay_seed = 42,
                    PaxosSemantics::Options semantics = {})
        : n_(n) {
        // Ephemeral ports: bind every listener on port 0 first, read the
        // ports back, then hand the complete address list to every manager.
        std::vector<int> listen_fds;
        std::vector<PeerAddress> cluster;
        for (int i = 0; i < n; ++i) {
            std::string err;
            const int fd = listen_tcp("127.0.0.1", 0, &err);
            EXPECT_GE(fd, 0) << err;
            listen_fds.push_back(fd);
            cluster.push_back(PeerAddress{"127.0.0.1", local_port(fd)});
        }

        const Graph overlay = make_connected_overlay(n, overlay_seed);
        for (int i = 0; i < n; ++i) {
            auto node = std::make_unique<NodeHarness>();
            node->conns = std::make_unique<ConnectionManager>(
                reactor_, i, cluster, listen_fds[static_cast<std::size_t>(i)],
                ConnectionManager::Params{});

            PaxosConfig pc;
            pc.n = n;
            pc.id = i;
            pc.coordinator = 0;
            pc.heartbeat_piggyback = setup != Setup::Semantic;

            GossipHooks* hooks = &node->pass_through;
            if (setup == Setup::Semantic) {
                node->semantics = std::make_unique<PaxosSemantics>(i, pc.quorum(), semantics);
                hooks = node->semantics.get();
            }

            RealTransport::Params tp;
            if (setup == Setup::Baseline) {
                tp.mode = RealTransport::Mode::Direct;
                for (ProcessId p = 0; p < n; ++p) {
                    if (p != i) node->linked.push_back(p);
                }
            } else {
                tp.mode = RealTransport::Mode::Gossip;
                tp.neighbors = overlay.neighbors(i);
                node->linked = tp.neighbors;
            }
            node->transport = std::make_unique<RealTransport>(reactor_, *node->conns,
                                                              std::move(tp), *hooks);
            node->proc = std::make_unique<PaxosProcess>(pc, *node->transport);
            NodeHarness* raw = node.get();
            node->proc->set_delivery_listener(
                [raw](InstanceId instance, const Value& value, CpuContext&) {
                    raw->decisions.push_back(Decision{instance, value.id});
                });
            nodes_.push_back(std::move(node));
        }
    }

    /// Waits for every overlay link's Hello handshake, then starts the stack.
    void start() {
        wait_for_mesh();
        for (auto& node : nodes_) node->proc->post_start();
    }

    void wait_for_mesh() {
        const bool mesh_up = reactor_.run_until([this] { return all_links_up(); },
                                                SimTime::seconds(10));
        ASSERT_TRUE(mesh_up) << "connection mesh did not come up";
    }

    /// Submits `total` values round-robin across all nodes. Sequence numbers
    /// persist across calls so repeated waves never reuse a ValueId.
    void submit(int total) {
        for (int v = 0; v < total; ++v) {
            const int owner = v % n_;
            Value value;
            value.id = ValueId{owner, next_seq_[static_cast<std::size_t>(owner)]++};
            nodes_[static_cast<std::size_t>(owner)]->proc->post_submit(value);
        }
    }

    /// Runs until every node delivered `total` decisions.
    bool run_until_delivered(int total, SimTime limit = SimTime::seconds(60)) {
        return reactor_.run_until(
            [this, total] {
                for (const auto& node : nodes_) {
                    if (node->decisions.size() < static_cast<std::size_t>(total)) return false;
                }
                return true;
            },
            limit);
    }

    /// Every node's sequence is gap-free from instance 1 and identical to
    /// node 0's — the cluster-wide agreement check.
    void expect_agreement(int total) {
        const auto& reference = nodes_[0]->decisions;
        ASSERT_EQ(reference.size(), static_cast<std::size_t>(total));
        for (int i = 0; i < total; ++i) {
            EXPECT_EQ(reference[static_cast<std::size_t>(i)].instance, i + 1)
                << "gap at position " << i;
        }
        for (int node = 1; node < n_; ++node) {
            EXPECT_EQ(nodes_[static_cast<std::size_t>(node)]->decisions, reference)
                << "node " << node << " disagrees with node 0";
        }
    }

    bool all_links_up() const {
        for (const auto& node : nodes_) {
            for (const ProcessId p : node->linked) {
                if (!node->conns->peer_up(p)) return false;
            }
        }
        return true;
    }

    Reactor& reactor() { return reactor_; }
    NodeHarness& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
    int size() const { return n_; }

private:
    int n_;
    Reactor reactor_;
    std::vector<std::unique_ptr<NodeHarness>> nodes_;
    std::vector<std::int64_t> next_seq_ = std::vector<std::int64_t>(
        static_cast<std::size_t>(n_), 0);
};

TEST(RealTransport, MeshComesUp) {
    LoopbackCluster cluster(3, Setup::Baseline);
    EXPECT_TRUE(cluster.reactor().run_until([&] { return cluster.all_links_up(); },
                                            SimTime::seconds(10)));
    for (int i = 0; i < cluster.size(); ++i) {
        const auto& c = cluster.node(i).conns->counters();
        EXPECT_GT(c.links_up, 0u) << "node " << i;
        EXPECT_EQ(c.protocol_errors, 0u) << "node " << i;
    }
}

TEST(RealTransport, BaselineClusterAgrees) {
    constexpr int kValues = 60;
    LoopbackCluster cluster(3, Setup::Baseline);
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_delivered(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);
}

TEST(RealTransport, GossipClusterAgrees) {
    constexpr int kValues = 100;
    LoopbackCluster cluster(5, Setup::Gossip);
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_delivered(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);

    // Dissemination really went over the overlay: every node both sent and
    // received envelopes, and nothing failed to decode.
    for (int i = 0; i < cluster.size(); ++i) {
        const auto& t = cluster.node(i).transport->counters();
        EXPECT_GT(t.envelopes_sent, 0u) << "node " << i;
        EXPECT_GT(t.envelopes_received, 0u) << "node " << i;
        EXPECT_EQ(t.decode_errors, 0u) << "node " << i;
    }
}

TEST(RealTransport, SemanticClusterAgrees) {
    constexpr int kValues = 100;
    LoopbackCluster cluster(5, Setup::Semantic);
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_delivered(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);

    // The semantic hooks were live on the real wire: with 100 instances'
    // Phase 2b traffic crossing 5 nodes, at least one aggregate must have
    // been built somewhere (and survived the codec round-trip).
    std::uint64_t aggregates = 0;
    for (int i = 0; i < cluster.size(); ++i) {
        aggregates += cluster.node(i).semantics->stats().aggregates_built;
        EXPECT_EQ(cluster.node(i).transport->counters().decode_errors, 0u);
    }
    EXPECT_GT(aggregates, 0u);
}

/// Broadcasts one Phase 2b vote per (node, instance) straight through every
/// node's Gossip-mode RealTransport, with no protocol running, and checks
/// the gossip engine's delivery contract on real sockets: each node delivers
/// each id exactly once, and its counters satisfy the identity that
/// GossipNodeTest.CountersAddUp checks in the simulator.
void expect_exactly_once_delivery(LoopbackCluster& cluster, int instances) {
    const int n = cluster.size();
    std::vector<std::map<std::uint64_t, int>> delivered(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        // Replaces the idle PaxosProcess as the transport's consumer.
        cluster.node(i).transport->set_deliver(
            [&delivered, i](const PaxosMessagePtr& msg, CpuContext&) {
                ++delivered[static_cast<std::size_t>(i)][msg->unique_key()];
            });
    }
    cluster.wait_for_mesh();
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < n; ++i) {
        std::vector<PaxosMessagePtr> votes;
        for (InstanceId inst = 1; inst <= instances; ++inst) {
            // Every node votes for the same value per instance, so relays
            // can merge votes of different senders into aggregates.
            votes.push_back(std::make_shared<Phase2bMsg>(i, inst, 1, ValueId{0, inst},
                                                         0xabc0ULL + inst));
            ids.push_back(votes.back()->unique_key());
        }
        RealTransport& transport = *cluster.node(i).transport;
        transport.post([&transport, votes](CpuContext& ctx) {
            for (const auto& vote : votes) transport.broadcast(vote, ctx);
        });
    }
    const auto all_delivered = [&] {
        for (const auto& seen : delivered) {
            if (seen.size() < ids.size()) return false;
        }
        return true;
    };
    ASSERT_TRUE(cluster.reactor().run_until(all_delivered, SimTime::seconds(30)))
        << "dissemination did not reach every node";

    for (int i = 0; i < n; ++i) {
        const auto& seen = delivered[static_cast<std::size_t>(i)];
        EXPECT_EQ(seen.size(), ids.size()) << "node " << i;
        for (const std::uint64_t id : ids) {
            const auto it = seen.find(id);
            ASSERT_NE(it, seen.end()) << "node " << i << " missed " << id;
            EXPECT_EQ(it->second, 1) << "node " << i << " delivered " << id << " twice";
        }
        const auto c = cluster.node(i).transport->counters();
        EXPECT_EQ(c.broadcasts, static_cast<std::uint64_t>(instances)) << "node " << i;
        EXPECT_EQ(c.delivered, c.broadcasts + c.messages_received - c.duplicates)
            << "node " << i;
        EXPECT_EQ(c.send_queue_drops, 0u) << "node " << i;
        EXPECT_EQ(c.decode_errors, 0u) << "node " << i;
    }
}

TEST(RealTransport, GossipDeliversEachIdExactlyOnce) {
    LoopbackCluster cluster(5, Setup::Gossip);
    expect_exactly_once_delivery(cluster, 40);
}

TEST(RealTransport, SemanticAggregatesAndDeliversEachIdExactlyOnce) {
    // Filtering off: it withholds votes a peer provably no longer needs, so
    // not every node would deliver every id. Aggregation stays on.
    PaxosSemantics::Options options;
    options.filtering = false;
    LoopbackCluster cluster(5, Setup::Semantic, 42, options);
    expect_exactly_once_delivery(cluster, 40);

    std::uint64_t aggregates = 0;
    std::uint64_t unpacked = 0;
    for (int i = 0; i < cluster.size(); ++i) {
        aggregates += cluster.node(i).semantics->stats().aggregates_built;
        unpacked += cluster.node(i).semantics->stats().disaggregations;
    }
    EXPECT_GT(aggregates, 0u) << "no aggregated envelope was exercised";
    EXPECT_GT(unpacked, 0u);
}

/// A channel with no sockets behind it: the test hands the transport raw
/// bodies and records what it sends.
class FakeChannel final : public PeerChannel {
public:
    ProcessId self() const override { return 0; }
    int size() const override { return 2; }
    void set_body_handler(BodyFn fn) override { handler = std::move(fn); }
    void link(ProcessId) override {}
    bool peer_up(ProcessId) const override { return true; }
    bool send_body(ProcessId, std::span<const std::uint8_t>, bool) override {
        ++sent;
        return true;
    }

    BodyFn handler;
    int sent = 0;
};

TEST(RealTransport, UnreversibleAggregateIsADecodeError) {
    // A Phase 2b aggregate such as a Semantic-setup peer sends. Hooks that
    // cannot reverse it must not let it reach the delivery path.
    auto votes = std::make_shared<Phase2bAggregateMsg>(
        1, 42, 3, ValueId{2, 8}, 0xfeedfaceULL, std::vector<ProcessId>{1, 2, 3}, 0);
    GossipAppMessage app;
    app.id = votes->unique_key();
    app.origin = 1;
    app.payload = votes;
    app.aggregated = true;
    const std::vector<std::uint8_t> aggregate = wire::encode_body(GossipEnvelope(app));
    // The same flag on a payload no aggregation rule emits; the codec
    // rejects it.
    app.payload = std::make_shared<Phase2bMsg>(1, 42, 3, ValueId{2, 8}, 0xfeedfaceULL);
    const std::vector<std::uint8_t> forged = wire::encode_body(GossipEnvelope(app));

    const auto run = [&](GossipHooks& hooks, std::uint64_t& decode_errors) {
        Reactor reactor;
        FakeChannel chan;
        RealTransport::Params params;
        params.mode = RealTransport::Mode::Gossip;
        params.neighbors = {1};
        RealTransport transport(reactor, chan, params, hooks);
        int delivered = 0;
        transport.set_deliver([&delivered](const PaxosMessagePtr&, CpuContext&) {
            ++delivered;
        });
        chan.handler(1, aggregate);
        chan.handler(1, forged);  // delivery runs inside the handler
        decode_errors = transport.counters().decode_errors;
        return delivered;
    };

    std::uint64_t errors = 0;
    PassThroughHooks pass_through;
    EXPECT_EQ(run(pass_through, errors), 0);
    EXPECT_EQ(errors, 2u);
    // Control: hooks that know the aggregate unpack and deliver its votes.
    PaxosSemantics semantics(0, 3, PaxosSemantics::Options{});
    EXPECT_EQ(run(semantics, errors), 3);
    EXPECT_EQ(errors, 1u);
}

TEST(RealTransport, SecondWaveAfterQuiescence) {
    // Links and timers must stay healthy after the first burst drains:
    // submit, wait, then submit again and require the same agreement.
    constexpr int kFirst = 30;
    constexpr int kSecond = 30;
    LoopbackCluster cluster(3, Setup::Semantic);
    cluster.start();
    cluster.submit(kFirst);
    ASSERT_TRUE(cluster.run_until_delivered(kFirst));

    // A quiescent beat on the real clock (heartbeats keep flowing).
    cluster.reactor().run_until([] { return false; }, SimTime::millis(50));

    cluster.submit(kSecond);
    ASSERT_TRUE(cluster.run_until_delivered(kFirst + kSecond));
    cluster.expect_agreement(kFirst + kSecond);
}

}  // namespace
}  // namespace gossipc::runtime
