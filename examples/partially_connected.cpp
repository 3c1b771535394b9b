// The paper's motivating scenario: a multi-administrative deployment where
// processes cannot all talk to the coordinator directly (e.g. they sit
// behind firewalls). A Baseline-style star is impossible; Paxos over gossip
// reaches consensus anyway, because gossip only needs a connected overlay.
//
// We hand-build an overlay of three administrative domains connected by two
// gateway links, so most processes are several hops from the coordinator.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/semantic_gossip.hpp"

int main() {
    using namespace gossipc;

    std::printf("Partially connected network: 3 domains x 5 processes, linked only\n"
                "through gateways. The coordinator (process 0) cannot reach most\n"
                "processes directly; consensus runs over Semantic Gossip.\n\n");

    const int n = 15;
    Graph overlay(n);
    // Domain A: processes 0-4 (ring + chord), coordinator inside.
    // Domain B: 5-9. Domain C: 10-14.
    for (int d = 0; d < 3; ++d) {
        const int base = d * 5;
        for (int i = 0; i < 5; ++i) {
            overlay.add_edge(base + i, base + (i + 1) % 5);
        }
        overlay.add_edge(base, base + 2);  // a chord for redundancy
    }
    // Gateways: A4 <-> B5, B9 <-> C10.
    overlay.add_edge(4, 5);
    overlay.add_edge(9, 10);

    const auto stats = analyze_overlay(overlay);
    std::printf("overlay: %d processes, %zu edges, avg degree %.1f, diameter %d hops\n",
                overlay.size(), overlay.edge_count(), stats.average_degree,
                stats.diameter_hops);
    const auto hops = hop_distances(overlay, 0);
    int beyond_one_hop = 0;
    for (const int h : hops) beyond_one_hop += h > 1 ? 1 : 0;
    std::printf("%d of %d processes cannot talk to the coordinator directly\n\n",
                beyond_one_hop, n - 1);

    ExperimentConfig cfg;
    cfg.setup = Setup::SemanticGossip;
    cfg.n = n;
    cfg.overlay = overlay;
    cfg.total_rate = 26.0;
    cfg.warmup = SimTime::seconds(0.5);
    cfg.measure = SimTime::seconds(4);
    cfg.drain = SimTime::seconds(2);

    const auto result = run_experiment(cfg);
    std::printf("consensus over the partially connected graph:\n");
    std::printf("  ordered %llu/%llu submitted values (%.1f decisions/s)\n",
                static_cast<unsigned long long>(result.workload.completed),
                static_cast<unsigned long long>(result.workload.submitted),
                result.workload.throughput);
    std::printf("  avg latency %.1f ms, p99 %.1f ms (multi-hop dissemination)\n",
                result.workload.latencies.mean(), result.workload.latencies.percentile(99));
    std::printf("  median RTT coordinator->processes through the overlay: %.1f ms\n\n",
                result.median_rtt.as_millis());

    // Show that the Baseline setup is structurally impossible here: building
    // a deployment that assumes the coordinator star throws as soon as the
    // coordinator tries to use a link that does not exist.
    std::printf("for contrast, Baseline on the same link set: ");
    Simulator sim;
    Network net(sim, LatencyModel::aws(), n, {});
    for (const auto& [a, b] : overlay.edges()) net.allow_link(a, b);
    PortTransport transport(net.node(0), n);
    PaxosConfig pc;
    pc.n = n;
    pc.id = 0;
    bool failed = false;
    net.node(0).post([&](CpuContext& ctx) {
        try {
            transport.broadcast(std::make_shared<Phase1aMsg>(0, 1, 1), ctx);
        } catch (const std::logic_error&) {
            failed = true;  // no direct link to a process behind a firewall
        }
    });
    sim.run_until_idle();
    std::printf("%s\n", failed ? "fails immediately (missing direct links), as expected."
                               : "unexpectedly succeeded?!");
    return result.workload.not_ordered == 0 && failed ? 0 : 1;
}
