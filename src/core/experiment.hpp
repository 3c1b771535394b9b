// End-to-end experiment construction and execution: builds one of the
// paper's three setups (Baseline / Gossip / Semantic Gossip) on the
// simulated WAN, runs the open-loop workload, and collects the metrics the
// evaluation section reports.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "check/paxos_invariants.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "gossip/gossip_node.hpp"
#include "group/shard.hpp"
#include "net/network.hpp"
#include "overlay/analysis.hpp"
#include "overlay/graph.hpp"
#include "paxos/process.hpp"
#include "semantic/paxos_semantics.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"
#include "transport/port_transport.hpp"
#include "workload/workload.hpp"

namespace gossipc {

enum class Setup { Baseline, Gossip, SemanticGossip };

const char* setup_name(Setup s);

struct ExperimentConfig {
    Setup setup = Setup::Gossip;
    int n = 13;
    /// Independent consensus groups sharded over the same processes and the
    /// same gossip substrate (DESIGN.md §15). Group g's initial coordinator
    /// is process g mod n; client values route to groups by key hash. 1 keeps
    /// the paper's single-group behaviour bit-for-bit.
    int groups = 1;

    // Workload.
    double total_rate = 100.0;  ///< submissions/s over all clients
    int num_clients = 13;
    std::uint32_t value_size = 1024;
    SimTime warmup = SimTime::seconds(1);
    SimTime measure = SimTime::seconds(5);
    SimTime drain = SimTime::seconds(2);

    // Fault injection (Section 4.5 / DESIGN.md §7). `loss_rate` is the
    // paper's uniform receive-side loss; `faults` is an explicit schedule of
    // typed fault events; `chaos` additionally samples a schedule from
    // (chaos_seed, profile) — both are merged and replayed by the
    // deployment's FaultInjector.
    double loss_rate = 0.0;
    bool timeouts_enabled = true;

    // Failure detection + coordinator failover (DESIGN.md §8). Off by
    // default: the detector, heartbeats, and succession logic are only wired
    // when `failover` is set, and a fault-free failover run replays the same
    // fault log as a non-failover run (empty) when the detector never fires.
    bool failover = false;
    SimTime heartbeat_interval = SimTime::millis(100);
    SimTime suspect_after = SimTime::millis(450);
    SimTime detector_sweep_interval = SimTime::millis(50);
    SimTime suspicion_jitter_max = SimTime::millis(60);
    /// Seed-derived jitter cap on coordinator Phase 2a retransmission and
    /// submission-repair backoff (applies regardless of `failover`).
    SimTime retransmit_jitter_max = SimTime::millis(150);

    // `faults` is a programmatic schedule of arbitrary timed closures with
    // no scalar CLI/JSON form; scripts build it in code, and --chaos covers
    // the declarative case.
    // gclint: allow(config-wiring) programmatic-only structured field
    FaultSchedule faults;
    std::optional<ChaosProfile> chaos;
    /// Seed for chaos generation; 0 means "reuse `seed`". Splitting the two
    /// lets a sweep hold the deployment fixed while varying only the chaos.
    std::uint64_t chaos_seed = 0;

    // Overlay (Gossip setups). The same overlay_seed is used across setups
    // of one system size, enforcing the paper's fixed-overlay methodology;
    // `overlay` overrides generation entirely (Figures 7/8).
    std::uint64_t overlay_seed = 42;
    // `overlay` is an explicit adjacency override for tests that pin a
    // topology; the CLI/JSON surface is --overlay-seed.
    // gclint: allow(config-wiring) programmatic-only structured field
    std::optional<Graph> overlay;

    // Semantic techniques (Semantic Gossip setup; ablations toggle these).
    PaxosSemantics::Options semantic{true, true};

    GossipStrategy strategy = GossipStrategy::Push;

    // Coordinator-side value batching + pipelined dissemination (DESIGN.md
    // §14). batch_size = 1 keeps the paper's one-value-per-instance
    // behaviour; >= 2 packs queued client values into composite Paxos
    // values, flushed when the batch fills or batch_delay elapses.
    std::uint32_t batch_size = 1;
    SimTime batch_delay = SimTime::millis(5);
    /// Coordinator backpressure: pending client values beyond this cap are
    /// shed (counted in paxos.values_shed) instead of growing the queue
    /// without bound.
    std::size_t pending_cap = 1 << 16;
    /// Pull-strategy pipelining: forward validated messages in the same
    /// simulator step instead of parking them for the next anti-entropy
    /// round.
    bool pipeline = false;
    /// Gossip fanout restriction (0 = flood all peers) and its adaptive
    /// widening under send-queue pressure.
    std::size_t fanout = 0;
    bool adaptive_fanout = false;

    /// Gossip-layer tuning (cache sizes, batching ablation, pull interval).
    /// `seed` and `strategy` inside are overridden by the fields above.
    GossipNode::Params gossip_params{};

    // Substrate calibration. `node_params`'s scalar knobs are surfaced
    // individually (--bandwidth, --jitter-frac); its remaining members are
    // calibration constants fixed by the paper.
    // gclint: allow(config-wiring) nested calibration struct, knobs surfaced individually
    Node::Params node_params{};
    double bandwidth_bytes_per_us = 125.0;
    double jitter_frac = 0.02;

    /// Runtime invariant checking (debug/sanitizer builds only): the
    /// coordinator-succession checks (P-CRD-*) run every this-many simulator
    /// events and once more when results are collected; 0 disables that
    /// probe. The acceptor, learner and agreement checks do not sample: they
    /// run at every state transition whatever this is. No effect in builds
    /// with GC_INVARIANTS off — the checks compile out.
    std::uint64_t invariant_probe_events = 25'000;

    // Observability (DESIGN.md §9). Message-lifecycle tracing is opt-in;
    // when off, no tracer exists and every recording site is a skipped null
    // check (zero-cost). `trace_jsonl_path` (implies `trace`) additionally
    // exports the ring as JSONL at collect time.
    bool trace = false;
    std::size_t trace_capacity = 1 << 16;
    std::string trace_jsonl_path;

    std::uint64_t seed = 1;
};

struct ExperimentResult {
    Workload::Result workload;
    MessageStats messages;
    PaxosSemantics::Stats semantic;  ///< zeros outside Semantic Gossip
    OverlayStats overlay;            ///< default for Baseline
    SimTime median_rtt = SimTime::zero();  ///< overlay RTT median (gossip setups)
    std::uint64_t decisions_at_coordinator = 0;
    /// Delivered count at each group's placement coordinator, in group order
    /// (size == groups; a single-group run has one entry).
    std::vector<std::uint64_t> group_decided;

    /// Failure-detection / failover activity aggregated over all processes
    /// (zeros when failover is disabled or the detector never fired).
    struct FailoverStats {
        std::uint64_t heartbeats_sent = 0;
        std::uint64_t heartbeats_suppressed = 0;
        std::uint64_t suspicions = 0;
        std::uint64_t restores = 0;
        std::uint64_t takeovers = 0;
        std::uint64_t step_downs = 0;
    };
    FailoverStats failover;

    /// Injected-fault log: one line per fault event in execution order,
    /// byte-identical across replays of the same config (empty when the run
    /// had no fault schedule). Failover runs interleave suspicion/takeover/
    /// step-down events at their timestamps.
    std::vector<std::string> fault_log;
    std::uint64_t faults_injected = 0;  ///< applied events (skips excluded)

    /// Unified metrics snapshot (DESIGN.md §9): every component counter under
    /// its registry name, sorted by name. Rendered as the "metrics" object of
    /// the JSON report.
    std::vector<MetricsRegistry::Sample> metrics;
};

/// A fully wired deployment; exposed so examples and tests can drive the
/// pieces directly. Non-copyable; owns every component.
class Deployment {
public:
    explicit Deployment(const ExperimentConfig& config);
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    /// Starts processes and workload, runs warmup+measure+drain.
    ExperimentResult run();

    /// Starts processes only (no workload); callers drive the simulator.
    void start_processes();

    Simulator& simulator() { return *sim_; }
    Network& network() { return *network_; }
    /// Node id's group-0 process (the whole node in a single-group run).
    PaxosProcess& process(ProcessId id) {
        return shards_.at(static_cast<std::size_t>(id))->process(0);
    }
    /// Node id's process for consensus group g.
    PaxosProcess& process(ProcessId id, GroupId g) {
        return shards_.at(static_cast<std::size_t>(id))->process(g);
    }
    /// Node id's multi-group stack (dispatcher, shared detector, processes).
    group::GroupShard& shard(ProcessId id) {
        return *shards_.at(static_cast<std::size_t>(id));
    }
    int groups() const { return config_.groups; }
    /// Every process, node-major then group order (n * groups entries).
    std::vector<PaxosProcess*> process_ptrs();
    Workload& workload() { return *workload_; }
    const ExperimentConfig& config() const { return config_; }
    const Graph* overlay() const { return overlay_ ? &*overlay_ : nullptr; }
    GossipNode* gossip_node(ProcessId id);
    PaxosSemantics* semantics(ProcessId id);
    /// The deployment's invariant checker; null when invariants are compiled
    /// out or the probe is disabled in the config.
    check::InvariantChecker* invariants() { return invariants_.get(); }
    /// The deployment's fault injector; null when the config has no fault
    /// schedule and no chaos profile.
    FaultInjector* fault_injector() { return injector_.get(); }
    /// The message-lifecycle tracer; null unless the config enables tracing.
    trace::Tracer* tracer() { return tracer_.get(); }
    /// The unified metrics registry. Populated from component counters at
    /// collect(); callers may register custom metrics before that.
    MetricsRegistry& metrics() { return registry_; }

    /// Wipes one node's durable state (acceptor + learner of every group),
    /// re-baselining its shadow monitors so the loss is not itself reported
    /// as a safety violation. Used by the fault engine for wipe-marked
    /// restarts.
    void wipe_process_state(ProcessId id);

    /// Collects the deployment-wide message statistics (any time).
    MessageStats message_stats() const;
    ExperimentResult collect();

private:
    /// Pulls every component counter into the metrics registry (collect()).
    void fill_metrics(const ExperimentResult& result);

    ExperimentConfig config_;
    std::unique_ptr<Simulator> sim_;
    std::unique_ptr<Network> network_;
    std::optional<Graph> overlay_;
    std::vector<std::unique_ptr<GossipHooks>> hooks_;
    std::vector<std::unique_ptr<GossipNode>> gossip_nodes_;
    std::vector<std::unique_ptr<Transport>> transports_;
    /// One multi-group stack per node; a single-group run is a shard of one.
    std::vector<std::unique_ptr<group::GroupShard>> shards_;
    std::unique_ptr<Workload> workload_;
    std::unique_ptr<check::InvariantChecker> invariants_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<trace::Tracer> tracer_;
    MetricsRegistry registry_;
    /// Failover events (suspect/restore/takeover/step-down) in emission
    /// order; merged into the fault log at collect().
    std::vector<std::string> failover_log_;
    /// One cross-learner agreement monitor per consensus group, fed by the
    /// learners; empty when invariants are compiled out.
    std::vector<std::unique_ptr<check::AgreementMonitor>> agreement_;
};

/// Convenience: build, run, and collect in one call.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace gossipc
