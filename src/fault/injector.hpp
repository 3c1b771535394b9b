// Fault injection engine (DESIGN.md §7): replays a FaultSchedule against a
// live deployment.
//
// arm() schedules every event in the simulator's fault lane (first-class
// queue entries that fire before same-instant protocol activity). Applying
// an event mutates the network/node/overlay state and appends one line to
// the injected-fault log; events that cannot apply (restart of a live
// process, churn that would disconnect the overlay, ...) are logged as
// skipped rather than silently dropped. The log is deterministic: the same
// (schedule, deployment seed) yields a byte-identical log on every run —
// that property is what makes chaos seeds replayable and pinnable.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "net/network.hpp"
#include "overlay/graph.hpp"
#include "sim/simulator.hpp"

namespace gossipc {

class GossipNode;

class FaultInjector {
public:
    /// Optional wiring beyond the raw network. Without gossip hooks, churn
    /// events are logged as skipped (Baseline has no overlay to churn);
    /// without a wipe hook, wipe-marked restarts preserve state (logged).
    struct Hooks {
        /// Resolves a process's gossip layer; may be empty or return null.
        std::function<GossipNode*(ProcessId)> gossip_node;
        /// Wipes a process's durable state and re-baselines its agreement
        /// monitors (Deployment wires this to PaxosProcess::wipe_state +
        /// AgreementMonitor::forget_learner).
        std::function<void(ProcessId)> wipe_state;
        /// The live overlay, mutated by churn (edge accounting).
        Graph* overlay = nullptr;
    };

    struct Counters {
        std::uint64_t applied = 0;  ///< events that took effect
        std::uint64_t skipped = 0;  ///< events logged as inapplicable
        std::uint64_t crashes = 0;
        std::uint64_t restarts = 0;
        std::uint64_t wipes = 0;    ///< restarts that wiped durable state
        std::uint64_t partitions = 0;
        std::uint64_t heals = 0;
        std::uint64_t link_faults = 0;
        std::uint64_t link_fault_ends = 0;
        std::uint64_t edges_dropped = 0;  ///< churn edge accounting
        std::uint64_t edges_added = 0;
    };

    FaultInjector(Simulator& sim, Network& network, FaultSchedule schedule, Hooks hooks);
    /// Hook-less injector: crash/partition/link faults only; churn and state
    /// wipes are logged as skipped.
    FaultInjector(Simulator& sim, Network& network, FaultSchedule schedule);

    /// Schedules every event as a simulator fault entry. Call exactly once,
    /// before running.
    void arm();

    const FaultSchedule& schedule() const { return schedule_; }
    const Counters& counters() const { return counters_; }

    /// The injected-fault log: one line per applied (or skipped) event, in
    /// execution order.
    const std::vector<std::string>& log() const { return log_; }
    /// The log joined with newlines — byte-identical across replays of the
    /// same (schedule, deployment seed).
    std::string rendered_log() const;

private:
    void apply(const FaultEvent& event);
    void apply_crash(const CrashFault& f);
    void apply_restart(const RestartFault& f);
    void apply_partition(const PartitionFault& f);
    void apply_heal();
    void apply_churn_drop(const ChurnDropEdge& f);
    void apply_churn_add(const ChurnAddEdge& f);
    void record(const FaultAction& action);
    void record_skip(const FaultAction& action, const char* reason);

    Simulator& sim_;
    Network& network_;
    FaultSchedule schedule_;
    Hooks hooks_;
    bool armed_ = false;
    std::unordered_map<ProcessId, bool> wipe_on_restart_;
    Counters counters_;
    std::vector<std::string> log_;
};

}  // namespace gossipc
