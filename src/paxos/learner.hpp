// The learner role: learns decided values either from a Decision message or
// from identical Phase 2b messages from a majority of processes (the paper
// notes the latter can speed up decisions in gossip setups). Values are
// delivered upward strictly in instance order, with no gaps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "check/invariant.hpp"
#include "net/node.hpp"
#include "paxos/message.hpp"

namespace gossipc {

namespace check {
class AgreementMonitor;
}

class Learner {
public:
    /// Fired for each value delivered in order.
    using DeliverFn = std::function<void(InstanceId, const Value&, CpuContext&)>;
    /// Fired once when an instance first becomes decided; `via_quorum` is
    /// true when the decision was learned from a majority of Phase 2b (the
    /// coordinator uses this to broadcast the Decision message).
    using DecidedFn =
        std::function<void(InstanceId, const Value&, bool via_quorum, CpuContext&)>;

    explicit Learner(int quorum);

    void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
    void set_decided_listener(DecidedFn fn) { decided_listener_ = std::move(fn); }

    /// Caches the proposed value so digest-only 2b/Decision can be resolved;
    /// may complete a pending decision whose payload was missing.
    void on_phase2a(const Phase2aMsg& msg, CpuContext& ctx);
    void on_phase2b(const Phase2bMsg& msg, CpuContext& ctx);
    void on_decision(const DecisionMsg& msg, CpuContext& ctx);

    bool knows_decision(InstanceId instance) const;
    /// Decided value, if the instance is decided and the payload is known.
    std::optional<Value> decided_value(InstanceId instance) const;
    /// Digest of the decided value; known even while the payload is missing.
    /// nullopt when undecided.
    std::optional<std::uint64_t> decided_digest(InstanceId instance) const;

    /// Next instance to be delivered (all below are decided and delivered).
    InstanceId frontier() const { return frontier_; }
    /// Highest instance referenced by any 2a/2b/Decision seen; frontier <=
    /// highest_seen signals a gap worth repairing.
    InstanceId highest_seen() const { return highest_seen_; }

    /// True when `instance` is known decided but the value payload is
    /// missing (the Phase 2a was lost) — repair must fetch the full value.
    bool value_missing(InstanceId instance) const;

    std::uint64_t delivered_count() const { return delivered_count_; }

    /// Reports every decision and every frontier advance of this learner to
    /// a cross-learner monitor (P-AGR-1, P-LRN-2), as learner `index` of
    /// that monitor. Null (the default, and the runtime's wiring) reports
    /// nothing.
    void set_agreement_monitor(check::AgreementMonitor* monitor, std::size_t index) {
        monitor_ = monitor;
        monitor_index_ = index;
    }

#if GC_ENABLE_INVARIANTS
    // Test-only corruption hook (invariant death tests): overwrites the
    // delivered-value counter without moving the frontier, breaking the
    // frontier == delivered + 1 lockstep that the next delivery checks
    // (P-LRN-3).
    void debug_set_delivered_count(std::uint64_t n) { delivered_count_ = n; }
#endif

    /// Wipes ALL learner state (fault engine: crash with storage loss); the
    /// delivery frontier rewinds to 1 and every decision is re-learnable.
    /// Listeners and the monitor pointer are kept; the monitor must be told
    /// (AgreementMonitor::forget_learner, DESIGN.md §7).
    void reset() {
        frontier_ = 1;
        highest_seen_ = 0;
        delivered_count_ = 0;
        inst_.clear();
        log_.clear();
    }

private:
    struct InstState {
        std::map<std::uint64_t, Value> values_by_digest;  // from Phase 2a
        // (round, digest) -> distinct voters
        std::map<std::pair<Round, std::uint64_t>, std::set<ProcessId>> votes;
        bool decided = false;
        bool via_quorum = false;
        bool listener_notified = false;
        std::uint64_t decided_digest = 0;
        ValueId decided_value_id{};
    };

    void note_instance(InstanceId instance);
    void mark_decided(InstanceId instance, ValueId value_id, std::uint64_t digest,
                      bool via_quorum, CpuContext& ctx);
    /// Fires the decided listener once the decided value's payload is known
    /// (the quorum of 2b can arrive before the Phase 2a in gossip setups).
    void maybe_notify_decided(InstanceId instance, InstState& st, CpuContext& ctx);
    void try_deliver(CpuContext& ctx);

    int quorum_;
    InstanceId frontier_ = 1;
    InstanceId highest_seen_ = 0;
    std::uint64_t delivered_count_ = 0;
    std::map<InstanceId, InstState> inst_;
    /// Delivered values, retained to answer LearnRequests (the SMR log).
    std::map<InstanceId, Value> log_;
    DeliverFn deliver_;
    DecidedFn decided_listener_;
    check::AgreementMonitor* monitor_ = nullptr;
    std::size_t monitor_index_ = 0;
};

}  // namespace gossipc
