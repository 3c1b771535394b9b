// The coordinator (proposer) role: runs a ranged Phase 1 once, then
// pipelines Phase 2 — one consensus instance per client value — and
// broadcasts Decision messages when instances are decided (Section 2.3).
//
// Optional timeout-triggered retransmission of Phase 2a covers message loss;
// it is disabled in the reliability experiment (Section 4.5).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>
#include <set>
#include <unordered_set>

#include "paxos/acceptor.hpp"
#include "paxos/config.hpp"
#include "paxos/learner.hpp"
#include "transport/transport.hpp"

namespace gossipc {

class Coordinator {
public:
    struct Counters {
        std::uint64_t proposals = 0;        ///< Phase 2a broadcast (first attempt)
        std::uint64_t reproposals = 0;      ///< values re-proposed from Phase 1b
        std::uint64_t retransmissions = 0;  ///< Phase 2a retransmitted
        std::uint64_t decisions_sent = 0;
        std::uint64_t duplicate_values = 0;  ///< client values already proposed
        std::uint64_t values_shed = 0;       ///< client values rejected: pending_ full
        std::uint64_t batches_proposed = 0;  ///< composite values proposed
        std::uint64_t batched_values = 0;    ///< client values packed into composites
        std::uint64_t timer_flushes = 0;     ///< flushes triggered by batch_delay
    };

    Coordinator(const PaxosConfig& config, Transport& transport, Learner& learner);

    /// Starts Phase 1 for all instances >= the learner frontier.
    void start(CpuContext& ctx);

    void on_phase1b(const Phase1bMsg& msg, CpuContext& ctx);

    /// A client value to order (from a local client or a ClientValueMsg).
    void on_client_value(const Value& value, CpuContext& ctx);

    /// Hook from the learner: an instance was decided; broadcast Decision if
    /// it was learned via a quorum of 2b at this process.
    void on_decided(InstanceId instance, const Value& value, bool via_quorum, CpuContext& ctx);

    /// (Re)activates this coordinator with a round strictly above
    /// `min_round` and runs ranged Phase 1 (rank-based takeover after the
    /// previous coordinator is suspected, DESIGN.md §8).
    void activate(Round min_round, CpuContext& ctx);

    /// Demotion on observing a competing coordinator at a higher round:
    /// stops proposing and retransmitting, and returns every value this
    /// coordinator was responsible for but does not know decided — the
    /// caller re-routes them to the new coordinator.
    std::vector<Value> step_down();

    /// False while stepped down; a coordinator object is kept alive after
    /// demotion (its timer chains capture `this`) but stays inert.
    bool active() const { return active_; }

    bool phase1_complete() const { return phase1_complete_; }
    Round round() const { return round_; }

#if GC_ENABLE_INVARIANTS
    // Test-only corruption hook (invariant death tests): forces the
    // coordinator active at an arbitrary round, bypassing activate()'s
    // ownership arithmetic — the exact corruption the P-CRD monitors exist
    // to catch.
    void debug_force_round(Round round) {
        round_ = round;
        active_ = true;
    }
#endif
    const Counters& counters() const { return counters_; }
    /// True when `id` is in the proposal dedup set (diagnostics/tests).
    bool value_seen(const ValueId& id) const { return seen_values_.count(id) != 0; }
    std::size_t pending_values() const { return pending_.size(); }
    std::size_t undecided_proposals() const { return proposals_.size(); }

private:
    void begin_phase1(CpuContext& ctx);
    void complete_phase1(CpuContext& ctx);
    void drop_pending(const ValueId& id);
    void propose(InstanceId instance, const Value& value, CpuContext& ctx);
    /// Size-or-timer flush gate (DESIGN.md §14): flushes right away when
    /// batching is off or a full batch is queued, otherwise arms the
    /// batch_delay timer for the partial batch.
    void maybe_flush(CpuContext& ctx);
    void arm_flush_timer(CpuContext& ctx);
    void flush_pending(CpuContext& ctx);
    /// Marks a value — and, for composites, every component — as proposed
    /// or decided, so origin retransmissions of any of them deduplicate.
    void note_seen(const Value& value);
    /// drop_pending for a value and all its components.
    void drop_pending_for(const Value& value);
    void retransmit_sweep(CpuContext& ctx);

    PaxosConfig config_;
    Transport& transport_;
    Learner& learner_;

    int phase1_attempt_ = 0;
    Round round_ = 0;
    InstanceId phase1_from_ = 1;
    bool phase1_complete_ = false;
    SimTime phase1_started_at_ = SimTime::zero();
    std::set<ProcessId> promises_;
    /// Highest-vround accepted value per instance, merged from 1b messages.
    std::map<InstanceId, AcceptedEntry> reported_;

    InstanceId next_instance_ = 1;
    /// Plain client values awaiting proposal (never composites: losing or
    /// orphaned batches are unpacked before re-queueing, so batches cannot
    /// nest). Bounded by config_.pending_cap for externally arriving values;
    /// internal re-queues bypass the cap.
    std::deque<Value> pending_;
    std::unordered_set<ValueId> seen_values_;
    /// When the armed flush timer is due; zero() = no timer armed. A crash
    /// silently drops the one-shot callback, so a plain bool would stay
    /// "armed" forever and disable timer flushes until the next Phase 1 —
    /// the deadline lets arm_flush_timer detect the stale state (now past
    /// the deadline, no callback fired) and re-arm.
    SimTime flush_deadline_ = SimTime::zero();
    std::int64_t batch_seq_ = 0;  ///< synthesized composite ids, monotone

    struct Proposal {
        Value value;
        SimTime proposed_at;
        std::int32_t attempt = 0;
    };
    std::map<InstanceId, Proposal> proposals_;  ///< undecided instances

    bool retransmit_armed_ = false;
    bool active_ = true;
    Counters counters_;
};

}  // namespace gossipc
