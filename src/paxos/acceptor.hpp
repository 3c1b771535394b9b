// The acceptor role (Section 2.3): promises rounds and accepts values.
//
// Phase 1 is ranged (classic multi-Paxos): a single promise covers every
// instance from `from_instance` on. Per-instance accepted state is kept in a
// map for the life of the process: Phase 1 must be able to report every
// accepted value to a new coordinator, so nothing is dropped short of a
// storage-loss wipe (reset()).
//
// Every write of the promise floor and of a slot's vote goes through one
// checked writer (raise_floor / write_vote) that holds the old and the new
// value at once and checks P-ACC-2/3/4 there, on every transition, in every
// product (simulator and gossipd alike).
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "check/invariant.hpp"
#include "paxos/message.hpp"

namespace gossipc {

class Acceptor {
public:
    struct PromiseResult {
        bool promised = false;
        /// Values accepted in instances >= from_instance; reported in 1b.
        std::vector<AcceptedEntry> accepted;
    };

    /// Handles a ranged Phase 1a. Promises iff `round` is strictly greater
    /// than the current promise floor.
    PromiseResult on_phase1a(Round round, InstanceId from_instance);

    /// Handles Phase 2a: accepts iff `round` >= the effective promised round
    /// of the instance. Returns the accepted value on success.
    bool on_phase2a(InstanceId instance, Round round, const Value& value);

    /// The round this acceptor has promised not to go below.
    Round promise_floor() const { return floor_round_; }

    /// Highest (vround, value) accepted in `instance`, if any.
    std::optional<AcceptedEntry> accepted_in(InstanceId instance) const;

    /// Wipes the durable value ledger (fault engine: crash with storage
    /// loss) but KEEPS the promise floor — the one integer a real
    /// deployment stores in the tiny boot block outside the wiped database
    /// (the runtime bridge's link-epoch counter is the same idea). Without
    /// it, an amnesiac process that previously coordinated round r can
    /// re-promise r to itself and complete a round-r quorum out of
    /// acceptors the original quorum never touched, carrying a second
    /// value into a round it already used (observed under the runtime
    /// chaos bridge, DESIGN.md §13). A wiped slot has no vote left to
    /// compare against, so the transition checks start afresh on it.
    void reset() { slots_.clear(); }

#if GC_ENABLE_INVARIANTS
    /// Test-only corruption hooks: deliberately violate acceptor state so the
    /// invariant layer's detection can be exercised. They write through the
    /// same checked writers as the protocol, so a forbidden write dies here.
    /// Compiled out in release.
    void debug_set_promise_floor(Round round) { raise_floor(round); }
    void debug_overwrite_accepted(InstanceId instance, Round vround, const Value& value) {
        Slot& slot = slots_[instance];
        slot.rnd = std::max(slot.rnd, vround);
        write_vote(instance, slot, vround, value);
    }
#endif

private:
    struct Slot {
        Round rnd = 0;   ///< highest round participated in (this instance)
        Round vrnd = 0;  ///< round in which a value was accepted (0 = none)
        Value vval{};
    };

    Round effective_round(InstanceId instance) const;
    /// The only writer of the promise floor; checks P-ACC-2.
    void raise_floor(Round round);
    /// The only writer of a slot's vote; checks P-ACC-3/4 against the vote
    /// it replaces.
    void write_vote(InstanceId instance, Slot& slot, Round vround, const Value& value);

    Round floor_round_ = 0;
    std::map<InstanceId, Slot> slots_;
};

}  // namespace gossipc
